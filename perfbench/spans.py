"""Per-layer self time, measured from outside the program.

A :class:`Tracer` wraps a layer's public entry points; every call opens a
span.  A span's *self time* is its duration minus the durations of the
spans opened directly inside it, so

* the self times of all spans under a root add up to the root's duration
  (nothing is counted twice), and
* a layer that re-enters itself -- a DAIG query whose call transfer runs
  another procedure's DAIG query -- is counted once, not once per level.

The root span of each timed step is the ``trace.unattributed`` layer: its
self time is the step time that no layer span covers.

:func:`instrument` installs the wrappers on ``repro``'s classes and module
functions for the traced run only; ``src/`` is never modified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

#: The self-time layers, in the order the README lists them.
TIME_LAYERS = (
    "lang.structure",
    "daig.build",
    "daig.splice",
    "daig.query",
    "domains.transfer",
    "domains.join",
    "domains.widen",
    "interproc.self",
    "store.get",
    "store.put",
    "store.digest",
    "trace.unattributed",
)

ROOT = "trace.unattributed"


class Tracer:
    """Self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: One accumulator per open span: time covered by its child spans.
        self._children: List[float] = []

    def reset(self) -> None:
        assert not self._children, "reset inside an open span"
        self.self_time.clear()
        self.calls.clear()

    def run(self, layer: str, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> Any:
        """Call ``fn`` inside a span of ``layer``."""
        children = self._children
        clock = self.clock
        started = clock()
        children.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - started
            self.self_time[layer] += duration - children.pop()
            self.calls[layer] += 1
            if children:
                children[-1] += duration

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        run = self.run

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return run(layer, fn, *args, **kwargs)

        traced.__wrapped_layer__ = layer  # type: ignore[attr-defined]
        return traced


def _patch(tracer: Tracer, owner: Any, attribute: str, layer: str) -> None:
    original = getattr(owner, attribute)
    if getattr(original, "__wrapped_layer__", None) is not None:
        raise RuntimeError("%r.%s is already instrumented" % (owner, attribute))
    setattr(owner, attribute, tracer.wrap(layer, original))


def instrument(tracer: Tracer, domain_class: type) -> None:
    """Wrap each layer's entry points (once per process).

    Entry points are the layers' public functions, plus two internal hooks
    where one layer calls back into another: the interprocedural engine's
    call transfer (``_analyze_call``, invoked from inside DAIG evaluation)
    and the store encoders it imported by name.
    """
    from repro.daig import engine as daig_engine
    from repro.daig import query as daig_query
    from repro.interproc import engine as interproc_engine
    from repro.lang import structure as lang_structure
    from repro.store import base as store_base

    structure = lang_structure.CfgStructure
    for attribute in ("__init__", "refresh", "patch_stmt"):
        _patch(tracer, structure, attribute, "lang.structure")

    _patch(tracer, daig_engine.DaigEngine, "__init__", "daig.build")
    # The engine module imported the splice entry points by name.
    _patch(tracer, daig_engine, "splice", "daig.splice")
    _patch(tracer, daig_engine, "splice_delta", "daig.splice")
    _patch(tracer, daig_engine.DaigEngine, "query_location", "daig.query")
    _patch(tracer, daig_query.QueryEvaluator, "query", "daig.query")

    _patch(tracer, domain_class, "transfer", "domains.transfer")
    _patch(tracer, domain_class, "join", "domains.join")
    _patch(tracer, domain_class, "widen", "domains.widen")

    engine = interproc_engine.InterproceduralEngine
    for attribute in ("__init__", "query", "edit_procedure",
                      "analyze_everything", "_analyze_call"):
        _patch(tracer, engine, attribute, "interproc.self")
    for attribute in ("code_digest", "deep_digest"):
        _patch(tracer, engine, attribute, "store.digest")
    _patch(tracer, interproc_engine, "summary_store_key", "store.digest")
    _patch(tracer, interproc_engine, "canonical_bytes", "store.digest")
    _patch(tracer, store_base.SummaryStore, "get", "store.get")
    _patch(tracer, interproc_engine, "decode_summary", "store.get")
    _patch(tracer, store_base.SummaryStore, "put", "store.put")
    _patch(tracer, interproc_engine, "encode_summary", "store.put")
