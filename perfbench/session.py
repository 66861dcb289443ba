"""One workload session in a process of its own.

``run.py`` starts this script once per measurement.  It sets the workload
up -- imports ``repro``, builds the initial programs' CFGs and engines --
then times every step of its inputs (one user action plus its five
answers each), in whole rounds of one step per program.

Modes:

* ``run`` -- the measurement: latencies, peak RSS, and the answers (written
  for ``check.py`` after the timed steps, never compared in this process);
* ``trace`` -- like ``run``, with every layer wrapped by :mod:`spans`,
  reporting self time and work counters.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import sys
import tempfile
import time
from collections import Counter
from typing import Any, Dict, Iterable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

POLICY = "1-call-site"


def work_counters(daig_engines: Iterable[Any], cfgs: Iterable[Any],
                  interprocs: Iterable[Any]) -> Counter:
    """Cumulative work counters the program exposes, summed."""
    out: Counter = Counter()
    memos = {}
    for engine in daig_engines:
        stats = engine.stats
        out["cells_computed"] += stats.cells_computed
        out["cells_reused"] += stats.cells_reused
        out["cells_restored"] += stats.cells_restored
        memos[id(engine.memo)] = engine.memo
    for memo in memos.values():
        stats = memo.stats()
        out["memo_hits"] += stats["hits"]
        out["memo_misses"] += stats["misses"]
    for cfg in cfgs:
        stats = cfg.structure_stats()
        out["structure_full_builds"] += stats["structure_full_builds"]
        out["structure_locs_reanalyzed"] += stats["structure_locs_reanalyzed"]
    for interproc in interprocs:
        out.update(interproc.counters)
    return out


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``execve``,
    so it would report the parent's footprint at spawn time if larger.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def intern_counters() -> Counter:
    from repro.intern import intern_stats

    out: Counter = Counter()
    for stats in intern_stats().values():
        out["hits"] += stats["hits"]
        out["misses"] += stats["misses"]
    return out


class Session:
    """A workload's engines over its programs, set up by the constructor;
    :meth:`step` is one timed step."""

    def step(self, round_: int, program: int) -> List[Any]:
        raise NotImplementedError

    def work(self) -> Counter:
        """Cumulative work counters (see :func:`work_counters`)."""
        raise NotImplementedError

    def settle(self) -> None:
        """Bookkeeping after a step, outside its timing."""

    def close(self) -> None:
        """Release what set-up created."""


class IntraSession(Session):
    """``intra-interval``: one long-lived incr+demand DaigEngine per
    program; each step inserts code and asks five locations."""

    def __init__(self, programs: List[Dict[str, Any]]) -> None:
        from repro.daig import DaigEngine
        from repro.domains import IntervalDomain

        self.streams = [program["steps"] for program in programs]
        self.engines = []
        for program in programs:
            engine = DaigEngine(program["program"].copy(), IntervalDomain())
            engine.query_exit()
            self.engines.append(engine)

    def step(self, round_: int, program: int) -> List[Any]:
        edit, locations = self.streams[program][round_]
        engine = self.engines[program]
        edit.apply_to_engine(engine)
        return [engine.query_location(loc) for loc in locations]

    def work(self) -> Counter:
        return work_counters(self.engines,
                             [engine.cfg for engine in self.engines], ())


class RecursiveSession(Session):
    """``interproc-recursive``: one long-lived InterproceduralEngine per
    program (intervals, 1-call-site contexts); each step edits one
    procedure and asks five (procedure, location) sites."""

    def __init__(self, programs: List[Dict[str, Any]]) -> None:
        from repro.domains import IntervalDomain
        from repro.interproc import InterproceduralEngine, policy_by_name

        self.streams = [program["steps"] for program in programs]
        self.engines = []
        for program in programs:
            cfgs = {name: cfg.copy()
                    for name, cfg in program["program"].items()}
            engine = InterproceduralEngine(
                cfgs, IntervalDomain(), policy_by_name(POLICY))
            engine.query_entry_exit()
            self.engines.append(engine)

    def step(self, round_: int, program: int) -> List[Any]:
        procedure, edit, sites = self.streams[program][round_]
        engine = self.engines[program]
        engine.edit_procedure(procedure, edit.apply_to_engine)
        return [engine.query(name, loc) for name, loc in sites]

    def work(self) -> Counter:
        return work_counters(
            [daig for engine in self.engines for daig in engine.engines.values()],
            [cfg for engine in self.engines for cfg in engine.cfgs.values()],
            self.engines)


class WarmSession(Session):
    """``warm-restart``: per program, a sqlite SummaryStore in a fresh
    temporary directory, filled by one cold session during set-up.  Each
    step applies one edit to the grown program while no engine is open,
    then opens a new engine on the store (over fresh CFG copies, as a
    restarted tool would parse them) and answers the step's five sites."""

    def __init__(self, programs: List[Dict[str, Any]], scratch: str) -> None:
        from repro.domains import IntervalDomain
        from repro.interproc import InterproceduralEngine, policy_by_name

        self._engine_class = InterproceduralEngine
        self._domain = IntervalDomain()
        self._policy = policy_by_name(POLICY)
        self.directory = tempfile.mkdtemp(prefix="warm-", dir=scratch)
        self.streams = [program["steps"] for program in programs]
        self.code = [program["program"] for program in programs]
        self.specs = []
        self.totals: Counter = Counter()
        self._last = None
        for index, code in enumerate(self.code):
            spec = "sqlite:" + os.path.join(self.directory, "store-%d.db" % index)
            cold = self._open(code, spec)
            for name, cfg in code.items():
                cold.query(name, cfg.exit)
            cold.store.close()
            self.totals["backend_errors"] += cold.store.errors
            self.specs.append(spec)

    def _open(self, code: Dict[str, Any], spec: str, procedure: str = "",
              edit: Any = None) -> Any:
        cfgs = {name: cfg.copy() for name, cfg in code.items()}
        if edit is not None:
            edit.apply_to_cfg(cfgs[procedure])
        return self._engine_class(cfgs, self._domain, self._policy, store=spec)

    def step(self, round_: int, program: int) -> List[Any]:
        procedure, edit, sites = self.streams[program][round_]
        engine = self._open(self.code[program], self.specs[program],
                            procedure, edit)
        try:
            answers = [engine.query(name, loc) for name, loc in sites]
        finally:
            engine.store.close()
        self._last = engine
        return answers

    def settle(self) -> None:
        """Fold the finished session's counters in (outside the timing)."""
        engine, self._last = self._last, None
        self.totals.update(work_counters(
            engine.engines.values(), engine.cfgs.values(), (engine,)))
        self.totals["backend_errors"] += engine.store.errors

    def work(self) -> Counter:
        return Counter(self.totals)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def open_session(workload: str, programs: List[Dict[str, Any]],
                 scratch: str) -> Session:
    if workload == "intra-interval":
        return IntraSession(programs)
    if workload == "interproc-recursive":
        return RecursiveSession(programs)
    if workload == "warm-restart":
        return WarmSession(programs, scratch)
    raise KeyError(workload)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Any, work: Counter, intern: Counter,
                  steps: int) -> Dict[str, float]:
    """Per-step self time and work of each layer (see README.md)."""
    from perfbench.spans import TIME_LAYERS

    seconds = {layer: tracer.self_time.get(layer, 0.0) / steps
               for layer in TIME_LAYERS}
    per_step = {key: value / steps for key, value in work.items()}
    return {
        "lang.structure_s": seconds["lang.structure"],
        "lang.structure_full_builds": per_step.get("structure_full_builds", 0.0),
        "lang.structure_locs_reanalyzed":
            per_step.get("structure_locs_reanalyzed", 0.0),
        "daig.build_s": seconds["daig.build"],
        "daig.splice_s": seconds["daig.splice"],
        "daig.query_s": seconds["daig.query"],
        "daig.cells_computed": per_step.get("cells_computed", 0.0),
        "daig.cells_reused": per_step.get("cells_reused", 0.0),
        "daig.cells_restored": per_step.get("cells_restored", 0.0),
        "daig.memo_hit_ratio": _ratio(work["memo_hits"], work["memo_misses"]),
        "domains.transfer_s": seconds["domains.transfer"],
        "domains.join_s": seconds["domains.join"],
        "domains.widen_s": seconds["domains.widen"],
        "domains.transfers": tracer.calls.get("domains.transfer", 0) / steps,
        "intern.hit_ratio": _ratio(intern["hits"], intern["misses"]),
        "interproc.self_s": seconds["interproc.self"],
        "interproc.fixpoint_rounds":
            per_step.get("interproc_fixpoint_rounds", 0.0),
        "interproc.summary_hit_ratio": _ratio(
            work["interproc_summary_hits"], work["interproc_summary_misses"]),
        "interproc.callsite_dirties":
            per_step.get("interproc_callsite_dirties", 0.0),
        "interproc.engines_built": per_step.get("interproc_engines_built", 0.0),
        "store.get_s": seconds["store.get"],
        "store.put_s": seconds["store.put"],
        "store.digest_s": seconds["store.digest"],
        "store.hit_ratio": _ratio(work["interproc_store_hits"],
                                  work["interproc_store_misses"]),
        "store.writes": per_step.get("interproc_store_writes", 0.0),
        "trace.unattributed_s": seconds["trace.unattributed"],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from repro.domains import IntervalDomain

        from perfbench.spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer, IntervalDomain)

    with open(args.inputs, "rb") as handle:
        programs = pickle.load(handle)["sessions"][args.session]
    session = open_session(args.workload, programs, args.scratch)
    try:
        result: Dict[str, Any] = {"setup_s": time.monotonic() - args.t0}
        result.update(_timed(args, session, programs, tracer))
    finally:
        session.close()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


def _timed(args: argparse.Namespace, session: Session,
           programs: List[Dict[str, Any]], tracer: Any) -> Dict[str, Any]:
    """Run the timed rounds; everything after them is untimed."""
    from perfbench.spans import ROOT as ROOT_LAYER

    rounds = min(len(program["steps"]) for program in programs)
    clock = time.perf_counter
    latencies: List[float] = []
    answers: List[List[List[Any]]] = []
    work_before = session.work()
    intern_before = intern_counters()
    if tracer is not None:
        tracer.reset()
    for round_ in range(rounds):
        row = []
        for program in range(len(programs)):
            begun = clock()
            if tracer is None:
                row.append(session.step(round_, program))
            else:
                row.append(tracer.run(ROOT_LAYER, session.step, round_, program))
            latencies.append(clock() - begun)
            session.settle()
        answers.append(row)
    peak_rss = peak_rss_kb()
    work = session.work()
    work.subtract(work_before)
    intern = intern_counters()
    intern.subtract(intern_before)
    answers_path = args.out + ".answers.pickle"
    with open(answers_path, "wb") as handle:
        pickle.dump(answers, handle, protocol=4)
    result = {
        "latencies": latencies,
        "peak_rss_kb": peak_rss,
        "answers": answers_path,
        # Decode errors the engine counts, plus backend errors the store
        # swallows (set-up's cold sessions included).
        "store_errors": (work["interproc_store_errors"]
                         + session.work()["backend_errors"]),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, work, intern, len(latencies))
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
