"""Inputs of the three workloads, generated before any timing.

Each workload drives a small, fixed *corpus* of programs -- program ``j``
is grown by :mod:`repro.workload`'s generator from corpus seed ``j`` -- and
the run's ``--seed`` drives everything the user does to them: the timed
edits and the query sites.  A run measures ``SESSIONS`` independent
sessions over the corpus; session ``k``'s stream for program ``j`` comes
from generator seed ``"stream-<seed>-<k>-<j>"``.  Fixing the corpus keeps
one unlucky random program from deciding a run's figures; seeding the
streams keeps every run a different set of sessions.

Generation is slow (the generator refreshes CFG structure after every edit
to sample the next location), so it happens outside ``setup_s`` and the
results are cached under ``.perfbench-cache/`` in the checkout.  Cache keys
cover every source file of ``repro`` and this module, so a changed
generator never reuses stale inputs.

:func:`fingerprint` hashes what a workload *is* -- edit descriptions,
procedures and query sites -- so a change to the generator shows up as a
changed workload (``run.py`` checks the reference seed against the value in
``README.md``), not as a change of speed.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import pickle
from typing import Any, Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench-cache")

#: The seed whose fingerprints ``README.md`` records.
REFERENCE_SEED = 0

#: Measured sessions per run; ``run.py`` reports the median of each metric.
SESSIONS = 5

#: Workload shapes.  A session takes one timed step on each of ``programs``
#: corpus programs per round, for :func:`rounds_for` rounds.  ``grow``
#: edits build each corpus program (85/10/5 statement/if/loop inserts for
#: ``intra-interval``; the generator's multi-procedure mix otherwise).  In
#: multi-procedure streams a share ``statement_only`` of the timed edits
#: are statement relabels/deletes and the rest structural inserts (``None``:
#: the generator's own ``generate_multiprocedure`` mix); ``calls_in_steps``
#: says whether timed edits may add or rewrite calls (see README.md for why
#: the recursive workload's may not); ``cumulative`` whether each edit
#: lands on the previous step's program or on the grown program alone.
SHAPES: Dict[str, Dict[str, Any]] = {
    "intra-interval": {"programs": 8, "grow": 300},
    "interproc-recursive": {"programs": 16, "procedures": 5,
                            "recursive": True, "grow": 60,
                            "statement_only": 0.8, "calls_in_steps": False,
                            "cumulative": True},
    "warm-restart": {"programs": 8, "procedures": 8, "recursive": False,
                     "grow": 130, "statement_only": None,
                     "calls_in_steps": True, "cumulative": False},
}

#: Fewest timed steps in a session, so ten or more lie beyond its 95th
#: percentile.
MIN_STEPS = 200

#: A workload step that no seed changes: after step 7 of
#: ``generate_trials(edits=8, base_seed=3)`` a fresh octagon DaigEngine
#: answers these locations differently from ``repro.ai`` (see README.md).
OCTAGON_FAULT_TRIAL = {"edits": 8, "base_seed": 3}
OCTAGON_FAULT_LOCS = (14, 15, 20)


def _source_digest() -> str:
    """Digest of every ``repro`` source file and of this module."""
    paths = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src", "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths.extend(os.path.join(dirpath, name)
                     for name in sorted(filenames) if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _cache_file(name: str) -> str:
    return os.path.join(CACHE_DIR, "%s-%s.pickle" % (name, _source_digest()))


def _cached(name: str, make: Callable[[], Any]) -> Any:
    path = _cache_file(name)
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    value = make()
    os.makedirs(CACHE_DIR, exist_ok=True)
    partial = "%s.%d.tmp" % (path, os.getpid())
    with open(partial, "wb") as handle:
        pickle.dump(value, handle, protocol=4)
    os.replace(partial, path)
    return value


# -- corpus --------------------------------------------------------------------


def _grow_intra(seed: int, shape: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(seed=seed)
    growth = [step.edit for step in generator.generate(shape["grow"])]
    return {"program": generator.cfg.copy(), "growth": growth}


def _grow_multi(seed: int, shape: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workload import WorkloadGenerator

    grown = WorkloadGenerator(seed=seed).generate_multiprocedure(
        shape["grow"], procedures=shape["procedures"],
        recursive=shape["recursive"])
    cfgs = grown.fresh_cfgs()
    growth = [(step.procedure, step.edit) for step in grown.steps]
    for procedure, edit in growth:
        edit.apply_to_cfg(cfgs[procedure])
    return {"program": cfgs, "growth": growth}


def corpus(workload: str) -> List[Dict[str, Any]]:
    """The workload's fixed programs (independent of ``--seed``)."""
    shape = SHAPES[workload]
    grow = _grow_intra if workload == "intra-interval" else _grow_multi
    return _cached("corpus-%s" % workload,
                   lambda: [grow(j, shape) for j in range(shape["programs"])])


# -- timed streams -------------------------------------------------------------


def _stream_intra(program: Any, seed: str, rounds: int,
                  shape: Dict[str, Any]) -> List[Any]:
    """Further 85/10/5 inserts, five query locations after each."""
    from repro.workload import WorkloadGenerator

    generator = WorkloadGenerator(seed=seed)
    generator.cfg = program.copy()
    return [(step.edit, step.query_locations)
            for step in generator.generate(rounds)]


def _multiprocedure_mix() -> Dict[str, float]:
    """The edit mix ``generate_multiprocedure`` uses by default."""
    from repro.workload import WorkloadGenerator

    parameters = inspect.signature(
        WorkloadGenerator.generate_multiprocedure).parameters
    return {name: parameters[name].default
            for name in ("statement_only_fraction", "call_probability")}


def _edits_call(cfg: Any, edit: Any) -> bool:
    """Whether a statement-only edit rewrites a call statement."""
    from repro.lang import ast as A

    return any(isinstance(edge.stmt, A.CallStmt)
               for edge in cfg.out_edges(edit.location) if edge.dst == edit.dst)


def _stream_multi(program: Dict[str, Any], seed: str, rounds: int,
                  shape: Dict[str, Any]) -> List[Any]:
    """Edits mirroring ``generate_multiprocedure`` over the grown program,
    a share ``shape["statement_only"]`` of them statement-only, five
    (procedure, location) sites after each.  Edits
    accumulate if ``shape["cumulative"]``; otherwise each one applies to the
    grown program alone."""
    from repro.lang import ast as A
    from repro.workload import WorkloadGenerator

    mix = _multiprocedure_mix()
    statement_only = shape["statement_only"]
    if statement_only is None:
        statement_only = mix["statement_only_fraction"]
    generator = WorkloadGenerator(seed=seed)
    generator.variables = generator.variables + [A.RETURN_VARIABLE]
    cfgs = {name: cfg.copy() for name, cfg in program.items()}
    names = list(cfgs)
    entry = names[0]
    steps = []
    for _ in range(rounds):
        procedure = generator.rng.choice(names)
        generator.cfg = cfgs[procedure]
        generator.call_targets = tuple(
            (name, 1) for name in names
            if name != entry
            and (shape["recursive"] or names.index(name) > names.index(procedure)))
        generator.call_probability = (
            mix["call_probability"]
            if generator.call_targets and shape["calls_in_steps"] else 0.0)
        if generator.rng.random() < statement_only:
            edit = generator.next_statement_only_edit()
            while not shape["calls_in_steps"] and _edits_call(cfgs[procedure], edit):
                edit = generator.next_statement_only_edit()
        else:
            edit = generator.next_edit()
        edit.apply_to_cfg(cfgs[procedure])
        sites = []
        for _ in range(generator.queries_per_edit):
            site_proc = generator.rng.choice(names)
            site_cfg = cfgs[site_proc]
            sites.append((site_proc, generator.rng.choice(
                site_cfg.insertion_points() + [site_cfg.exit])))
        steps.append((procedure, edit, tuple(sites)))
        if not shape["cumulative"]:
            cfgs[procedure] = program[procedure].copy()
    return steps


def rounds_for(workload: str) -> int:
    """How many rounds each session times: the fewest that make
    ``MIN_STEPS`` steps."""
    return math.ceil(MIN_STEPS / SHAPES[workload]["programs"])


def generate(workload: str, seed: int, rounds: int) -> Dict[str, Any]:
    """The workload's inputs for ``seed`` (deterministic): per session and
    corpus program, its grown code, the edits that grew it, and ``rounds``
    timed steps.  A stream is a prefix of every longer stream of the same
    seed."""
    stream = _stream_intra if workload == "intra-interval" else _stream_multi
    return {"sessions": [[
        dict(entry, steps=stream(entry["program"],
                                 "stream-%d-%d-%d" % (seed, k, j),
                                 rounds, SHAPES[workload]))
        for j, entry in enumerate(corpus(workload))]
        for k in range(SESSIONS)]}


def _inputs_name(workload: str, seed: int, rounds: int) -> str:
    return "inputs-%s-%d-%d" % (workload, seed, rounds)


def cache_path(workload: str, seed: int, rounds: int) -> str:
    """Where :func:`load` caches these inputs."""
    return _cache_file(_inputs_name(workload, seed, rounds))


def load(workload: str, seed: int, rounds: int) -> Dict[str, Any]:
    """The inputs from the cache, generating and caching them on a miss."""
    return _cached(_inputs_name(workload, seed, rounds),
                   lambda: generate(workload, seed, rounds))


def reference_fingerprint(workload: str) -> str:
    """The fingerprint ``README.md`` records for ``workload``."""
    return fingerprint(load(workload, REFERENCE_SEED, rounds_for(workload)))


def fingerprint(inputs: Dict[str, Any]) -> str:
    """A digest of edit descriptions, procedures and query sites."""
    digest = hashlib.sha256()

    def feed(*parts: Any) -> None:
        digest.update(repr(parts).encode("utf-8"))

    programs = [(k, j, program)
                for k, session in enumerate(inputs["sessions"])
                for j, program in enumerate(session)]
    for session, index, program in programs:
        feed("program", session, index)
        code = program["program"]
        for name, cfg in sorted(code.items() if isinstance(code, dict)
                                else [(code.name, code)]):
            feed("procedure", name, tuple(cfg.params))
        for item in program["growth"]:
            if isinstance(item, tuple):
                feed("grow", item[0], item[1].describe())
            else:
                feed("grow", item.describe())
        for step in program["steps"]:
            if len(step) == 2:
                feed("step", step[0].describe(), tuple(step[1]))
            else:
                feed("step", step[0], step[1].describe(), tuple(step[2]))
    return digest.hexdigest()[:16]


def octagon_fault_program() -> Any:
    """The CFG of the seed-independent octagon fault reproduction."""
    from repro.lang import ast as A
    from repro.lang.cfg import Cfg
    from repro.workload import generate_trials

    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    for step in generate_trials(OCTAGON_FAULT_TRIAL["edits"], 1,
                                OCTAGON_FAULT_TRIAL["base_seed"])[0]:
        step.edit.apply_to_cfg(cfg)
    return cfg
