"""Check a session's answers against computations made apart from it.

Runs in its own process, after the measured session has ended, so no
check ever feeds the timed engine's memo or intern tables.  A seeded
sample of steps is checked (``SAMPLE`` per session); for each sampled step
the program is rebuilt by replaying the same edits on plain CFGs.

* ``intra-interval`` -- every sampled answer must be ``domain.equal`` to
  the batch interpreter ``repro.ai.analyze_cfg`` on that step's program
  (Theorems 6.1 and 6.3).  With ``--probe 1`` (once per run) it also
  attempts the seed-independent octagon fault reproduction (README.md):
  a fresh octagon DaigEngine against ``repro.ai`` at three fixed
  locations.  Its differing answers are the run's ``failed`` queries.
* ``interproc-recursive`` / ``warm-restart`` -- every sampled answer must
  equal a from-scratch storeless InterproceduralEngine on the same code,
  queried at the same sites in the same order.

Writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.inputs import SHAPES  # noqa: E402

#: Sampled steps per session.
SAMPLE = 8


def sample_steps(workload: str, seed: int, session: int, rounds: int,
                 programs: int) -> List[Tuple[int, int]]:
    """The seeded sample of (round, program) steps to check."""
    steps = [(r, p) for r in range(rounds) for p in range(programs)]
    rng = random.Random("check-%s-%d-%d" % (workload, seed, session))
    return sorted(rng.sample(steps, min(SAMPLE, len(steps))))


def check_intra(programs: List[Dict[str, Any]], answers: List[List[List[Any]]],
                chosen: List[Tuple[int, int]]) -> List[str]:
    from repro.ai import analyze_cfg
    from repro.domains import IntervalDomain

    domain = IntervalDomain()
    mismatches = []
    for index, program in enumerate(programs):
        wanted = {r for r, p in chosen if p == index}
        if not wanted:
            continue
        cfg = program["program"].copy()
        for round_ in range(max(wanted) + 1):
            edit, locations = program["steps"][round_]
            edit.apply_to_cfg(cfg)
            if round_ not in wanted:
                continue
            invariants = analyze_cfg(cfg, domain)
            for loc, got in zip(locations, answers[round_][index]):
                expected = invariants.get(loc, domain.bottom())
                if not domain.equal(got, expected):
                    mismatches.append("program %d round %d loc %d: %s != %s"
                                      % (index, round_, loc, got, expected))
    return mismatches


def check_interproc(programs: List[Dict[str, Any]],
                    answers: List[List[List[Any]]],
                    chosen: List[Tuple[int, int]],
                    cumulative: bool) -> List[str]:
    from repro.domains import IntervalDomain
    from repro.interproc import InterproceduralEngine, policy_by_name

    from perfbench.session import POLICY

    domain = IntervalDomain()
    mismatches = []
    for index, program in enumerate(programs):
        wanted = {r for r, p in chosen if p == index}
        if not wanted:
            continue
        cfgs = {name: cfg.copy() for name, cfg in program["program"].items()}
        for round_ in range(max(wanted) + 1):
            procedure, edit, sites = program["steps"][round_]
            if not cumulative:
                cfgs = {name: cfg.copy()
                        for name, cfg in program["program"].items()}
            edit.apply_to_cfg(cfgs[procedure])
            if round_ not in wanted:
                continue
            fresh = InterproceduralEngine(
                {name: cfg.copy() for name, cfg in cfgs.items()},
                domain, policy_by_name(POLICY))
            for (name, loc), got in zip(sites, answers[round_][index]):
                expected = fresh.query(name, loc)
                if not domain.equal(got, expected):
                    mismatches.append("program %d round %d %s@%d: %s != %s"
                                      % (index, round_, name, loc, got, expected))
    return mismatches


def octagon_fault_probe() -> Tuple[int, int]:
    """Attempt the octagon fault reproduction; returns ``(queries
    attempted, queries whose answer differs from repro.ai)``."""
    from repro.ai import analyze_cfg
    from repro.daig import DaigEngine
    from repro.domains import OctagonDomain

    from perfbench.inputs import OCTAGON_FAULT_LOCS, octagon_fault_program

    program = octagon_fault_program()
    domain = OctagonDomain()
    invariants = analyze_cfg(program, domain)
    engine = DaigEngine(program.copy(), domain)
    failed = sum(not domain.equal(engine.query_location(loc), invariants[loc])
                 for loc in OCTAGON_FAULT_LOCS)
    return len(OCTAGON_FAULT_LOCS), failed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0,
                        help="also attempt the octagon fault reproduction")
    args = parser.parse_args(argv)

    with open(args.inputs, "rb") as handle:
        programs = pickle.load(handle)["sessions"][args.session]
    with open(args.answers, "rb") as handle:
        answers = pickle.load(handle)
    chosen = sample_steps(args.workload, args.seed, args.session,
                          len(answers), len(programs))
    result: Dict[str, Any] = {
        "checked_steps": len(chosen),
        "probe_attempted": 0,
        "probe_failed": 0,
    }
    if args.workload == "intra-interval":
        mismatches = check_intra(programs, answers, chosen)
        if args.probe:
            result["probe_attempted"], result["probe_failed"] = (
                octagon_fault_probe())
    else:
        mismatches = check_interproc(programs, answers, chosen,
                                     SHAPES[args.workload]["cumulative"])
    result["mismatches"] = mismatches
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
