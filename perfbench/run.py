"""Interactive-session benchmark: edit-to-answer latency, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload intra-interval --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --fingerprint                  # recompute README values

One run: load (or generate and cache) the seed's inputs, check the
reference seed's input fingerprint against ``perfbench/README.md``, draw a
``PYTHONHASHSEED`` for this run (``--hashseed`` replays one), then start
one ``session.py`` process per measured session, one after another, each
over its own seeded stream, and finally ``check.py`` on each session's
answers (the first of these also attempts the octagon fault
reproduction, once per run).  Every end-to-end metric is the median over
the sessions.  A session times a fixed number of steps, so ``--seconds``
does not change a run.  With ``--trace 1`` the first session is measured
untraced and then traced, and the per-layer metrics of the traced one
are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

WORKLOADS = ("intra-interval", "interproc-recursive", "warm-restart")
#: Longest any one child process may take, in seconds.
CHILD_TIMEOUT = 120

END_TO_END_UNITS = {"setup_s": "s", "steps_per_s": "steps/s",
                    "step_p50_ms": "ms", "step_p95_ms": "ms",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "lang.structure_s": "s/step",
    "lang.structure_full_builds": "count/step",
    "lang.structure_locs_reanalyzed": "count/step",
    "daig.build_s": "s/step",
    "daig.splice_s": "s/step",
    "daig.query_s": "s/step",
    "daig.cells_computed": "count/step",
    "daig.cells_reused": "count/step",
    "daig.cells_restored": "count/step",
    "daig.memo_hit_ratio": "ratio",
    "domains.transfer_s": "s/step",
    "domains.join_s": "s/step",
    "domains.widen_s": "s/step",
    "domains.transfers": "count/step",
    "intern.hit_ratio": "ratio",
    "interproc.self_s": "s/step",
    "interproc.fixpoint_rounds": "count/step",
    "interproc.summary_hit_ratio": "ratio",
    "interproc.callsite_dirties": "count/step",
    "interproc.engines_built": "count/step",
    "store.get_s": "s/step",
    "store.put_s": "s/step",
    "store.digest_s": "s/step",
    "store.hit_ratio": "ratio",
    "store.writes": "count/step",
    "trace.unattributed_s": "s/step",
    "trace.overhead_s": "s/step",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def readme_fingerprints() -> Dict[str, str]:
    path = os.path.join(HERE, "README.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return dict(re.findall(r"^fingerprint (\S+) seed \d+: ([0-9a-f]{16})$",
                           text, re.MULTILINE))


def check_reference_inputs(workload: str) -> None:
    """Fail if the generator no longer yields the recorded workload."""
    from perfbench import inputs

    recorded = readme_fingerprints().get(workload)
    actual = inputs.reference_fingerprint(workload)
    if recorded != actual:
        raise BenchmarkError(
            "workload %s changed: seed %d inputs have fingerprint %s, "
            "README.md records %s; if the change is intended, recompute with "
            "`python3 perfbench/run.py --fingerprint` and update README.md"
            % (workload, inputs.REFERENCE_SEED, actual, recorded))


def spawn(script: str, args: List[str], hashseed: int,
          t0: float = 0.0) -> None:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    command = [sys.executable, os.path.join(HERE, script)] + args
    if t0:
        command += ["--t0", repr(t0)]
    label = " ".join("%s=%s" % (key[2:], value)
                     for key, value in zip(args[::2], args[1::2])
                     if key in ("--workload", "--session", "--mode"))
    started = time.monotonic()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("%s %s timed out after %ds" % (
            script, label, exc.timeout))
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").splitlines()[-40:]
        raise BenchmarkError("%s %s failed (exit %d after %.1fs):\n%s" % (
            script, label, done.returncode,
            time.monotonic() - started, "\n".join(tail)))


def session(workload: str, index: int, mode: str, inputs_path: str,
            scratch: str, hashseed: int) -> Dict[str, Any]:
    out = os.path.join(scratch, "%s-%s-%d.json" % (workload, mode, index))
    args = ["--workload", workload, "--inputs", inputs_path,
            "--session", str(index), "--mode", mode,
            "--scratch", scratch, "--out", out]
    spawn("session.py", args, hashseed, t0=time.monotonic())
    with open(out) as handle:
        return json.load(handle)


def check(workload: str, seed: int, index: int, inputs_path: str,
          answers: str, scratch: str, hashseed: int,
          probe: bool) -> Dict[str, Any]:
    out = os.path.join(scratch, "%s-check-%d.json" % (workload, index))
    spawn("check.py", ["--workload", workload, "--seed", str(seed),
                       "--inputs", inputs_path, "--session", str(index),
                       "--answers", answers, "--out", out,
                       "--probe", str(int(probe))], hashseed)
    with open(out) as handle:
        return json.load(handle)


def session_metrics(measured: Dict[str, Any]) -> Dict[str, float]:
    latencies = measured["latencies"]
    return {
        "setup_s": measured["setup_s"],
        "steps_per_s": len(latencies) / sum(latencies),
        "step_p50_ms": statistics.median(latencies) * 1000.0,
        "step_p95_ms": statistics.quantiles(
            latencies, n=20, method="inclusive")[18] * 1000.0,
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
    }


def run_workload(workload: str, seed: int, trace: bool, scratch: str,
                 hashseed: Optional[int] = None) -> Dict[str, Any]:
    from perfbench import inputs

    check_reference_inputs(workload)
    rounds = inputs.rounds_for(workload)
    inputs.load(workload, seed, rounds)
    inputs_path = inputs.cache_path(workload, seed, rounds)
    if hashseed is None:
        hashseed = random.SystemRandom().randint(1, 2 ** 32 - 1)
    print("# %s seed=%d PYTHONHASHSEED=%d" % (workload, seed, hashseed))
    try:
        return _measure_and_check(workload, seed, trace, scratch, inputs,
                                  inputs_path, hashseed)
    except BenchmarkError as exc:
        raise BenchmarkError(
            "%s\nreplay: python3 perfbench/run.py --workload %s --seed %d "
            "--trace %d --hashseed %d" % (exc, workload, seed, int(trace),
                                          hashseed))


def _measure_and_check(workload: str, seed: int, trace: bool, scratch: str,
                       inputs: Any, inputs_path: str,
                       hashseed: int) -> Dict[str, Any]:
    def measure(index: int, mode: str) -> Dict[str, Any]:
        return session(workload, index, mode, inputs_path, scratch, hashseed)

    if trace:
        untraced = measure(0, "run")
        sessions = [measure(0, "trace")]
    else:
        sessions = [measure(index, "run") for index in range(inputs.SESSIONS)]
    verdicts = [check(workload, seed, index, inputs_path, measured["answers"],
                      scratch, hashseed, probe=index == 0)
                for index, measured in enumerate(sessions)]

    steps = sum(len(measured["latencies"]) for measured in sessions)
    attempted = 5 * steps + sum(v["probe_attempted"] for v in verdicts)
    failed = sum(v["probe_failed"] for v in verdicts)
    problems = [problem for v in verdicts for problem in v["mismatches"]]
    errors = sum(measured["store_errors"] for measured in sessions)
    if errors:
        problems.append("%d summary store errors" % errors)
    for problem in problems[:10]:
        print("# MISMATCH %s" % problem)

    if trace:
        traced = sessions[0]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (sum(traced["latencies"])
                                      - sum(untraced["latencies"])) / steps
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        per_session = [session_metrics(measured) for measured in sessions]
        values = {name: statistics.median(m[name] for m in per_session)
                  for name in per_session[0]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print("# %s %s = %.6g %s" % (workload, name, metric["value"],
                                      metric["unit"]))
    print("# %s sessions=%d steps=%d checked_steps=%d attempted=%d failed=%d"
          % (workload, len(sessions), steps,
             sum(v["checked_steps"] for v in verdicts), attempted, failed))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="ignored: a run times a fixed number of steps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hashseed", type=int, default=None,
                        help="replay a run under this PYTHONHASHSEED "
                        "(default: draw a fresh one)")
    parser.add_argument("--fingerprint", action="store_true",
                        help="print the reference seed's input fingerprints")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.fingerprint:
        from perfbench import inputs
        for workload in WORKLOADS:
            print("fingerprint %s seed %d: %s" % (
                workload, inputs.REFERENCE_SEED,
                inputs.reference_fingerprint(workload)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from perfbench.inputs import CACHE_DIR
    os.makedirs(CACHE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, bool(args.trace),
                                      scratch, args.hashseed)
                   for name in names}
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
