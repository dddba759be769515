"""Benchmark of the symorbit package: fresh-process workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gap_dp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --record    # rewrite expected.json from one pass
    python3 perfbench/run.py --reach     # rewrite reach.json (information only)

A run repeats passes of one workload until ``--seconds`` have passed.  A
pass is one fresh interpreter (``child.py``) that imports the package
from ``src`` and runs the workload's ops (``ops.py``) one after another,
each starting when the previous one returns: a closed loop with one
client.  The seed and the pass number fix the op order.  Every op's
output is hashed and compared with ``expected.json``.

With ``--trace 0`` the result reports the end-to-end metrics of the
untraced passes.  With ``--trace 1`` untraced and traced passes alternate
(``tracing.py``), and the result reports per-layer metrics of the traced
passes plus the tracing overhead.  The last line of stdout is the result;
the line before it records the environment, sizes and digests.

Times are CPU times of the child, divided by the slowdown of the pass
they were taken in (``speed.py``): seconds at a fixed reference speed,
so that the drift of a shared host's speed does not read as a change in
the package.  The line before the result also gives the wall time and
the raw CPU time of a pass, and the median slowdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
REACH = HERE / "reach.json"

RUN_LIMIT_S = 170  # every run ends inside 180 s, children included
SETUP_PROBES = 3  # import-only children before each pass, added to the set-up samples
MIN_PASSES = 4  # untraced passes in a --trace 0 run, however short --seconds is
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REACH_BUDGET_S = 10.0
REACH_MEMORY_BYTES = 1 << 30
REACH_MAX_N = 64  # the package's partition size bound


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ORBIT_LAMBDA_BOUND", None)  # it changes what certify and enumerate accept
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], timeout: float, preexec_fn=None) -> dict:
    """Run child.py once; its JSON result plus its set-up time.

    ``setup_s`` is the child's CPU time until the package was imported,
    at the reference speed; ``setup_wall_s`` is the wall time from spawn
    to the same point, as measured.
    """
    if timeout <= 0:
        raise BenchError(f"no time left for child {args}")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout, preexec_fn=preexec_fn,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if "slowdown" in out:
        out["setup_s"] = out["ready_cpu"] / out["slowdown"]
    out["setup_wall_s"] = out["ready"] - start  # both clocks are CLOCK_MONOTONIC
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha}


def workload_digest(digests: dict[str, str]) -> str:
    """Digest of a pass's outputs; sorting by op makes it independent of order."""
    text = "".join(f"{op}={d}\n" for op, d in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail_level(workload: str) -> float:
    """The highest level in TAIL_LEVELS with ten samples beyond it in MIN_PASSES passes.

    The level is fixed per workload rather than per run, so that a run
    with one pass more than another reports the same percentile.
    """
    n = len(ops.op_list(workload)) * MIN_PASSES
    for level in TAIL_LEVELS:
        if n - math.ceil(level / 100 * n) >= 10:
            return level
    raise BenchError(f"{workload} has too few ops for a tail percentile")


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(level / 100 * len(ordered)) - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    setups: list[float] = []
    setups_wall: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    index = 0
    while (time.perf_counter() - start < seconds
           or len(plain) < (1 if trace else MIN_PASSES)
           or (trace and not traced)):
        use_trace = trace and index % 2 == 1
        probes = [spawn(["setup"], remaining()) for _ in range(SETUP_PROBES)]
        out = spawn(["pass", workload, str(seed), str(index), "1" if use_trace else "0"],
                    remaining())
        (traced if use_trace else plain).append(out)
        setups.extend(p["setup_s"] for p in probes + [out])
        setups_wall.extend(p["setup_wall_s"] for p in probes + [out])
        index += 1

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {"ops": {}, "workloads": {}}
    failures = []
    attempted = 0
    digests: dict[str, str] = {}
    for out in plain + traced:
        for op, _elapsed, digest, problem in out["ops"]:
            attempted += 1
            want = expected["ops"].get(op)
            if problem is None and digest != want:
                problem = f"digest {digest}, expected {want}"
            if problem is not None:
                failures.append(f"{op}: {problem}")
            digests.setdefault(op, digest)
    digest = workload_digest(digests)
    want_digest = expected["workloads"].get(workload)
    correct = not failures and digest == want_digest

    # Each op's CPU time over the slowdown measured around it.
    latencies = [elapsed / slowdown for out in plain
                 for (_op, elapsed, _d, _p), slowdown in zip(out["ops"], out["op_slowdowns"])]
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), **environment(),
        "sizes": ops.SIZES[workload], "probes": list(ops.PROBES),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": len(ops.op_list(workload)), "op_count": len(latencies),
        "fail_frac": len(failures) / attempted,
        "digest": digest, "expected_digest": want_digest, "failures": failures[:10],
        "wall_s": statistics.fmean(out["wall_s"] for out in plain),
        "raw_cpu_s": statistics.fmean(out["cpu_s"] for out in plain),
        "slowdown": statistics.median(out["slowdown"] for out in plain),
        "setup_wall_s": statistics.median(setups_wall),
    }
    # Times at the reference speed (speed.py): each pass's CPU times over
    # its slowdown.  The mean over passes weighs every second alike.
    cpu = statistics.fmean(out["cpu_s"] / out["slowdown"] for out in plain)
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(out["layers"][name] for out in traced)
        layers["trace.overhead_frac"] = (
            statistics.fmean(out["cpu_s"] / out["slowdown"] for out in traced) / cpu - 1)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        level = tail_level(workload)
        info["tail_percentile"] = level
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (cpu, "s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_tail_ms": (percentile(latencies, level) * 1000, "ms"),
            "peak_rss_mb": (statistics.median(out["maxrss_kb"] for out in plain) / 1024, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_ratio", "overhead_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "strata.labels_covered":
        return "Gcount"
    return "count"


def record() -> None:
    """Rewrite expected.json from one untraced pass of every workload."""
    expected = {"ops": {}, "workloads": {}}
    for workload in ops.WORKLOADS:
        out = spawn(["pass", workload, "0", "0", "0"], RUN_LIMIT_S)
        problems = [f"{op}: {p}" for op, _e, _d, p in out["ops"] if p is not None]
        if problems:
            raise BenchError(f"{workload} has failing ops, not recording: {problems[:5]}")
        digests = {op: d for op, _e, d, _p in out["ops"]}
        expected["ops"].update(digests)
        expected["workloads"][workload] = workload_digest(digests)
    expected["ops"] = dict(sorted(expected["ops"].items()))
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(json.dumps(expected["workloads"]))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (REACH_MEMORY_BYTES, REACH_MEMORY_BYTES))


def reach() -> None:
    """For each suite, the largest n that finishes clean within the budget.

    Each attempt is a fresh interpreter; n climbs from the suite's default
    until an attempt runs out of time or memory, or finds a counterexample.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from symorbit.verify import SUITES

    suites = {}
    for lemma, suite in SUITES.items():
        best = None
        stop = "size bound"
        for n in range(suite.default_n, REACH_MAX_N + 1):
            try:
                out = spawn(["reach", lemma, str(n)], REACH_BUDGET_S, _limit_memory)
            except subprocess.TimeoutExpired:
                stop = "time budget"
                break
            except BenchError:
                stop = "error or memory limit"
                break
            if not out["ok"]:
                stop = "counterexample"
                break
            best = {"n": n, "elapsed_s": round(out["elapsed_s"], 3),
                    "instances": out["instances"]}
        suites[lemma] = {"cap": suite.cap, "reach": best, "stopped_by": stop}
        print(lemma, suites[lemma], file=sys.stderr)
    report = {"budget_s": REACH_BUDGET_S, "memory_limit_bytes": REACH_MEMORY_BYTES,
              **environment(), "suites": suites}
    REACH.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--reach", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symorbit" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'symorbit'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
        elif args.reach:
            reach()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(info))
            print(json.dumps(result))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
