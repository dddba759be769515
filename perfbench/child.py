"""One fresh interpreter of the benchmark; run.py starts it and reads the
single JSON object it prints on stdout.

    child.py setup                                  import only
    child.py pass <workload> <seed> <pass> <trace>  one pass of a workload
    child.py reach <lemma> <n>                      one suite at one size

The package is imported first, so ``READY`` and ``READY_CPU`` mark the
end of set-up: interpreter start plus ``import symorbit`` and its CLI
module.  ``READY_CPU`` is the process's CPU time since it was created.

Ops are timed on the CPU clock of the child's one thread
(``SpeedProbe.clock``).  The package is single-threaded and does no I/O,
so an op's CPU time is its latency on an idle machine; unlike the wall
clock, it leaves out the time a shared host's scheduler keeps the
process off its CPU.  Every mode but ``reach`` also reports the
machine's slowdown against the reference speed (``speed.py``).
"""

import time

import symorbit
import symorbit.cli

READY = time.perf_counter()
READY_CPU = time.process_time()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import ops  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_out"


class HashSink:
    """Stands in for stdout: hashes what is written and keeps only its size."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self._hash.update(data)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def num4(value: Fraction | None) -> int | None:
    """A dimension or gap as its numerator over 4."""
    if value is None:
        return None
    quarters = value * 4
    if quarters.denominator != 1:
        raise ValueError(f"{value} is not a whole number of quarters")
    return quarters.numerator


def report_dict(report) -> dict:
    out = report.to_dict()
    del out["elapsed_s"]
    return out


def check_dict(check) -> dict:
    return {
        "lambda": list(check.lam),
        "status": check.status,
        "reason": check.reason,
        "instances": check.instances,
        "min_gap_num4": num4(check.min_gap),
        "counterexamples": check.counterexamples,
        "cases": check.cases,
        "flagged": check.flagged,
    }


def parse_lam(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def run_op(op: str, clock):
    """Run one op; returns (CPU seconds, output, problem or None, CLI stdout bytes).

    Only the public call is timed, on ``clock``; turning its result into
    the checked output happens after the clock stops.
    """
    kind, *args = op.split(" ")
    if kind == "cli":
        sink = HashSink()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            code = symorbit.cli.main(args)
        elapsed = clock() - t0
        problem = None if code == 0 else f"exit code {code}"
        return elapsed, {"exit": code, "stdout_sha256": sink.hexdigest()}, problem, sink.size
    if kind in ("suite", "run_all"):
        t0 = clock()
        if kind == "suite":
            reports = [symorbit.run_suite(args[0], int(args[1]))]
        else:
            reports = symorbit.run_all(int(args[0]))
        elapsed = clock() - t0
        problems = [f"{r.lemma_id} not ok" for r in reports if not r.ok]
        pinned = ops.PINNED_INSTANCES.get(op)
        if pinned is not None and reports[0].instances_checked != pinned:
            problems.append(f"{reports[0].instances_checked} instances, expected {pinned}")
        return elapsed, [report_dict(r) for r in reports], "; ".join(problems) or None, 0
    if kind == "gap":
        t0 = clock()
        gap = symorbit.minimum_stratum_gap(parse_lam(args[1]), int(args[0]))
        return clock() - t0, num4(gap), None, 0
    if kind in ("ci", "nor"):
        check = symorbit.check_ci_condition if kind == "ci" else symorbit.check_normality_gap
        t0 = clock()
        result = check(parse_lam(args[1]), int(args[0]))
        elapsed = clock() - t0
        return elapsed, check_dict(result), None if result.status == "ok" else result.status, 0
    if kind == "certify":
        k = int(args[0])
        t0 = clock()
        verdict = symorbit.is_normal((k,), certify=True, bound=k)
        elapsed = clock() - t0
        out = {"normal": verdict.normal, "witness": verdict.witness,
               "gap_num4": num4(verdict.gap_certificate)}
        return elapsed, out, None if verdict.gap_certificate is not None else "no certificate", 0
    raise ValueError(f"unknown op kind {kind!r}")


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload: str, seed: int, pass_index: int, trace: bool) -> dict:
    order = ops.pass_order(workload, seed, pass_index)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    results = []
    sample_spans = []
    cli_bytes = 0
    probe = SpeedProbe(timer=not trace)
    clock = probe.clock
    start, start_cpu = time.perf_counter(), clock()
    for op in order:
        probe.poll()
        first = len(probe.samples)
        t0 = clock()
        try:
            elapsed, output, problem, size = run_op(op, clock)
            output_digest = digest(output)
        except Exception as exc:  # a failing op is counted, not fatal
            elapsed, output_digest, problem, size = (
                clock() - t0, None, f"{type(exc).__name__}: {exc}", 0)
        sample_spans.append((first, len(probe.samples)))
        cli_bytes += size
        results.append([op, elapsed, output_digest, problem])
    end, end_cpu = time.perf_counter() - probe.spent, clock()
    out = {
        "wall_s": end - start,
        "cpu_s": end_cpu - start_cpu,
        "slowdown": probe.slowdown(),
        "ops": results,
        "op_slowdowns": [probe.local_slowdown(a, b) for a, b in sample_spans],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(cli_bytes)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload}.bin")
    return out


def run_reach(lemma: str, n: int) -> dict:
    """One suite at size n: through run_suite up to its cap, past it directly."""
    suite = symorbit.verify.SUITES[lemma]
    t0 = time.perf_counter()
    if n <= suite.cap:
        report = symorbit.run_suite(lemma, n)
        instances, ok = report.instances_checked, report.ok
    else:
        instances, counterexamples, _ = suite.runner(n)
        ok = not counterexamples
    return {"elapsed_s": time.perf_counter() - t0, "instances": instances, "ok": ok}


def main(argv: list[str]) -> int:
    src = (ROOT / "src").resolve()
    if not Path(symorbit.__file__).resolve().is_relative_to(src):
        print(f"symorbit was imported from {symorbit.__file__}, not from {src}", file=sys.stderr)
        return 2
    mode, *args = argv
    if mode == "setup":
        out = {"slowdown": SpeedProbe().slowdown()}
    elif mode == "pass":
        out = run_pass(args[0], int(args[1]), int(args[2]), args[3] == "1")
    elif mode == "reach":
        out = run_reach(args[0], int(args[1]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps({"ready": READY, "ready_cpu": READY_CPU, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
