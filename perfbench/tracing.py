"""Span tracing from outside the package: each public function is replaced
by a timing wrapper in every module namespace that binds it.

A span is (function, parent span, start, end).  Spans stay in flat arrays
while the workload runs and are written out once it ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import symorbit
from symorbit import abdiagrams, cli, partitions, strata, verify

MODULES = (symorbit, partitions, abdiagrams, strata, verify, cli)
LAYERS = ("partitions", "abdiagrams", "strata", "verify", "cli")

# Layer functions the per-layer metrics name that the package does not
# re-export from its top level.
EXTRA_TARGETS = (strata.orbit_extremes, abdiagrams.a_count, abdiagrams.b_count, cli.main)

CACHED = ("enumerate_ortho", "a_partition", "b_partition", "decompose")
GAP_FUNCS = ("minimum_stratum_gap", "check_ci_condition", "check_normality_gap")
STAT_FUNCS = ("o_stat", "delta_stat", "a_count", "b_count")


def _public_functions() -> list:
    funcs = [obj for obj in vars(symorbit).values()
             if callable(obj) and not isinstance(obj, type)
             and getattr(obj, "__module__", "").startswith("symorbit.")]
    funcs.extend(EXTRA_TARGETS)
    return list({id(fn): fn for fn in funcs}.values())


class Tracer:
    """Install with ``Tracer()``; read results with ``metrics()``."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels_covered = 0
        self.labels_materialized = 0
        self.instances_checked = 0
        self._stack = [-1]
        self._caches = {name: getattr(abdiagrams, name) for name in CACHED}
        self._cache_before = {name: fn.cache_info() for name, fn in self._caches.items()}
        self._hooks = self._result_hooks()
        wrappers = {id(fn): self._wrap(fn) for fn in _public_functions()}
        for module in MODULES:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, fn):
        fid = len(self.names)
        layer = fn.__module__.rsplit(".", 1)[-1]
        self.names.append(f"{layer}.{fn.__name__}")
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        on_result = self._hooks.get(fn.__name__)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _result_hooks(self) -> dict:
        def covered(result):
            self.labels_covered += sum(s.count for s in result.values())

        def materialized(result):
            self.labels_materialized += len(result)

        def checked(result):
            self.instances_checked += result.instances_checked

        return {"orbit_extremes": covered, "enumerate_lambda": materialized,
                "run_suite": checked}

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"functions": self.names, "count": len(self.fid),
                  "arrays": ["fid:int32", "parent:int32", "start:float64", "end:float64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, cli_stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        n = len(self.fid)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[fids[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        for name in list(calls):
            layer = name.split(".", 1)[0]
            calls[layer] += calls[name]
            self_s[layer] += self_s[name]

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for fn in ("diff_stats", "dominates", "dual", "enumerate_below",
                   "degeneration_chain", "dominance_covers"):
            out[f"partitions.{fn}.calls"] = calls[f"partitions.{fn}"]
            out[f"partitions.{fn}.self_s"] = self_s[f"partitions.{fn}"]
        out["abdiagrams.stat_calls"] = sum(calls[f"abdiagrams.{fn}"] for fn in STAT_FUNCS)
        for fn in ("enumerate_ortho", "enumerate_all_diagrams", "aug_any"):
            out[f"abdiagrams.{fn}.self_s"] = self_s[f"abdiagrams.{fn}"]
        for name, fn in self._caches.items():
            info, before = fn.cache_info(), self._cache_before[name]
            hits, misses = info.hits - before.hits, info.misses - before.misses
            out[f"abdiagrams.{name}.cache_lookups"] = hits + misses
            out[f"abdiagrams.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for fn in ("orbit_extremes", "dim_stratum"):
            out[f"strata.{fn}.calls"] = calls[f"strata.{fn}"]
            out[f"strata.{fn}.self_s"] = self_s[f"strata.{fn}"]
        out["strata.enumerate_lambda.self_s"] = self_s["strata.enumerate_lambda"]
        # In billions, as a float: the label spaces pass 2**53 labels, where
        # a JSON integer would no longer read back exactly as a number.
        out["strata.labels_covered"] = self.labels_covered / 1e9
        out["strata.labels_materialized"] = self.labels_materialized
        out["verify.run_suite.calls"] = calls["verify.run_suite"]
        out["verify.gap_calls"] = sum(calls[f"verify.{fn}"] for fn in GAP_FUNCS)
        out["verify.instances_checked"] = self.instances_checked
        out["cli.stdout_bytes"] = cli_stdout_bytes
        return out
