"""The benchmark's workloads: each is a fixed list of ops, one public call each.

An op is a line of text, ``<kind> <arguments>``, which doubles as its id
in ``expected.json``.  The kinds are run by ``child.py``:

    suite <lemma> <n>        run_suite(lemma, n)
    run_all <n>              run_all(n)
    gap <bound> <lambda>     minimum_stratum_gap(lambda, bound)
    ci <bound> <lambda>      check_ci_condition(lambda, bound)
    nor <bound> <lambda>     check_normality_gap(lambda, bound)
    certify <k>              is_normal((k,), certify=True, bound=k)
    cli <argv...>            symorbit.cli.main(argv), stdout captured

Inputs are generated here, not by the package under test, so building
an op list neither uses nor warms the package's caches.  This module
imports nothing from ``symorbit``.
"""

from __future__ import annotations

import random

SUITE_N = 12
POSET_NS = range(14, 21)
GAP_BOUND = 13
CERTIFY_KS = (14, 15, 16)
STRATA_JSON_N = 7
STRATA_TEXT_N = 6
ORTHO_EQUIV_N = 14
MAXAB_N = 10

# Every workload's op list includes these three small ops.  Between them
# they call each function a per-layer metric names, so no per-layer time
# is zero merely because a workload never reaches that function.
PROBES = (
    "run_all 3",
    "cli poset 4 --format dot",
    "cli strata 2,1 --format json",
)

# Instance counts measured on the seed commit, checked apart from the
# digests: a report that disagrees fails its op.
PINNED_INSTANCES = {
    "suite qcr_identities 12": 99398,
    "suite diff_ind 12": 5492,
    "suite ortho_equiv 14": 7567,
    "suite comb_maxab 10": 2199,
}


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest first part first."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(cap, rest), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(n, n, ())
    return out


def is_s_step(lam: tuple[int, ...], s: int) -> bool:
    padded = lam + (0,)
    return all(a - b <= s for a, b in zip(padded, padded[1:]))


def lam_text(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def _suites_partition() -> list[str]:
    lemmas = ("diff_ind", "diff_usef", "qcr_identities", "comb_col",
              "comb_clem", "o_sums", "ci_codim")
    return ([f"suite {lemma} {SUITE_N}" for lemma in lemmas]
            + [f"cli poset {n} --format dot" for n in POSET_NS])


def _gap_dp() -> list[str]:
    ops = []
    for n in range(1, GAP_BOUND + 1):
        for lam in partitions(n):
            text = lam_text(lam)
            ops.append(f"gap {GAP_BOUND} {text}")
            if is_s_step(lam, 2):
                ops.append(f"ci {GAP_BOUND} {text}")
            if is_s_step(lam, 1):
                ops.append(f"nor {GAP_BOUND} {text}")
    return ops + [f"certify {k}" for k in CERTIFY_KS]


def _label_tables() -> list[str]:
    return ([f"cli strata {lam_text(lam)} --format json" for lam in partitions(STRATA_JSON_N)]
            + [f"cli strata {lam_text(lam)}" for lam in partitions(STRATA_TEXT_N)]
            + [f"suite ortho_equiv {ORTHO_EQUIV_N}",
               f"suite comb_maxab {MAXAB_N}",
               f"suite comb_maxab2 {MAXAB_N}"])


WORKLOADS = {
    "suites_partition": _suites_partition,
    "gap_dp": _gap_dp,
    "label_tables": _label_tables,
}

SIZES = {
    "suites_partition": {"suite_n": SUITE_N, "poset_n": [POSET_NS[0], POSET_NS[-1]]},
    "gap_dp": {"lambda_max": GAP_BOUND, "certify_k": list(CERTIFY_KS)},
    "label_tables": {"strata_json_n": STRATA_JSON_N, "strata_text_n": STRATA_TEXT_N,
                     "ortho_equiv_n": ORTHO_EQUIV_N, "comb_maxab_n": MAXAB_N},
}


def op_list(workload: str) -> list[str]:
    """The workload's ops in their fixed, seed-independent order."""
    return WORKLOADS[workload]() + list(PROBES)


def pass_order(workload: str, seed: int, pass_index: int) -> list[str]:
    """The ops of one pass, shuffled by the run's seed and the pass number.

    Each pass is a fresh interpreter, so the order decides which op pays
    for filling each cache.
    """
    ops = op_list(workload)
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(ops)
    return ops
