"""Decision rule, per-partition checks, and the lemma suite harness."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

import symorbit.verify as verify
from symorbit import abdiagrams, partitions, strata
from symorbit.partitions import enumerate_partitions, s_step
from symorbit.verify import (
    SUITES,
    StrataCheck,
    check_ci_condition,
    check_normality_gap,
    is_normal,
    minimum_stratum_gap,
    normality_witness,
    run_all,
    run_suite,
)


# instances_checked and extras of every suite at n = 6
PINNED_AT_6 = {
    "diff_ind": (88, None),
    "diff_usef": (53, None),
    "qcr_identities": (515, None),
    "comb_col": (117, None),
    "o_sums": (117, None),
    "comb_maxab": (587, None),
    "comb_maxab2": (14, None),
    "comb_clem": (117, None),
    "comb_big": (1295, None),
    "comb_bigr": (113, None),
    "ci_codim": (29, None),
    "ci_majineq": (89, {"partitions_checked": 21}),
    "nor_gap": (19, {
        "partitions_checked": 13,
        "cases": {"general_bound": 6, "q1c1": 8, "q1c2": 1, "q2c2": 4},
        "general_bound_orbits": 2,
        "general_bound_quarter_short": 1,
    }),
    "ortho_equiv": (139, None),
}


class TestIsNormal:
    def test_examples(self):
        v = is_normal((2,))
        assert not v.normal and v.witness == 1
        assert is_normal((2, 1)).normal
        assert is_normal((1, 1, 1)).normal
        assert is_normal(()).normal

    def test_witness_is_first_big_drop(self):
        assert normality_witness((3, 1)) == 1
        assert normality_witness((2, 2)) == 2
        assert normality_witness((3, 3, 2, 1, 1)) is None

    def test_matches_step_predicate(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert is_normal(lam).normal == s_step(lam, 1)

    def test_certificate(self):
        v = is_normal((2, 1), certify=True)
        assert v.gap_certificate == 2
        assert is_normal((1, 1), certify=True).gap_certificate is None
        assert is_normal((2, 1)).gap_certificate is None

    def test_certificate_skipped_beyond_bound(self):
        v = is_normal((13,), certify=True)  # |lam| = 13 > default bound 12
        assert v.gap_certificate is None and not v.normal


def _distinct_part_counts(n_max):
    """q(n) for n <= n_max, the partitions of n into distinct parts, read
    off the product of (1 + x^k) over k = 1..n_max."""
    q = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for n in range(n_max, k - 1, -1):
            q[n] += q[n - k]
    return q


class TestDecisionRuleAgainstGaps:
    def test_normal_iff_gap_at_least_two(self):
        """Observed for every 1 <= |lam| <= 12: the 1-step verdict agrees with
        the stratum gaps, which the column fold computes independently of
        the step test; lam is normal exactly when every other stratum sits
        at least 2 below the top one, and a non-normal lam has a gap <= 1.
        The normal partitions of n are the transposes of the partitions of
        n into distinct parts, so there are q(n) of them."""
        q = _distinct_part_counts(12)
        assert q[1:] == [1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]
        for n in range(1, 13):
            normal = 0
            for lam in enumerate_partitions(n):
                gap = minimum_stratum_gap(lam, n)
                verdict = is_normal(lam).normal
                normal += verdict
                if lam == (1,) * n:
                    assert gap is None and verdict
                    continue
                assert gap is not None, lam
                assert verdict == (gap >= 2), (lam, gap)
                assert verdict or gap <= 1, (lam, gap)
            assert normal == q[n], n


class TestMinimumGap:
    def test_values(self):
        assert minimum_stratum_gap((2, 1)) == 2
        assert minimum_stratum_gap((1, 1)) is None
        assert minimum_stratum_gap((2,)) == 1

    def test_empty_partition_has_no_gap(self):
        # like (1^n), the empty partition has no other orbit, so every gap
        # entry point answers alike: no gap, no certificate, a skipped check
        assert minimum_stratum_gap(()) is None
        assert minimum_stratum_gap([]) is None
        assert is_normal((), certify=True).gap_certificate is None
        assert check_normality_gap(()).status == check_ci_condition(()).status == "skipped"

    def test_fraction_valued(self):
        for lam in [(2, 1), (2,), (3, 1), (4, 2, 1), (5,)]:
            assert isinstance(minimum_stratum_gap(lam), Fraction)


# sha256 of the gap path for every lam with 14 <= |lam| <= 18, past the
# benchmark's |lam| <= 13: (lam, gap4) per lam, then (status, instances,
# min_gap4) of check_ci_condition for a 2-step lam and (status, instances,
# min_gap4, cases, flagged count) of check_normality_gap for a 1-step
# lam, gaps in quarter-units.  Taken when each call built two specs,
# recounted every column's letters and kept its top as a Fraction.
GAP_PATH_14_TO_18 = "72acf656946aa9aa310f7d8b672a4a17dcc52977d53a37ca63bff0161bbdf71c"


def test_gap_path_past_benchmark_sizes():
    def num4(gap):
        return None if gap is None else int(gap * 4)

    rows = []
    for n in range(14, 19):
        for lam in enumerate_partitions(n):
            rows.append((lam, num4(minimum_stratum_gap(lam, 18))))
            if s_step(lam, 2):
                r = check_ci_condition(lam, 18)
                rows.append((r.status, r.instances, num4(r.min_gap)))
            if s_step(lam, 1):
                r = check_normality_gap(lam, 18)
                rows.append((r.status, r.instances, num4(r.min_gap), r.cases, len(r.flagged)))
    assert len(rows) == 1848
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GAP_PATH_14_TO_18


@pytest.mark.parametrize("call, lam", [(minimum_stratum_gap, (5, 3, 1)),
                                       (check_ci_condition, (5, 3, 1)),
                                       (check_normality_gap, (4, 3, 2, 1))],
                         ids=["minimum_stratum_gap", "check_ci_condition", "check_normality_gap"])
def test_one_spec_per_gap_call(monkeypatch, call, lam):
    # the top stratum and the orbits below share one spec of lam
    built = []
    spec = strata.strata_spec

    def counted(arg):
        built.append(arg)
        return spec(arg)

    monkeypatch.setattr(strata, "strata_spec", counted)
    monkeypatch.setattr(verify, "strata_spec", counted)
    result = call(lam)
    assert result is not None and getattr(result, "status", "ok") == "ok"
    assert built == [lam]


class TestCiCondition:
    def test_two_strata_example(self):
        result = check_ci_condition((2, 1))
        assert result.status == "ok"
        assert result.instances == 1
        assert result.min_gap == 2

    def test_single_row_two(self):
        result = check_ci_condition((2,))
        assert result.status == "ok"
        assert result.min_gap >= Fraction(1, 4)

    def test_skips_when_not_two_step(self):
        result = check_ci_condition((4, 1))
        assert result.status == "skipped"
        assert "2-step" in result.reason

    def test_skips_empty_partition(self):
        result = check_ci_condition(())
        assert (result.status, result.reason) == ("skipped", "empty partition")
        assert (result.instances, result.min_gap, result.counterexamples) == (0, None, [])
        assert result.ok

    def test_ok_is_not_failed(self):
        assert check_ci_condition((2, 1)).ok and check_ci_condition((4, 1)).ok
        failed = StrataCheck((2,), "failed", None, 1, Fraction(0), [{"mu": [1, 1]}])
        assert not failed.ok

    def test_strict_for_all_two_step(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                if not s_step(lam, 2):
                    continue
                result = check_ci_condition(lam)
                assert result.status == "ok"
                assert result.min_gap is None or result.min_gap > 0


class TestNormalityGap:
    def test_two_strata_example(self):
        result = check_normality_gap((2, 1))
        assert result.status == "ok"
        assert result.min_gap == 2
        assert result.cases == {"q1c1": 1}

    def test_vacuous(self):
        result = check_normality_gap((1, 1))
        assert result.status == "ok"
        assert result.instances == 0 and result.min_gap is None

    def test_staircase(self):
        result = check_normality_gap((3, 2, 1))
        assert result.status == "ok"
        assert result.min_gap >= 2

    def test_skips_when_not_one_step(self):
        result = check_normality_gap((3, 1))
        assert result.status == "skipped"

    def test_skips_empty_partition(self):
        result = check_normality_gap(())
        assert (result.status, result.reason) == ("skipped", "empty partition")
        assert (result.instances, result.min_gap, result.cases) == (0, None, None)
        assert result.ok

    def test_uncovered_case_is_recorded(self, monkeypatch):
        # c >= q makes the three routes exhaustive; a (q, c) fitting none
        # is a counterexample, with its orbit's first worst label
        monkeypatch.setattr(verify, "_row_stats",
                            lambda lam, mu: partitions.DiffStats(q=2, c=1, r=3))
        result = check_normality_gap((2, 1))
        assert (result.status, result.instances, result.min_gap) == ("failed", 1, 2)
        assert (result.cases, result.flagged) == ({"uncovered": 1}, [])
        assert result.counterexamples == [{
            "lambda": [2, 1], "tau": ["a/a/a/b", "a"], "mu": [1, 1, 1], "gap_num4": 8,
            "problem": "case coverage", "q": 2, "c": 1, "r": 3,
        }]

    def test_gap_at_least_two_for_all_one_step(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                if not s_step(lam, 1):
                    continue
                result = check_normality_gap(lam)
                assert result.status == "ok"
                assert result.min_gap is None or result.min_gap >= 2


class TestRunSuite:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_over_cap(self):
        with pytest.raises(ValueError):
            run_suite("comb_big", 10)
        with pytest.raises(ValueError):
            run_suite("diff_ind", 13)

    def test_negative_n_max(self):
        for lemma_id in ("diff_ind", "comb_big"):
            with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
                run_suite(lemma_id, -1)

    def test_all_suites_pass_small(self):
        for lemma_id in SUITES:
            report = run_suite(lemma_id, 6)
            assert report.ok, (lemma_id, report.counterexamples[:2])
            assert report.instances_checked > 0
            assert report.n_range[1] == 6
            assert (report.instances_checked, report.extras) == PINNED_AT_6[lemma_id]

    def test_qcr_c_below_q_recorded(self, monkeypatch):
        # q raised to c + 1 on every strict pair: "c < q" is the only record
        qcr = verify._qcr
        monkeypatch.setattr(verify, "_qcr", lambda table, i, j: (
            qcr(table, i, j)[1] + (i != j), *qcr(table, i, j)[1:]))
        report = run_suite("qcr_identities", 3)
        assert report.counterexamples == [
            {"lambda": [2], "mu": [1, 1], "problem": "c < q"},
            {"lambda": [3], "mu": [2, 1], "problem": "c < q"},
            {"lambda": [3], "mu": [1, 1, 1], "problem": "c < q"},
            {"lambda": [2, 1], "mu": [1, 1, 1], "problem": "c < q"},
        ]

    def test_known_instance_counts(self):
        # all alternating-row multisets with at most 8 letters
        assert run_suite("ortho_equiv", 8).instances_checked == 434
        # one label per partition of each size up to 6
        assert run_suite("ci_codim", 6).instances_checked == sum(
            len(enumerate_partitions(n)) for n in range(1, 7)
        )

    def test_label_suites_at_cap(self):
        for lemma_id, n, count in (("qcr_identities", 12, 99398),
                                   ("comb_big", 9, 2213678), ("comb_bigr", 9, 6833)):
            report = run_suite(lemma_id, n)
            assert report.ok and report.instances_checked == count

    def test_s_step_suites_at_cap(self):
        nor_gap_extras = {
            "partitions_checked": 32,
            "cases": {"general_bound": 95, "q1c1": 30, "q1c2": 7, "q2c2": 22},
            "general_bound_orbits": 26,
            "general_bound_quarter_short": 3,
        }
        for lemma_id, count, extras in (("ci_majineq", 1454, {"partitions_checked": 59}),
                                        ("nor_gap", 154, nor_gap_extras)):
            report = run_suite(lemma_id, 9)
            assert report.ok and (report.instances_checked, report.extras) == (count, extras)

    def test_orbit_suites_past_cap(self):
        # the runners themselves, as run_suite refuses n above the cap of 9
        assert SUITES["comb_big"].runner(12) == (44730868881, [], None)
        assert SUITES["comb_bigr"].runner(12) == (3135128, [], None)

    def test_augmentation_suites_at_cap(self):
        for lemma_id, count in (("comb_maxab", 2199), ("comb_maxab2", 43)):
            report = run_suite(lemma_id, 10)
            assert report.ok and report.instances_checked == count

    def test_deterministic_reports(self):
        for lemma_id in ("diff_usef", "comb_big", "nor_gap", "ortho_equiv"):
            first = run_suite(lemma_id, 6).to_dict()
            second = run_suite(lemma_id, 6).to_dict()
            first.pop("elapsed_s")
            second.pop("elapsed_s")
            assert first == second

    def test_counterexample_cap(self, monkeypatch):
        # start_n = default_n = 5, so the space runs for one size only
        fake = verify._Suite(lambda n: ((i,) for i in range(25)), lambda i: [{"index": i}],
                             5, 5, 5, "fake suite", covers=lambda i: 2)
        monkeypatch.setitem(SUITES, "fake", fake)
        report = run_suite("fake")
        assert len(report.counterexamples) == 10
        assert report.extras["counterexamples_total"] == 25
        full = run_suite("fake", max_counterexamples=10**9)
        assert len(full.counterexamples) == 25

    def test_counterexample_cap_below_one(self, monkeypatch):
        calls = []

        def space(n):
            calls.append(n)
            return ((i,) for i in range(4))

        fake = verify._Suite(space, lambda i: [{"index": i}], 5, 5, 5, "fake suite",
                             covers=lambda i: 2)
        monkeypatch.setitem(SUITES, "fake", fake)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="max_counterexamples"):
                run_suite("fake", max_counterexamples=cap)
            with pytest.raises(ValueError, match="max_counterexamples"):
                run_all(3, max_counterexamples=cap)
        assert calls == []
        report = run_suite("fake", max_counterexamples=1)
        assert not report.ok and report.extras == {"counterexamples_total": 4}

    def test_run_all_clamps(self):
        reports = run_all(10)
        assert [r.lemma_id for r in reports] == list(SUITES)
        by_id = {r.lemma_id: r for r in reports}
        assert by_id["comb_big"].n_range[1] == 9  # clamped to its cap
        assert by_id["diff_ind"].n_range[1] == 10
        assert all(r.ok for r in reports)


def _monotone(values):
    up = tuple(sorted(values))
    return values == up or values == up[::-1]


def _reference_diff_ind(table, i, j, chain):
    """The problems of the diff_ind check for this chain, and whether
    every row and every column length is monotone along it, each tested
    on its own."""
    lam, mu = table.parts[i], table.parts[j]
    idx = [table.index.get(p) for p in chain]
    problems = []
    if chain[0] != lam or chain[-1] != mu:
        problems.append("endpoints")
    if len(chain) != partitions._qcr(table, i, j)[0] + 1:
        problems.append("length")
    for a, b in zip(idx, idx[1:]):
        if (a is None or b is None or a == b or not table.below[a] >> b & 1
                or partitions._qcr(table, a, b)[0] != 1):
            problems.append("step")
            break
    monotone = None not in idx and all(
        all(map(_monotone, zip(*(table.padded[k] for k in ks))))
        for ks in (idx, [table.dual[k] for k in idx]))
    return problems, monotone


class TestTableFacts:
    """The suites' per-partition shortcuts against their public definitions."""

    def test_deficits_match_d_lists(self):
        for n in range(1, 13):
            table = partitions._table(n)
            for i, lam in enumerate(table.parts):
                for j in partitions._bits(table.below[i]):
                    da, db = verify._deficits(table, i, j)
                    assert (tuple(da), tuple(db)) == strata.d_lists(lam, table.parts[j])

    def test_lone_b_rows_match_sigma_zero(self):
        # the length-one rows counted in the canonical label of mu
        def rows_in_sigma_zero(lam, mu, t):
            da, db = strata.d_lists(lam, mu)
            sigma = strata.sigma_zero(mu, t)
            hits = [i for i in range(t) if (da[i], db[i]) == (0, 1)]
            if not hits:
                return -1
            return max(sum(1 for _, length in sigma[i] if length == 1) for i in hits)

        for n in range(1, 13):
            table = partitions._table(n)
            for i, lam in enumerate(table.parts):
                for j in partitions._bits(table.below[i]):
                    mu = table.parts[j]
                    expected = rows_in_sigma_zero(lam, mu, lam[0])
                    assert verify._lone_b_rows(table, i, j) == expected, (lam, mu)

    def test_orbits_walk_the_tables(self):
        # each item names its pair by table indices; through table.parts it
        # is the (lam, *orbit) of _orbit_gaps, in the same order
        expected = [(lam, *orbit) for n in range(1, 9) for lam in enumerate_partitions(n)
                    for orbit in verify._orbit_gaps(lam, 8)]
        found = [(table.parts[i], table.parts[j], *rest)
                 for n in range(1, 9) for table, i, j, *rest in verify._orbits(n)]
        assert found == expected

    def test_monotone_matches_pairwise_definition(self):
        for length in range(7):
            for values in product(range(4), repeat=length):
                pairs = list(zip(values, values[1:]))
                expected = all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)
                assert _monotone(values) == expected, values

    def test_diff_ind_matches_per_coordinate_check(self, monkeypatch):
        # the true chain, its reverse, a shuffle, one that stays put for a
        # step and one that leaves P(n), each as the index path it maps to,
        # with None for the partition outside P(n)
        rng = random.Random(18)
        chain_of = partitions.degeneration_chain
        seen = set()
        for n in range(1, 9):
            for table, i, j in verify._pairs(n):
                lam, mu = table.parts[i], table.parts[j]
                chain = chain_of(lam, mu)
                shuffled = rng.sample(chain, len(chain))
                for variant in (chain, chain[::-1], shuffled, chain + [mu],
                                chain[:-1] + [mu + (1,)]):
                    path = [table.index.get(p) for p in variant]
                    monkeypatch.setattr(verify, "_index_chain", lambda *_, v=path: v)
                    got = [r["problems"] for r in verify._check_diff_ind(table, i, j)]
                    expected, monotone = _reference_diff_ind(table, i, j, variant)
                    assert got == ([expected] if expected else []), (lam, mu, variant)
                    # a path passing all three checks has monotone rows and columns
                    assert monotone or expected, (lam, mu, variant)
                    seen.update(expected)
        assert seen == {"endpoints", "length", "step"}


class TestQuarterThresholds:
    """Each gap threshold flips at the right quarter once dim_stratum,
    which gives the top stratum, reads k/4 low."""

    @pytest.fixture
    def lower_top(self, monkeypatch):
        dim = verify.dim_stratum

        def lower(k):
            monkeypatch.setattr(verify, "dim_stratum",
                                lambda tau, spec: dim(tau, spec) - Fraction(k, 4))

        return lower

    def test_normality_gap_of_two(self, lower_top):
        # (2, 1) sits exactly 2 above the one other stratum
        lower_top(0)
        assert check_normality_gap((2, 1)).status == "ok"
        lower_top(1)
        result = check_normality_gap((2, 1))
        assert result.status == "failed" and result.min_gap == Fraction(7, 4)
        assert [ce["gap_num4"] for ce in result.counterexamples] == [7]

    def test_ci_condition_positive_gap(self, lower_top):
        for k in range(8):
            lower_top(k)
            assert check_ci_condition((2, 1)).status == "ok", k
        lower_top(8)
        result = check_ci_condition((2, 1))
        assert result.status == "failed"
        assert [ce["gap_num4"] for ce in result.counterexamples] == [0]

    def test_lone_b_gap_bound_is_tight(self, lower_top):
        # (2,) over (1, 1): a gap of 4 quarters against 2r - c - q + 2l = 0 + 2*2
        lam, mu = (2,), (1, 1)
        table = partitions._table(2)
        i, j = table.index[lam], table.index[mu]
        ones = verify._lone_b_rows(table, i, j)
        assert ones == 2
        for k in (0, 1):
            lower_top(k)
            gaps = {orbit: rest for orbit, *rest in verify._orbit_gaps(lam)}
            found = list(verify._check_gap_bound(table, i, j, *gaps[mu], ones))
            assert len(found) == k
        assert (found[0]["gap_num4"], found[0]["required_num4"]) == (3, 4)

    def test_non_quarter_top_fails_loudly(self, monkeypatch):
        # a top stratum off the quarter grid is a fault, not a gap to round
        dim = verify.dim_stratum
        monkeypatch.setattr(verify, "dim_stratum",
                            lambda tau, spec: dim(tau, spec) - Fraction(1, 8))
        with pytest.raises(AssertionError, match="quarter-integer"):
            minimum_stratum_gap((2, 1))
        with pytest.raises(AssertionError, match="quarter-integer"):
            check_ci_condition((2, 1))


def _clear_caches():
    for module in (abdiagrams, partitions, strata, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()



class TestExtremesMemo:
    """orbit_extremes is memoised per lam across calls, so the memo must
    not depend on the order of the calls and must be cleared with the
    other caches, or it would hide a planted fault."""

    def test_order_independent(self):
        lams = [lam for n in range(1, 13) for lam in enumerate_partitions(n)]

        def extremes(order):
            _clear_caches()
            return {lam: strata.orbit_extremes(lam, 12) for lam in order}

        try:
            largest_first = extremes(lams[::-1])
            smallest_first = extremes(lams)
        finally:
            _clear_caches()
        for lam in lams:
            assert list(largest_first[lam].items()) == list(smallest_first[lam].items())

    def test_cleared_by_clear_caches(self):
        caches = (strata._index, strata._pairs, strata._raw, strata._orbit2s)
        _clear_caches()
        run_all(5)
        assert all(cache.cache_info().currsize > 0 for cache in caches)
        _clear_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0, 0]


class TestLetterRecord:
    """dim_stratum reads each diagram's letter counts from the per-diagram
    strata._letters, so a diagram read once must still be checked against
    every later spec, and the record must be cleared with the other caches."""

    def test_cached_diagram_still_checked(self):
        _clear_caches()
        try:
            for lam in ((3, 1), (2, 1)):
                strata.dim_stratum(strata.tau_zero(lam), strata.strata_spec(lam))
            cached = strata._letters.cache_info().currsize
            top21, top31 = strata.tau_zero((2, 1)), strata.tau_zero((3, 1))
            with pytest.raises(ValueError, match=r"column 1 has letters \(3, 1\), spec wants \(4, 2\)"):
                strata.dim_stratum(top21, strata.strata_spec((2, 2)))
            with pytest.raises(ValueError, match=r"column 2 has letters \(2, 1\), spec wants \(1, 0\)"):
                strata.dim_stratum((top21[0], top31[1]), strata.strata_spec((2, 1)))
            assert strata._letters.cache_info().currsize == cached == 4
        finally:
            _clear_caches()

    def test_cleared_by_clear_caches(self):
        _clear_caches()
        minimum_stratum_gap((4, 2))
        assert strata._letters.cache_info().currsize > 0
        _clear_caches()
        assert strata._letters.cache_info().currsize == 0


class TestChainMemos:
    """diff_ind reads its chains and step distances from per-n memos, so
    they must be cleared with the other caches, and no report may depend
    on what earlier calls left in them."""

    def test_cleared_by_clear_caches(self):
        caches = (partitions._next_steps, verify._step_l1)
        _clear_caches()
        run_all(5)
        assert all(cache.cache_info().currsize > 0 for cache in caches)
        _clear_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]

    def test_order_independent(self, monkeypatch):
        # n = 12 then n = 8 against n = 8 alone, clean and under a fault
        runner = SUITES["diff_ind"].runner

        def last_of(sizes):
            _clear_caches()
            return [runner(n) for n in sizes][-1]

        try:
            assert last_of([12, 8]) == last_of([8])
            _reverse_odd_chains(monkeypatch)
            faulted = last_of([8])
            assert faulted[1] and last_of([12, 8]) == faulted
        finally:
            monkeypatch.undo()
            _clear_caches()

    def test_paths_independent_of_pair_order(self):
        pairs = [(n, i, j) for n in range(1, 11) for _, i, j in verify._pairs(n)]
        try:
            _clear_caches()
            forward = [partitions._index_chain(*pair) for pair in pairs]
            _clear_caches()
            backward = [partitions._index_chain(*pair) for pair in pairs[::-1]]
        finally:
            _clear_caches()
        assert forward == backward[::-1]


def _walk_move_sums(table, i, j):
    """The c and r increments of every box move from parts[i] down to
    parts[j], summed along the whole chain with no memo."""
    cur, target = [*table.padded[i], 0], table.padded[j]
    c_moves = r_moves = first = y = 0
    while (move := partitions._box_move(cur, target, first, y)) is not None:
        first, x, y = move
        c_moves += cur[x] - cur[y] - 1
        r_moves += y - x
        cur[x] -= 1
        cur[y] += 1
    return c_moves, r_moves


def _stop_one_move_short(monkeypatch):
    # every chain that qcr_identities walks ends one box move above its target
    box_move = verify._box_move

    def short(cur, target, first=0, j=0):
        if sum(abs(a - b) for a, b in zip(cur, target)) == 2:
            return None
        return box_move(cur, target, first, j)

    monkeypatch.setattr(verify, "_box_move", short)


class TestMoveSums:
    """qcr_identities reads each pair's box-move sums from a per-n memo
    filled down the chain, so the memo must agree with the whole walk, be
    cleared with the other caches, and leave no report depending on what
    earlier calls left in it."""

    def test_matches_whole_chain_walk(self):
        try:
            _clear_caches()
            for n in range(1, 13):
                for table, i, j in verify._pairs(n):
                    assert (verify._chain_move_sums(table, i, j)
                            == _walk_move_sums(table, i, j)), (table.parts[i], table.parts[j])
        finally:
            _clear_caches()

    def test_cleared_by_clear_caches(self):
        _clear_caches()
        run_suite("qcr_identities", 5)
        assert verify._move_sums.cache_info().currsize > 0
        _clear_caches()
        assert verify._move_sums.cache_info().currsize == 0

    def test_order_independent(self, monkeypatch):
        # n = 12 then n = 8 against n = 8 alone, clean and under a fault
        runner = SUITES["qcr_identities"].runner

        def last_of(sizes):
            _clear_caches()
            return [runner(n) for n in sizes][-1]

        try:
            clean = last_of([8])
            assert not clean[1] and last_of([12, 8]) == clean
            _perturb_c_r(monkeypatch)
            faulted = last_of([8])
            assert faulted[1] and last_of([12, 8]) == faulted
        finally:
            monkeypatch.undo()
            _clear_caches()

    def test_short_chains_fail_qcr_identities(self, monkeypatch):
        # a box-move rule that stops early fails every strict pair, and
        # only this suite: diff_ind builds its chains in partitions
        _clear_caches()
        try:
            _stop_one_move_short(monkeypatch)
            reports = run_all(6, max_counterexamples=10**9)
        finally:
            monkeypatch.undo()
            _clear_caches()
        failing = [r for r in reports if not r.ok]
        assert [r.lemma_id for r in failing] == ["qcr_identities"]
        assert len(failing[0].counterexamples) == PINNED_AT_6["diff_ind"][0]
        assert {ce["problem"] for ce in failing[0].counterexamples} == {"box moves"}


class TestLazyStrictness:
    def test_diff_usef_matches_eager_strictness(self, monkeypatch):
        # diff_usef reads the strictness hypothesis only when s*r <= c+q;
        # a reference that reads it for every pair finds the same records
        def eager(s, table, i, j):
            q, c, r = verify._qcr(table, i, j)
            strict = verify._strictness_hypothesis(table, i, j)
            if s * r < c + q or (strict and s * r == c + q):
                yield verify._pair_record(table, i, j, s=s, q=q, c=c, r=r,
                                          strict_expected=strict)

        items = [item for n in range(1, 11) for item in verify._step_pairs(n)]
        try:
            _perturb_c_r(monkeypatch)
            lazy = [rec for item in items for rec in verify._check_diff_usef(*item)]
            expected = [rec for item in items for rec in eager(*item)]
            tied = set()
            for s, table, i, j in items:
                q, c, r = verify._qcr(table, i, j)
                if s * r == c + q:
                    tied.add(verify._strictness_hypothesis(table, i, j))
        finally:
            monkeypatch.undo()
        assert lazy == expected
        # the fault leaves ties on both sides of the hypothesis, and records
        # with it both true and false
        assert tied == {True, False}
        assert {rec["strict_expected"] for rec in lazy} == {True, False}


def _reverse_odd_chains(monkeypatch):
    index_chain = verify._index_chain

    def reversed_if_odd(n, i, j):
        path = index_chain(n, i, j)
        return path[::-1] if len(path) % 2 else path

    monkeypatch.setattr(verify, "_index_chain", reversed_if_odd)


def _perturb_c_r(monkeypatch):
    qcr = verify._qcr

    def perturbed(table, i, j):
        q, c, r = qcr(table, i, j)
        return q, c + 1, r - 1

    monkeypatch.setattr(verify, "_qcr", perturbed)


def _transpose_off(monkeypatch):
    dual = partitions.dual
    monkeypatch.setattr(partitions, "dual", lambda lam: (2, 2) if lam == (3, 1) else dual(lam))


def _odd_row_count_off(monkeypatch):
    o_stat = abdiagrams.o_stat
    monkeypatch.setattr(abdiagrams, "o_stat", lambda d: o_stat(d) + len(d) % 2)


def _stratum_dim_low(monkeypatch):
    dim = verify.dim_stratum
    monkeypatch.setattr(verify, "dim_stratum", lambda tau, spec: dim(tau, spec) - 10)


def _two_rows_indecomposable(monkeypatch):
    decompose = abdiagrams.decompose
    monkeypatch.setattr(abdiagrams, "decompose", lambda d: None if len(d) == 2 else decompose(d))


def _two_row_weight_up(monkeypatch):
    # the extremes' pair tables come from the pair table leaf of
    # abdiagrams._pieces, which builds no diagram, so that leaf is replaced
    # by the faulted diagram table leaf's listing grouped by (a, b)
    ortho = abdiagrams._ortho

    def faulted(na, nb):
        return [(d, w + (len(d) == 2), *rest) for d, w, *rest in ortho(na, nb)]

    def faulted_pairs(na, nb):
        pairs = {}
        for _, weight4, a_part, b_part in faulted(na, nb):
            top, mult = pairs.get((a_part, b_part), (weight4, 0))
            pairs[a_part, b_part] = [max(top, weight4), mult + 1]
        return pairs

    monkeypatch.setattr(abdiagrams, "_ortho", faulted)
    monkeypatch.setattr(abdiagrams, "_ortho_pairs", faulted_pairs)


# Each fault with the suites it fails at n = 6, as (instances_checked,
# counterexample count).  comb_maxab2 under the decompose fault finds
# empty augmentations, which cover no instance but still count as failures.
PLANTED_FAULTS = [
    (_reverse_odd_chains, {"diff_ind": (88, 37)}),
    (_perturb_c_r, {"diff_usef": (53, 29), "qcr_identities": (515, 163),
                    "comb_col": (117, 117), "comb_clem": (117, 34)}),
    (_transpose_off, {"comb_col": (117, 4), "comb_clem": (117, 3)}),
    (_odd_row_count_off, {"o_sums": (117, 107), "comb_maxab": (587, 20),
                          "comb_maxab2": (14, 14), "ci_codim": (29, 23)}),
    (_stratum_dim_low, {"comb_big": (1295, 117), "comb_bigr": (113, 45),
                        "ci_codim": (29, 29), "ci_majineq": (89, 40), "nor_gap": (19, 13)}),
    (_two_rows_indecomposable, {"comb_maxab2": (11, 3), "ortho_equiv": (139, 15)}),
    (_two_row_weight_up, {"comb_big": (1295, 12), "comb_bigr": (113, 8), "nor_gap": (19, 2)}),
]


# The sha256 of run_all(6)'s reports, elapsed_s removed, under the two
# faults whose counterexamples carry a witness label, with the number of
# such counterexamples.  A fold that picked another label per orbit
# changes the tau fields and so the digest.
WITNESS_BYTES = [
    (_stratum_dim_low, "86e9a7eb019a9afe52a35e99886dd846a5d3ad43a86d923e1cca558cbbbd4ea0", 215),
    (_two_row_weight_up, "cff4a44c874c7d557116edb89c1a2d5b5ffeb17a5ee31d19279b8c3d8a82730b", 22),
]


class TestPlantedFaults:
    """Every suite compares independent computations, so a planted fault fails it."""

    def test_faults_cover_every_suite(self):
        assert set().union(*(failing for _, failing in PLANTED_FAULTS)) == set(SUITES)

    @pytest.mark.parametrize("plant, failing", PLANTED_FAULTS,
                             ids=[plant.__name__.strip("_") for plant, _ in PLANTED_FAULTS])
    def test_fault_fails_suites(self, monkeypatch, plant, failing):
        _clear_caches()
        try:
            plant(monkeypatch)
            reports = run_all(6, max_counterexamples=10**9)
        finally:
            monkeypatch.undo()
            _clear_caches()
        found = {r.lemma_id: (r.instances_checked, len(r.counterexamples))
                 for r in reports if not r.ok}
        assert found == failing

    @pytest.mark.parametrize("plant, digest, labelled", WITNESS_BYTES,
                             ids=[plant.__name__.strip("_") for plant, *_ in WITNESS_BYTES])
    def test_witness_bytes(self, monkeypatch, plant, digest, labelled):
        # every counterexample's tau, rebuilt on demand, is the first
        # worst label of its orbit, byte for byte
        _clear_caches()
        try:
            plant(monkeypatch)
            reports = [r.to_dict() for r in run_all(6, max_counterexamples=10**9)]
        finally:
            monkeypatch.undo()
            _clear_caches()
        for report in reports:
            report.pop("elapsed_s")
        text = json.dumps(reports, sort_keys=True)
        assert sum(1 for r in reports for ce in r["counterexamples"] if "tau" in ce) == labelled
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_witnesses_only_for_records(self, monkeypatch):
        # a passing run builds no label; a failing check builds its lam's
        # witnesses once, however many records it writes
        _clear_caches()
        try:
            assert all(report.ok for report in run_all(5))
            assert strata._witnesses.cache_info().misses == 0
            _stratum_dim_low(monkeypatch)
            result = check_ci_condition((3, 2, 1))
            built = strata._witnesses.cache_info().misses
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert len(result.counterexamples) == 5
        assert built == 1

    def test_runner_keeps_first_finds(self, monkeypatch):
        _clear_caches()
        try:
            _perturb_c_r(monkeypatch)
            runner = SUITES["qcr_identities"].runner
            every = runner(8)[1]
            _, kept, extras = runner(8, 10)
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert kept == every[:10]
        assert extras == {"counterexamples_total": len(every)}


# Every public function taking a partition, as lam -> call.  Two-argument
# ones pair lam with the all-ones partition of the same size, which every
# partition dominates.
def _ones(lam):
    return type(lam)([1] * sum(lam))


PARTITION_CALLS = {
    "dual": partitions.dual,
    "dominates": lambda lam: partitions.dominates(lam, _ones(lam)),
    "s_step": lambda lam: (partitions.s_step(lam, 1), partitions.s_step(lam, 2)),
    "diff_stats": lambda lam: partitions.diff_stats(lam, _ones(lam)),
    "degeneration_chain": lambda lam: partitions.degeneration_chain(lam, _ones(lam)),
    "enumerate_below": partitions.enumerate_below,
    "format_partition": partitions.format_partition,
    "strata_spec": strata.strata_spec,
    "tau_zero": strata.tau_zero,
    "sigma_zero": lambda lam: strata.sigma_zero(lam, lam[0] + 1),
    "d_lists": lambda lam: strata.d_lists(lam, _ones(lam)),
    "dim_M": strata.dim_M,
    "dim_N": strata.dim_N,
    "dim_orbit": strata.dim_orbit,
    "enumerate_lambda": strata.enumerate_lambda,
    "strata_report": strata.strata_report,
    "normality_witness": normality_witness,
    "is_normal": lambda lam: is_normal(lam, certify=True),
    "minimum_stratum_gap": minimum_stratum_gap,
    "check_ci_condition": check_ci_condition,
    "check_normality_gap": check_normality_gap,
}


MALFORMED_CALLS = {
    "orbit_extremes": strata.orbit_extremes,
    "enumerate_lambda": strata.enumerate_lambda,
    "strata_report": strata.strata_report,
    "is_normal": lambda lam: is_normal(lam, certify=True),
    "is_normal_uncertified": is_normal,
    "minimum_stratum_gap": minimum_stratum_gap,
    "check_ci_condition": check_ci_condition,
    "check_normality_gap": check_normality_gap,
}


@pytest.mark.parametrize("name", MALFORMED_CALLS)
@pytest.mark.parametrize("lam", [(3, 0), (2, -1), (2, 0, 1)])
def test_malformed_partition_rejected(lam, name):
    # a zero or negative part is not dropped: (3, 0) is not (3,)
    with pytest.raises(ValueError, match="positive integers"):
        MALFORMED_CALLS[name](lam)


@pytest.mark.parametrize("name", MALFORMED_CALLS)
@pytest.mark.parametrize("lam, message", [((2.0, 1), "positive integers, got 2.0$"),
                                          ((1, 2), r"weakly decreasing, got \(1, 2\)$")],
                         ids=["float_part", "increasing"])
def test_partition_checked_before_use(lam, message, name):
    # lam is checked before any label is built from it, so every call
    # gives check_partition's message, not an error from the top label
    with pytest.raises(ValueError, match=message):
        MALFORMED_CALLS[name](lam)


@pytest.mark.parametrize("lam", [(2, 2, 1), (3, 2), (2, 1, 1, 1)])
def test_list_of_parts_matches_tuple(lam):
    for name, call in PARTITION_CALLS.items():
        expected, got = call(lam), call(list(lam))
        assert got == expected and repr(got) == repr(expected), name
