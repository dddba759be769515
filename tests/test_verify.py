"""Decision rule, per-partition checks, and the lemma suite harness."""

from fractions import Fraction

import pytest

from symorbit.partitions import enumerate_partitions, s_step
from symorbit.verify import (
    SUITES,
    check_ci_condition,
    check_normality_gap,
    is_normal,
    minimum_stratum_gap,
    normality_witness,
    run_all,
    run_suite,
)


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


class TestMinimumGap:
    def test_values(self):
        assert minimum_stratum_gap((2, 1)) == 2
        assert minimum_stratum_gap((1, 1)) is None
        assert minimum_stratum_gap((2,)) == 1

    def test_fraction_valued(self):
        for lam in [(2, 1), (2,), (3, 1), (4, 2, 1), (5,)]:
            assert isinstance(minimum_stratum_gap(lam), Fraction)


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

    def test_all_suites_pass_small(self):
        for lemma_id in SUITES:
            report = run_suite(lemma_id, 6)
            assert report.ok, (lemma_id, report.counterexamples[:2])
            assert report.instances_checked > 0
            assert report.n_range[1] == 6

    def test_known_instance_counts(self):
        # all alternating-row multisets with at most 8 letters
        assert run_suite("ortho_equiv", 8).instances_checked == 434
        # one label per partition of each size up to 6
        assert run_suite("ci_codim", 6).instances_checked == sum(
            len(enumerate_partitions(n)) for n in range(1, 7)
        )

    def test_deterministic_reports(self):
        for lemma_id in ("diff_usef", "comb_big", "nor_gap", "ortho_equiv"):
            first = run_suite(lemma_id, 6).to_dict()
            second = run_suite(lemma_id, 6).to_dict()
            first.pop("elapsed_s")
            second.pop("elapsed_s")
            assert first == second

    def test_counterexample_cap(self, monkeypatch):
        def fake_runner(n_max):
            return 50, [{"index": i} for i in range(25)], None

        import symorbit.verify as verify_module

        fake = verify_module._Suite(fake_runner, 5, 5, 1, "fake suite")
        monkeypatch.setitem(SUITES, "fake", fake)
        report = run_suite("fake")
        assert len(report.counterexamples) == 10
        assert report.extras["counterexamples_total"] == 25
        full = run_suite("fake", max_counterexamples=10**9)
        assert len(full.counterexamples) == 25

    def test_run_all_clamps(self):
        reports = run_all(10)
        assert [r.lemma_id for r in reports] == list(SUITES)
        by_id = {r.lemma_id: r for r in reports}
        assert by_id["comb_big"].n_range[1] == 9  # clamped to its cap
        assert by_id["diff_ind"].n_range[1] == 10
        assert all(r.ok for r in reports)
