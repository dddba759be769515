"""Stratum labels and exact dimension formulas against brute-force oracles."""

from fractions import Fraction

import pytest

from symorbit import abdiagrams, partitions, strata
from symorbit.abdiagrams import (
    a_count,
    a_partition,
    b_count,
    b_partition,
    delta_stat,
    enumerate_all_diagrams,
    enumerate_ortho,
    format_diagram,
    is_ortho_symmetric,
    o_stat,
    parse_diagram,
)
from symorbit.partitions import dominates, dual, enumerate_below, enumerate_partitions
from symorbit.strata import (
    _LABEL_BUDGET,
    _edges,
    _pairs,
    _witnesses,
    d_lists,
    dim_M,
    dim_N,
    dim_orbit,
    dim_stratum,
    enumerate_lambda,
    is_valid_tau_string,
    lambda_bound,
    orbit_extremes,
    orbit_partition,
    sigma_zero,
    strata_report,
    strata_spec,
    tau_zero,
)

def property_p_oracle(diagram):
    """Substring-balance route, independent of the piece classification
    used by the production enumeration: scan the literal row words."""
    from symorbit.abdiagrams import row_word

    words = [row_word(row) for row in diagram]
    top = max((len(w) for w in words), default=0)
    for h in range(1, top + 1):
        counts = {}
        for pattern in ("ab" * h, "ba" * h):
            counts[pattern] = sum(
                1
                for word in words
                for i in range(len(word))
                if word[i:].startswith(pattern)
            )
        if counts["ab" * h] != counts["ba" * h]:
            return False
    return True


def tau(*texts):
    return tuple(parse_diagram(t) for t in texts)


def partitions_upto(n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_partitions(n)


def lambda_oracle(lam):
    """Brute-force label enumeration straight from the three conditions."""
    spec = strata_spec(lam)
    out = []

    def extend(prefix, i):
        if i == spec.t:
            out.append(tuple(prefix))
            return
        for diagram in enumerate_all_diagrams(spec.dims[i], spec.dims[i + 1]):
            if not property_p_oracle(diagram):
                continue
            if prefix and b_partition(prefix[-1]) != a_partition(diagram):
                continue
            prefix.append(diagram)
            extend(prefix, i + 1)
            prefix.pop()

    extend([], 0)
    return set(out)


def bulk_oracle(mu, spec):
    """The part of a stratum dimension that the orbit mu fixes, in
    Fraction: half the orbit dimension and the per-edge bulk terms."""
    dims = spec.dims
    total = dim_orbit(mu) / 2
    for i in range(spec.t):
        total += Fraction(dims[i] * dims[i + 1], 2) - Fraction(dims[i] + dims[i + 1], 4)
    return total


def dim_stratum_oracle(label, spec):
    """Stratum dimension term by term in Fraction, straight from the
    statistics: bulk_oracle plus o/4 - Delta/2 per diagram."""
    total = bulk_oracle(orbit_partition(label), spec)
    for diagram in label:
        total += Fraction(o_stat(diagram), 4) - Fraction(delta_stat(diagram), 2)
    return total


def merge(groups, key, count, weight4):
    """Add count labels whose largest weight4 is weight4 to groups[key]."""
    old_count, old_best = groups.get(key, (0, weight4))
    groups[key] = (old_count + count, max(old_best, weight4))


def brute_edges(na, nb):
    """Ortho-symmetric diagrams among all diagrams with na a's and nb b's,
    grouped by (a_partition, b_partition) as (count, largest o - 2*Delta)."""
    groups = {}
    for diagram in enumerate_all_diagrams(na, nb):
        if is_ortho_symmetric(diagram):
            key = (a_partition(diagram), b_partition(diagram))
            merge(groups, key, 1, o_stat(diagram) - 2 * delta_stat(diagram))
    return groups


def forward_extremes(lam):
    """Per orbit, (label count, largest summed weight4), by a transfer from
    the first column to the last over (orbit, carried b-partition) states;
    the first column's states are its edge groups."""
    dims = strata_spec(lam).dims
    states = brute_edges(dims[0], dims[1])
    for i in range(1, len(dims) - 1):
        edges = brute_edges(dims[i], dims[i + 1])
        ahead = {}
        for (mu, carried), (count, best) in states.items():
            for (a_part, b_part), (n_edges, top) in edges.items():
                if a_part == carried:
                    merge(ahead, (mu, b_part), count * n_edges, best + top)
        states = ahead
    return {mu: value for (mu, _), value in states.items()}


def reference_witnesses(lam):
    """_witnesses by a generic driver that applies one fold step per
    column to the flat edge tables, the step keeping per a-partition the
    largest weight4 and the first suffix attaining it."""
    def first_best(edges, below):
        values = {}
        for diagram, weight4, a_part, b_part in edges:
            if b_part in below:
                top, tail = below[b_part]
                best = values.get(a_part)
                if best is None or weight4 + top > best[0]:
                    values[a_part] = (weight4 + top, (diagram,) + tail)
        return values

    dims = strata_spec(lam).dims
    values = {(): (0, ())}
    for i in range(len(dims) - 2, -1, -1):
        values = first_best(_edges(dims[i], dims[i + 1]), values)
    return {mu: label for mu, (_, label) in values.items()}


def _clear_caches():
    for module in (abdiagrams, partitions, strata):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


class TestStrataSpec:
    def test_examples(self):
        assert strata_spec((3, 1)).t == 3
        assert strata_spec((3, 1)).dims == (4, 2, 1, 0)
        assert strata_spec((1, 1)).dims == (2, 0)
        assert strata_spec((2, 1)).dims == (3, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            strata_spec(())

    def test_dims_shape(self):
        for lam in partitions_upto(9):
            dims = strata_spec(lam).dims
            assert dims[0] == sum(lam) and dims[-1] == 0
            assert len(dims) == lam[0] + 1
            positive = [d for d in dims if d > 0]
            assert positive == sorted(positive, reverse=True)
            assert len(set(positive)) == len(positive)  # strictly decreasing until 0
        # n_i is the number of boxes right of column i: a slice sum of the columns
        for lam in partitions_upto(12):
            cols = dual(lam)
            assert strata_spec(lam).dims == tuple(sum(cols[i:]) for i in range(lam[0] + 1))


class TestTauZero:
    def test_examples(self):
        assert tau_zero((3, 1)) == tau("ababa/a", "aba", "a")
        assert tau_zero((1,)) == tau("a")
        assert tau_zero((2, 1)) == tau("aba/a", "a")

    def test_projects_back_and_rows_odd(self):
        for lam in partitions_upto(10):
            label = tau_zero(lam)
            assert a_partition(label[0]) == lam
            for diagram in label:
                for first, length in diagram:
                    assert first == "a" and length % 2 == 1

    def test_valid_label(self):
        for lam in partitions_upto(9):
            assert is_valid_tau_string(tau_zero(lam), strata_spec(lam))

    def test_columns_come_out_canonical(self):
        # tau_zero builds each column's rows in order and sorts none
        for lam in partitions_upto(14):
            for column in tau_zero(lam):
                assert column == abdiagrams.canonical(column), lam

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^the empty partition has no stratum data$"):
            tau_zero(())
        with pytest.raises(ValueError, match="^empty stratum label$"):
            orbit_partition(())


class TestInvalidLabels:
    # (2, 1) has t = 2 and dims (3, 1, 0): its labels are aba/a, a
    # and a/a/a/b, a
    spec = strata_spec((2, 1))

    def test_wrong_column_count(self):
        assert not is_valid_tau_string(tau("aba/a"), self.spec)
        assert not is_valid_tau_string(tau("aba/a", "a", ""), self.spec)

    def test_wrong_letter_counts(self):
        assert not is_valid_tau_string(tau("aba/a/a", "a"), self.spec)  # 4 a's in column 1
        assert not is_valid_tau_string(tau("aba/a", "a/b"), self.spec)  # a b in the last column
        assert not is_valid_tau_string(tau("a/a/a/b", "a/a"), self.spec)

    def test_not_ortho_symmetric(self):
        diagram = parse_diagram("ab/a/a")
        assert (a_count(diagram), b_count(diagram)) == (3, 1)
        assert not is_ortho_symmetric(diagram)
        assert not is_valid_tau_string((diagram, parse_diagram("a")), self.spec)


class TestEnumerateLambda:
    def test_exact_sets(self):
        assert set(enumerate_lambda((2, 1))) == {tau("aba/a", "a"), tau("a/a/a/b", "a")}
        assert enumerate_lambda((1, 1)) == [tau("a/a")]
        assert set(enumerate_lambda((2,))) == {tau("aba", "a"), tau("a/a/b", "a")}

    def test_matches_brute_force(self):
        for lam in partitions_upto(5):
            got = enumerate_lambda(lam)
            assert len(set(got)) == len(got)
            assert set(got) == lambda_oracle(lam)

    def test_all_labels_valid(self):
        for lam in partitions_upto(6):
            spec = strata_spec(lam)
            for label in enumerate_lambda(lam):
                assert is_valid_tau_string(label, spec)

    def test_top_label_unique(self):
        for lam in partitions_upto(7):
            labels = enumerate_lambda(lam)
            assert labels.count(tau_zero(lam)) == 1
            with_top_orbit = [l for l in labels if a_partition(l[0]) == lam]
            assert with_top_orbit == [tau_zero(lam)]

    def test_orbits_dominated(self):
        for lam in partitions_upto(6):
            for label in enumerate_lambda(lam):
                assert dominates(lam, orbit_partition(label))

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_lambda((13,), 12)
        assert enumerate_lambda((2, 1), 3)  # explicit bound admits the input

    def test_label_budget(self):
        # every partition of 8 is listed; (9) has 1,918,225 labels
        def count(lam):
            return sum(s.count for s in orbit_extremes(lam).values())

        assert max(count(lam) for lam in enumerate_partitions(8)) == 112324
        assert count((8,)) <= _LABEL_BUDGET < count((9,))
        for call in (enumerate_lambda, strata_report):
            with pytest.raises(ValueError, match="1918225 stratum labels.*bound"):
                call((9,))

    def test_refusal_builds_no_table(self):
        # the budget reads the extremes memo's counts, so a refused lam
        # builds no diagram table
        _clear_caches()
        try:
            for call in (strata_report, enumerate_lambda):
                with pytest.raises(ValueError, match="1918225 stratum labels.*bound"):
                    call((9,))
            assert _edges.cache_info().currsize == 0
        finally:
            _clear_caches()


class TestEdges:
    def test_match_statistics(self):
        # each table against one built from the per-diagram partitions
        # and o - 2*Delta, in enumerate_ortho order; equal partitions are
        # one shared tuple
        total = 0
        for letters in range(21):
            for na in range(letters + 1):
                expected = tuple(
                    (d, o_stat(d) - 2 * delta_stat(d), a_partition(d), b_partition(d))
                    for d in enumerate_ortho(na, letters - na)
                )
                got = _edges(na, letters - na)
                assert got == expected
                parts = [part for edge in got for part in edge[2:]]
                assert len({id(part) for part in parts}) == len(set(parts))
                total += len(expected)
        assert total == 10535

    def test_pairs_regroup_edges(self):
        # the extremes' table is the flat edge table grouped by (a, b), in
        # first-edge order, with each group's largest weight4 and size
        total = 0
        for letters in range(21):
            for na in range(letters + 1):
                nb = letters - na
                expected = {}
                for _, weight4, a_part, b_part in _edges(na, nb):
                    top, mult = expected.get((a_part, b_part), (weight4, 0))
                    expected[a_part, b_part] = (max(top, weight4), mult + 1)
                a_parts, b_parts = enumerate_partitions(na), enumerate_partitions(nb)
                got = [((a_parts[a], b_parts[b]), (top, mult))
                       for a, b, top, mult in _pairs(na, nb)]
                assert got == list(expected.items())
                total += sum(mult for *_, mult in _pairs(na, nb))
        assert total == 10535

    def test_pairs_regroup_edges_past_20_letters(self):
        # _pairs comes from the pair table leaf of ab._pieces
        # (ab._ortho_pairs), _edges from its diagram table leaf (ab._ortho);
        # compare them on the tables of 21..26 letters and on the largest
        # tables certify (14)..(16) builds, then free both
        sizes = [(na, letters - na) for letters in range(21, 27) for na in range(letters + 1)]
        sizes += [(14, 13), (15, 14), (16, 15)]
        total = 0
        try:
            for na, nb in sizes:
                expected = {}
                for _, weight4, a_part, b_part in _edges(na, nb):
                    top, mult = expected.get((a_part, b_part), (weight4, 0))
                    expected[a_part, b_part] = (max(top, weight4), mult + 1)
                a_parts, b_parts = enumerate_partitions(na), enumerate_partitions(nb)
                got = [((a_parts[a], b_parts[b]), (top, mult))
                       for a, b, top, mult in _pairs(na, nb)]
                assert got == list(expected.items())
                total += sum(mult for *_, mult in _pairs(na, nb))
        finally:
            _edges.cache_clear()
            _pairs.cache_clear()
        assert total == 44512 + 2563 + 3998 + 6140

    def test_pairs_against_all_diagrams(self):
        # the pair tables against brute_edges, which shares no code with
        # the piece walk, in first-diagram order, on every table of <= 22
        # letters; then free the caches both fill
        tables = total = 0
        try:
            for letters in range(23):
                for na in range(letters + 1):
                    nb = letters - na
                    a_parts, b_parts = enumerate_partitions(na), enumerate_partitions(nb)
                    got = [((a_parts[a], b_parts[b]), (mult, top))
                           for a, b, top, mult in _pairs(na, nb)]
                    assert got == list(brute_edges(na, nb).items())
                    tables += 1
                    total += sum(mult for _, (mult, _) in got)
        finally:
            _clear_caches()
        assert (tables, total) == (276, 18693)


class TestLambdaBound:
    def test_default_and_precedence(self, monkeypatch):
        monkeypatch.delenv("ORBIT_LAMBDA_BOUND", raising=False)
        assert lambda_bound() == 12
        monkeypatch.setenv("ORBIT_LAMBDA_BOUND", "5")
        assert lambda_bound() == 5
        assert lambda_bound(7) == 7

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError):
            lambda_bound(-1)

    @pytest.mark.parametrize("value", ["-3", "-0x1", "abc", ""])
    def test_bad_environment_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv("ORBIT_LAMBDA_BOUND", value)
        with pytest.raises(ValueError, match="ORBIT_LAMBDA_BOUND"):
            lambda_bound()


class TestDimensions:
    def test_dim_orbit_examples(self):
        assert dim_orbit((1, 1, 1)) == 0
        assert dim_orbit((2, 1)) == 2
        assert dim_orbit([2, 1]) == 2  # any sequence of parts is accepted
        for n in range(1, 8):
            assert dim_orbit((n,)) == Fraction(n * n - n, 2)

    def test_dim_orbit_min_sum_identity(self):
        # sum of squared column lengths equals the pairwise min sum
        for lam in partitions_upto(10):
            n = sum(lam)
            pair_min = sum(min(a, b) for a in lam for b in lam)
            assert dim_orbit(lam) == Fraction(n * n - pair_min, 2)

    def test_dim_orbit_column_definition(self):
        # the row-weighted sum stands for the squared columns of the transpose
        for lam in partitions_upto(12):
            n = sum(lam)
            assert dim_orbit(lam) == Fraction(n * n - sum(c * c for c in dual(lam)), 2)
        # the per-size table the gap checks read, entry by entry in _partitions order
        for n in range(17):
            expected = tuple(n * n - sum(c * c for c in dual(mu)) for mu in enumerate_partitions(n))
            assert strata._orbit2s(n) == expected

    def test_dim_m_dim_n_examples(self):
        assert (dim_M((2, 1)), dim_N((2, 1))) == (3, 1)
        assert (dim_M((1,)), dim_N((1,))) == (0, 0)
        assert (dim_M((3, 1)), dim_N((3, 1))) == (10, 4)

    def test_dim_n_integral(self):
        for lam in partitions_upto(10):
            assert dim_N(lam).denominator == 1

    def test_dim_stratum_examples(self):
        spec = strata_spec((2, 1))
        assert dim_stratum(tau("aba/a", "a"), spec) == 2
        assert dim_stratum(tau("a/a/a/b", "a"), spec) == 0
        spec2 = strata_spec((2,))
        assert dim_stratum(tau("aba", "a"), spec2) == 1
        assert dim_stratum(tau("a/a/b", "a"), spec2) == 0

    def test_dim_stratum_rejects_mismatch(self):
        spec = strata_spec((2, 1))
        with pytest.raises(ValueError):
            dim_stratum(tau("aba/a"), spec)
        with pytest.raises(ValueError):
            dim_stratum(tau("aba/a", "b"), spec)

    def test_top_stratum_codimension_identity(self):
        for lam in partitions_upto(8):
            top_dim = dim_stratum(tau_zero(lam), strata_spec(lam))
            assert top_dim == dim_M(lam) - dim_N(lam)
            assert top_dim.denominator == 1

    def test_top_stratum_over_orbit(self):
        # the maximal-rank stratum sits n_i (n_i - 1)/2 above the orbit for
        # each middle vertex i; the orbit dimension comes from the pair-min
        # sum here, not from dim_orbit
        total = 0
        for lam in partitions_upto(20):
            spec = strata_spec(lam)
            n = sum(lam)
            orbit = Fraction(n * n - sum(min(a, b) for a in lam for b in lam), 2)
            middle = sum(Fraction(m * (m - 1), 2) for m in spec.dims[1:-1])
            assert dim_stratum(tau_zero(lam), spec) == orbit + middle
            total += 1
        assert total == 2713

    def test_dim_stratum_matches_oracle(self):
        for lam in partitions_upto(7):
            spec = strata_spec(lam)
            for label in enumerate_lambda(lam):
                dim = dim_stratum(label, spec)
                assert isinstance(dim, Fraction)
                assert dim == dim_stratum_oracle(label, spec)

    def test_all_dims_are_quarter_integers(self):
        for lam in partitions_upto(6):
            spec = strata_spec(lam)
            for label in enumerate_lambda(lam):
                assert (dim_stratum(label, spec) * 4).denominator == 1


class TestDLists:
    def test_examples(self):
        assert d_lists((2, 1), (1, 1, 1)) == ((0, 1), (1, 0))
        assert d_lists((3, 1), (2, 2)) == ((0, 0, 1), (0, 1, 0))
        assert d_lists((3, 1), (3, 1)) == ((0, 0, 0), (0, 0, 0))

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError):
            d_lists((2, 2), (3, 1))

    def test_shift_relation_and_nonnegativity(self):
        for lam in partitions_upto(8):
            for mu in enumerate_below(lam):
                da, db = d_lists(lam, mu)
                assert len(da) == len(db) == lam[0]
                assert db == da[1:] + (0,)
                assert all(x >= 0 for x in da + db)

    def test_deficits_move_letter_counts(self):
        # adding da[i] a's and db[i] b's to the padded label of mu restores
        # the letter counts demanded by lam's dimension vector
        for lam in partitions_upto(8):
            spec = strata_spec(lam)
            for mu in enumerate_below(lam):
                da, db = d_lists(lam, mu)
                sigma = sigma_zero(mu, spec.t)
                for i in range(spec.t):
                    assert a_count(sigma[i]) + da[i] == spec.dims[i]
                    assert b_count(sigma[i]) + db[i] == spec.dims[i + 1]

    def test_matches_column_sum_definition(self):
        # da[i] sums lam-hat_j - mu-hat_j over the columns j > i, numbered
        # from 1, with columns past a dual's length read as 0
        def col(hat, j):
            return hat[j - 1] if j <= len(hat) else 0

        for lam in partitions_upto(12):
            t, lhat = lam[0], dual(lam)
            for mu in enumerate_below(lam):
                mhat = dual(mu)
                da = tuple(sum(col(lhat, j) - col(mhat, j) for j in range(i + 1, t + 1))
                           for i in range(t))
                assert d_lists(lam, mu) == (da, da[1:] + (0,)), (lam, mu)


class TestSigmaZero:
    def test_examples(self):
        assert sigma_zero((1, 1, 1), 2) == tau("a/a/a", "")
        assert sigma_zero((2, 1), 2) == tau_zero((2, 1))
        assert sigma_zero((2, 2), 3) == tau("aba/aba", "a/a", "")

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            sigma_zero((3, 1), 2)

    def test_rejects_negative_column_count(self):
        with pytest.raises(ValueError, match="^column count must be nonnegative$"):
            sigma_zero((), -1)

    def test_odd_row_sums(self):
        for lam in partitions_upto(8):
            t = lam[0]
            for mu in enumerate_below(lam):
                assert sum(o_stat(d) for d in sigma_zero(mu, t)) == sum(lam)
                assert sum(o_stat(d) for d in tau_zero(lam)) == sum(lam)

    def test_length_one_rows_are_parts(self):
        # column i (from 0) has a length-one row per part of mu equal to i + 1
        for mu in partitions_upto(14):
            for t in range(mu[0], mu[0] + 3):
                sigma = sigma_zero(mu, t)
                for i in range(t):
                    ones = sum(1 for _, length in sigma[i] if length == 1)
                    assert ones == mu.count(i + 1), (mu, t, i)


class TestColumnSquareIdentity:
    def test_small(self):
        from symorbit.partitions import diff_stats

        for lam in partitions_upto(8):
            lhat = dual(lam)
            for mu in enumerate_below(lam):
                mhat = dual(mu)
                padded = mhat + (0,) * (len(lhat) - len(mhat))
                lhs = sum(m * m - l * l for m, l in zip(padded, lhat))
                assert lhs == 2 * diff_stats(lam, mu).r


class TestDeficitSumBound:
    def test_small(self):
        from symorbit.partitions import diff_stats

        for lam in partitions_upto(8):
            for mu in enumerate_below(lam):
                da, db = d_lists(lam, mu)
                total = sum(max(x, y) for x, y in zip(da, db))
                st = diff_stats(lam, mu)
                assert total <= st.c + st.q
                if st.q == 1:
                    assert total == st.c + 1


class TestOrbitExtremes:
    def test_matches_enumeration(self):
        # every lam with |lam| <= 10 and at most 2,000 labels, against the
        # labels walked one by one and the Fraction oracle
        checked = 0
        for lam in partitions_upto(10):
            summaries = orbit_extremes(lam)
            if sum(s.count for s in summaries.values()) > 2000:
                continue
            checked += 1
            spec = strata_spec(lam)
            witnesses = _witnesses(lam)
            by_orbit = {}
            for label in enumerate_lambda(lam):
                mu = orbit_partition(label)
                dim = dim_stratum_oracle(label, spec)
                best, count, first = by_orbit.get(mu, (None, 0, None))
                if best is None or dim > best:
                    best, first = dim, label
                by_orbit[mu] = (best, count + 1, first)
            assert list(summaries) == list(by_orbit)  # orbits in label order
            assert list(witnesses) == list(by_orbit)
            for mu, summary in summaries.items():
                best, count, first = by_orbit[mu]
                assert Fraction(summary.max_dim4, 4) == best
                assert summary.count == count
                witness = witnesses[mu]
                assert witness == first  # the first label wins ties
                assert orbit_partition(witness) == mu
                assert is_valid_tau_string(witness, spec)
                assert dim_stratum(witness, spec) == best
        assert checked == 119

    def test_witnesses_match_reference_fold(self):
        # every lam up to 12, beyond the 119 above that are walked label by
        # label; orbit order included
        for lam in partitions_upto(12):
            assert list(_witnesses(lam).items()) == list(reference_witnesses(lam).items()), lam

    def test_matches_forward_transfer(self):
        # a second edge source (all diagrams, filtered) and a forward fold
        for lam in partitions_upto(11):
            spec = strata_spec(lam)
            summaries = orbit_extremes(lam)
            expected = forward_extremes(lam)
            assert set(summaries) == set(expected), lam
            for mu, (count, weight4) in expected.items():
                assert summaries[mu].count == count, (lam, mu)
                assert summaries[mu].max_dim4 == 4 * bulk_oracle(mu, spec) + weight4, (lam, mu)

    def test_total_counts(self):
        for lam in partitions_upto(7):
            total = sum(s.count for s in orbit_extremes(lam).values())
            assert total == len(enumerate_lambda(lam))

    def test_orbits_in_first_label_order(self):
        for lam in partitions_upto(7):
            firsts = dict.fromkeys(orbit_partition(label) for label in enumerate_lambda(lam))
            assert list(orbit_extremes(lam)) == list(firsts)

    def test_top_orbit_is_tau_zero(self):
        for lam in partitions_upto(7):
            summary = orbit_extremes(lam)[lam]
            assert summary.count == 1
            assert _witnesses(lam)[lam] == tau_zero(lam)


class TestReport:
    def test_schema(self):
        report = strata_report((2, 1))
        assert sorted(report) == ["dimM", "dimN", "dims", "lambda", "strata", "t"]
        assert report["lambda"] == [2, 1]
        assert report["t"] == 2
        assert report["dims"] == [3, 1, 0]
        assert report["dimM"] == 3 and report["dimN"] == 1
        assert len(report["strata"]) == 2
        for row in report["strata"]:
            assert sorted(row) == ["dim_num4", "mu", "tau"]
            assert isinstance(row["dim_num4"], int)
            assert len(row["tau"]) == 2
        dims = {tuple(r["mu"]): r["dim_num4"] for r in report["strata"]}
        assert dims == {(2, 1): 8, (1, 1, 1): 0}

    def test_rows_match_oracle(self):
        for lam in partitions_upto(6):
            spec = strata_spec(lam)
            rows = strata_report(lam)["strata"]
            labels = enumerate_lambda(lam)
            assert len(rows) == len(labels)
            for row, label in zip(rows, labels):
                assert row["tau"] == [format_diagram(d) for d in label]
                assert row["mu"] == list(orbit_partition(label))
                assert row["dim_num4"] == 4 * dim_stratum_oracle(label, spec)

    def test_tau_strings_parse_back(self):
        report = strata_report((3, 1))
        for row in report["strata"]:
            label = tuple(parse_diagram(text) for text in row["tau"])
            assert is_valid_tau_string(label, strata_spec((3, 1)))
