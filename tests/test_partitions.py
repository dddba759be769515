"""Partition arithmetic checked against independent small-case oracles."""

from dataclasses import astuple
from itertools import zip_longest

import pytest

from symorbit.partitions import (
    DiffStats,
    _bits,
    _index,
    _index_chain,
    _qcr,
    _table,
    check_partition,
    degeneration_chain,
    diff_stats,
    dominance_covers,
    dominates,
    dual,
    enumerate_below,
    enumerate_partitions,
    format_partition,
    parse_partition,
    s_step,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0)..p(10)


def transpose_oracle(lam):
    """Transpose by literally drawing the box grid and counting columns."""
    boxes = {(r, c) for r, p in enumerate(lam) for c in range(p)}
    cols = []
    c = 0
    while any((r, c) in boxes for r in range(len(lam))):
        cols.append(sum(1 for r in range(len(lam)) if (r, c) in boxes))
        c += 1
    return tuple(cols)


def dominates_by_column_tails(lam, mu):
    """The equivalent dominance criterion via tail sums of the duals."""
    lhat, mhat = dual(lam), dual(mu)
    width = max(len(lhat), len(mhat))
    padl = lhat + (0,) * (width - len(lhat))
    padm = mhat + (0,) * (width - len(mhat))
    return all(sum(padl[j + 1:]) >= sum(padm[j + 1:]) for j in range(width))


def box_weight_oracle(lam, numbering):
    """Sum of column numbers (or row numbers) box by box."""
    if numbering == "column":
        return sum(c + 1 for p in lam for c in range(p))
    return sum(r + 1 for r, p in enumerate(lam) for _ in range(p))


def reduction_covers(n):
    """Covers as the transitive reduction of the full dominance order.

    The strictly-below sets are bitmasks, so the reduction is a handful
    of integer operations per partition; p(n)^2 dominance tests build them.
    """
    parts = enumerate_partitions(n)
    index = {p: i for i, p in enumerate(parts)}
    below = []
    for lam in parts:
        mask = 0
        for mu in parts:
            if mu != lam and dominates(lam, mu):
                mask |= 1 << index[mu]
        below.append(mask)
    covers = []
    for i, lam in enumerate(parts):
        reachable = 0
        m = below[i]
        while m:
            j = (m & -m).bit_length() - 1
            reachable |= below[j]
            m &= m - 1
        keep = below[i] & ~reachable
        while keep:
            j = (keep & -keep).bit_length() - 1
            covers.append((lam, parts[j]))
            keep &= keep - 1
    return covers


def all_partitions_upto(n_max):
    for n in range(n_max + 1):
        yield from enumerate_partitions(n)


def dominating_pairs(n_max):
    for n in range(1, n_max + 1):
        for lam in enumerate_partitions(n):
            for mu in enumerate_below(lam):
                yield lam, mu


class TestDual:
    @pytest.mark.parametrize(
        "lam, expected",
        [
            ((3, 1), (2, 1, 1)),
            ((), ()),
            ((7, 2, 2, 1), (4, 3, 1, 1, 1, 1, 1)),
        ],
    )
    def test_examples(self, lam, expected):
        assert dual(lam) == expected
        assert dual(lam) == transpose_oracle(lam)

    def test_matches_grid_oracle(self):
        for lam in all_partitions_upto(10):
            assert dual(lam) == transpose_oracle(lam)

    def test_involution(self):
        for lam in all_partitions_upto(14):
            assert dual(dual(lam)) == lam

    def test_row_l1_equals_column_l1(self):
        # both count the boxes of the symmetric difference of the two
        # diagrams; diff_ind's step check relies on it for the columns
        def l1(a, b):
            return sum(abs(x - y) for x, y in zip_longest(a, b, fillvalue=0))

        for n in range(10):
            parts = enumerate_partitions(n)
            cols = {lam: transpose_oracle(lam) for lam in parts}
            for lam in parts:
                for mu in parts:
                    assert l1(lam, mu) == l1(cols[lam], cols[mu]), (lam, mu)


class TestDominance:
    def test_examples(self):
        assert dominates((3, 1), (2, 2))
        assert not dominates((2, 2), (3, 1))
        assert dominates((7, 2, 2, 1), (5, 3, 1, 1, 1, 1))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((3, 1), (2, 1))

    def test_column_tail_criterion_equivalent(self):
        for n in range(10):
            parts = enumerate_partitions(n)
            for lam in parts:
                for mu in parts:
                    assert dominates(lam, mu) == dominates_by_column_tails(lam, mu)

    def test_partial_order_axioms(self):
        for n in range(10):
            parts = enumerate_partitions(n)
            for lam in parts:
                assert dominates(lam, lam)
            for lam in parts:
                for mu in parts:
                    if dominates(lam, mu) and dominates(mu, lam):
                        assert lam == mu
            for lam in parts:
                for mu in enumerate_below(lam):
                    for nu in enumerate_below(mu):
                        assert dominates(lam, nu)


class TestSStep:
    def test_single_row(self):
        for n in range(1, 8):
            assert s_step((n,), n)
            if n > 1:
                assert not s_step((n,), n - 1)

    def test_triangular_is_1_step(self):
        for k in range(1, 7):
            assert s_step(tuple(range(k, 0, -1)), 1)

    def test_doubled_triangular_is_2_step(self):
        for k in range(1, 6):
            lam = tuple(range(2 * k, 0, -2))
            assert not s_step(lam, 1)
            assert s_step(lam, 2)

    def test_monotone_in_s(self):
        for lam in all_partitions_upto(8):
            for s in range(1, 4):
                if s_step(lam, s):
                    assert s_step(lam, s + 1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            s_step((2, 1), 0)


class TestDiffStats:
    def test_worked_example(self):
        assert diff_stats((7, 2, 2, 1), (5, 3, 1, 1, 1, 1)) == DiffStats(3, 10, 8)

    def test_identical(self):
        for lam in [(), (1,), (3, 1), (4, 2, 2)]:
            assert diff_stats(lam, lam) == DiffStats(0, 0, 0)

    def test_small_example(self):
        assert diff_stats((2, 1), (1, 1, 1)) == DiffStats(1, 1, 2)

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError):
            diff_stats((2, 2), (3, 1))
        with pytest.raises(ValueError):
            diff_stats((3, 1), (3, 1, 1))

    def test_against_box_oracles(self):
        for lam, mu in dominating_pairs(8):
            st = diff_stats(lam, mu)
            moved = sum(
                max(a - b, 0) for a, b in zip_longest(lam, mu, fillvalue=0)
            )
            assert st.q == moved
            assert st.c == box_weight_oracle(lam, "column") - box_weight_oracle(mu, "column")
            assert st.r == box_weight_oracle(mu, "row") - box_weight_oracle(lam, "row")

    def test_c_dominates_q_and_vanishing(self):
        for lam, mu in dominating_pairs(8):
            st = diff_stats(lam, mu)
            assert st.c >= st.q >= 0 and st.r >= 0
            assert (st.q == 0) == (lam == mu)
            assert (st.c == 0) == (lam == mu)
            assert (st.r == 0) == (lam == mu)

    def test_additivity_along_chains(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for mu in enumerate_below(lam):
                    for nu in enumerate_below(mu):
                        top = diff_stats(lam, mu)
                        bottom = diff_stats(mu, nu)
                        whole = diff_stats(lam, nu)
                        assert whole.c == top.c + bottom.c
                        assert whole.r == top.r + bottom.r

    def test_2step_closing_example(self):
        lam = (6, 4, 2)
        assert s_step(lam, 2)
        st_mu = diff_stats(lam, (5, 3, 2, 1, 1))
        assert (st_mu.q, st_mu.c, st_mu.r) == (2, 8, 6)
        assert 2 * st_mu.r > st_mu.c + st_mu.q  # strict: a column grows by 2
        st_nu = diff_stats(lam, (5, 3, 3, 1))
        assert (st_nu.q, st_nu.c, st_nu.r) == (2, 6, 4)
        assert 2 * st_nu.r == st_nu.c + st_nu.q  # equality is attained


def scanning_chain(lam, mu):
    """degeneration_chain as it was first written: every step rescans the
    rows for the first excess, the first shortfall and the end of the
    excess row's block."""
    if not dominates(lam, mu):
        raise ValueError(f"{lam} does not dominate {mu}; no degeneration chain exists")
    width = max(len(lam), len(mu))
    cur = list(lam) + [0] * (width - len(lam))
    target = list(mu) + [0] * (width - len(mu))
    chain = [tuple(lam)]
    while cur != target:
        first = next(i for i in range(width) if cur[i] > target[i])
        j = next(i for i in range(width) if cur[i] < target[i])
        i = max(k for k in range(first, width) if cur[k] == cur[first])
        if i >= j:
            raise AssertionError("box move would not preserve the partition shape")
        cur[i] -= 1
        cur[j] += 1
        chain.append(tuple(p for p in cur if p > 0))
    return chain


class TestDegenerationChain:
    def test_worked_example(self):
        chain = degeneration_chain((7, 2, 2, 1), (5, 3, 1, 1, 1, 1))
        assert chain == [
            (7, 2, 2, 1),
            (6, 3, 2, 1),
            (5, 3, 2, 1, 1),
            (5, 3, 1, 1, 1, 1),
        ]

    def test_single_step(self):
        assert degeneration_chain((2,), (1, 1)) == [(2,), (1, 1)]
        assert degeneration_chain((3, 1), (2, 2)) == [(3, 1), (2, 2)]

    def test_equal_endpoints(self):
        assert degeneration_chain((3, 1), (3, 1)) == [(3, 1)]

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError):
            degeneration_chain((2, 2), (3, 1))

    def test_chain_properties(self):
        def monotone(seq):
            return all(a <= b for a, b in zip(seq, seq[1:])) or all(
                a >= b for a, b in zip(seq, seq[1:])
            )

        for lam, mu in dominating_pairs(8):
            if lam == mu:
                continue
            chain = degeneration_chain(lam, mu)
            assert chain[0] == lam and chain[-1] == mu
            assert len(chain) == diff_stats(lam, mu).q + 1
            for a, b in zip(chain, chain[1:]):
                assert dominates(a, b) and a != b
                assert diff_stats(a, b).q == 1
            width = max(len(p) for p in chain)
            for r in range(width):
                assert monotone([p[r] if r < len(p) else 0 for p in chain])
            duals = [dual(p) for p in chain]
            height = max(len(d) for d in duals)
            for c in range(height):
                assert monotone([d[c] if c < len(d) else 0 for d in duals])

    def test_matches_scanning_reference(self):
        for lam, mu in dominating_pairs(12):
            assert degeneration_chain(lam, mu) == scanning_chain(lam, mu), (lam, mu)
        for lam, mu in [((2, 2), (3, 1)), ((3, 3), (4, 1, 1)), ((2, 1, 1), (3, 1))]:
            with pytest.raises(ValueError) as expected:
                scanning_chain(lam, mu)
            with pytest.raises(ValueError) as got:
                degeneration_chain(lam, mu)
            assert str(got.value) == str(expected.value)

    def test_index_chain_matches_both(self):
        # the suites' chains, as table indices, are the public chain and
        # the rescanning reference, pair for pair, lam == mu included
        for n in range(13):
            table = _table(n)
            for i, mask in enumerate(table.below):
                for j in _bits(mask):
                    lam, mu = table.parts[i], table.parts[j]
                    chain = [table.parts[k] for k in _index_chain(n, i, j)]
                    assert chain == degeneration_chain(lam, mu) == scanning_chain(lam, mu)


class TestEnumeration:
    def test_counts(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert len(enumerate_partitions(n)) == expected

    def test_reverse_lex_order(self):
        for n in range(11):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)
            if n:
                assert parts[0] == (n,)
                assert parts[-1] == (1,) * n

    def test_all_valid(self):
        for lam in enumerate_partitions(9):
            assert check_partition(lam) == lam
            assert sum(lam) == 9

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_partitions(65)
        with pytest.raises(ValueError):
            enumerate_partitions(-1)

    def test_below_examples(self):
        assert enumerate_below((1, 1)) == [(1, 1)]
        assert enumerate_below((2, 1)) == [(2, 1), (1, 1, 1)]
        assert enumerate_below((3,)) == [(3,), (2, 1), (1, 1, 1)]

    def test_below_is_dominance_filter(self):
        for lam in enumerate_partitions(7):
            expected = [mu for mu in enumerate_partitions(7) if dominates(lam, mu)]
            assert enumerate_below(lam) == expected


class TestParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("3,1", (3, 1)),
            ("[3,1]", (3, 1)),
            (" [ 3 , 1 ] ", (3, 1)),
            ("7", (7,)),
            ("[]", ()),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_partition(text) == expected

    @pytest.mark.parametrize("text", ["", "1,3", "3,0", "3,-1", "a,b", "3,,1", "65"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_round_trip(self):
        for lam in all_partitions_upto(8):
            assert parse_partition(format_partition(lam)) == lam


class TestCovers:
    def naive_covers(self, n):
        parts = enumerate_partitions(n)
        out = []
        for lam in parts:
            for mu in parts:
                if mu == lam or not dominates(lam, mu):
                    continue
                between = any(
                    nu != lam and nu != mu and dominates(lam, nu) and dominates(nu, mu)
                    for nu in parts
                )
                if not between:
                    out.append((lam, mu))
        return out

    def test_against_naive_reduction(self):
        for n in range(1, 9):
            assert sorted(dominance_covers(n)) == sorted(self.naive_covers(n))

    def test_chain_for_three(self):
        assert dominance_covers(3) == [((3,), (2, 1)), ((2, 1), (1, 1, 1))]

    def test_matches_transitive_reduction_in_order(self):
        for n in range(21):
            assert dominance_covers(n) == reduction_covers(n)

    @pytest.mark.parametrize("n", [-1, 65])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(ValueError):
            dominance_covers(n)


class TestTable:
    def test_rows_duals_and_weights(self):
        for n in range(11):
            table = _table(n)
            assert table.parts == tuple(enumerate_partitions(n))
            for i, lam in enumerate(table.parts):
                assert table.index[lam] == i
                assert table.padded[i] == lam + (0,) * (n - len(lam))
                assert table.parts[table.dual[i]] == transpose_oracle(lam)
                assert table.weight[i] == box_weight_oracle(lam, "column")
                assert table.row_weight[i] == box_weight_oracle(lam, "row")

    def test_index_is_shared(self):
        # the pair and triple loops and strata's pair tables read one index
        for n in range(13):
            assert _table(n).index is _index(n)

    def test_suffix_sums_of_dual(self):
        for n in range(13):
            table = _table(n)
            for i, lam in enumerate(table.parts):
                cols = dual(lam)
                cols += (0,) * (n - len(cols))
                assert table.suffix[i] == tuple(sum(cols[k:]) for k in range(n))

    def test_column_squares_match_zip_sum(self):
        # comb_col's lhs, once summed over the padded duals of each pair
        for n in range(1, 13):
            table = _table(n)
            for i in range(len(table.parts)):
                lhat = table.padded[table.dual[i]]
                for j in _bits(table.below[i]):
                    mhat = table.padded[table.dual[j]]
                    zipped = sum(b * b - a * a for a, b in zip(lhat, mhat))
                    assert table.colsq[j] - table.colsq[i] == zipped

    def test_below_masks_are_dominance_filters(self):
        for n in range(13):
            table = _table(n)
            for i, lam in enumerate(table.parts):
                expected = [mu for mu in enumerate_partitions(n) if dominates(lam, mu)]
                assert [table.parts[j] for j in _bits(table.below[i])] == expected

    def test_qcr_matches_diff_stats(self):
        for n in range(1, 13):
            table = _table(n)
            for i, lam in enumerate(table.parts):
                for j in _bits(table.below[i]):
                    assert _qcr(table, i, j) == astuple(diff_stats(lam, table.parts[j]))
