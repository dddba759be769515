"""ab-diagram statistics and classification against brute-force oracles."""

import pytest

from symorbit import verify
from symorbit.abdiagrams import (
    LETTERS,
    Indecomposable,
    _ortho,
    _ortho_pairs,
    a_count,
    a_partition,
    aug,
    aug_any,
    b_count,
    b_partition,
    canonical,
    decompose,
    delta_stat,
    diagram_key,
    enumerate_all_diagrams,
    enumerate_ortho,
    format_diagram,
    has_property_P,
    is_ortho_symmetric,
    o_stat,
    parse_diagram,
    recompose,
    row_letter_counts,
    row_word,
    substring_count,
)

PICTURE = parse_diagram("ababa/ba/b/a")


def _multisets(items, na, nb):
    """Every multiset of items using exactly na a's and nb b's.

    items holds (item, a_count, b_count) triples; each multiset lists its
    items in item order, and the multisets come in lexicographic order.
    """
    out = []
    acc = []

    def rec(start, ra, rb):
        if ra == 0 and rb == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(items)):
            item, ca, cb = items[idx]
            if ca <= ra and cb <= rb:
                acc.append(item)
                rec(idx, ra - ca, rb - cb)
                acc.pop()

    rec(0, na, nb)
    return out


def diagrams_upto(letters):
    for total in range(letters + 1):
        for na in range(total + 1):
            yield from enumerate_all_diagrams(na, total - na)


def substring_count_oracle(diagram, h, leading):
    """Scan the literal row words for the pattern."""
    pattern = (leading + ("b" if leading == "a" else "a")) * h
    total = 0
    for row in diagram:
        word = row_word(row)
        total += sum(
            1 for i in range(len(word)) if word[i:].startswith(pattern)
        )
    return total


def property_p_oracle(diagram):
    if not diagram:
        return True
    top = max(length for _, length in diagram)
    return all(
        substring_count_oracle(diagram, h, "a") == substring_count_oracle(diagram, h, "b")
        for h in range(1, top + 1)
    )


def contains_row(big, small):
    """small appears as a contiguous alternating subword of big."""
    big_first, big_len = big
    small_first, small_len = small
    if small_len > big_len:
        return False
    if small_len == big_len:
        return small_first == big_first
    return True  # windows of both parities exist once big is strictly longer


def embeds(base, target):
    """Some injection matches every base row into a containing target row."""
    if not base:
        return True
    first, rest = base[0], base[1:]
    for idx, row in enumerate(target):
        if contains_row(row, first) and embeds(rest, target[:idx] + target[idx + 1:]):
            return True
    return False


def aug_oracle(base, da, db):
    """Definition-level augmentation: count, embedding and balance filter."""
    na, nb = a_count(base) + da, b_count(base) + db
    return sorted(
        (
            d
            for d in enumerate_all_diagrams(na, nb)
            if property_p_oracle(d) and embeds(base, d)
        ),
        key=diagram_key,
    )


class TestRowsAndParsing:
    def test_row_words(self):
        assert row_word(("a", 5)) == "ababa"
        assert row_word(("b", 4)) == "baba"
        assert row_word(("b", 1)) == "b"

    def test_parse_canonicalizes(self):
        assert parse_diagram("a/ba/b/ababa") == PICTURE
        assert parse_diagram("") == ()

    def test_format_round_trip(self):
        for diagram in diagrams_upto(7):
            assert parse_diagram(format_diagram(diagram)) == diagram

    @pytest.mark.parametrize("text", ["abba", "aab", "abc", "ab//a", "/", "a b"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_diagram(text)


class TestProjections:
    def test_a_partition_examples(self):
        assert a_partition(parse_diagram("ababa/a")) == (3, 1)
        assert a_partition(parse_diagram("b")) == ()
        assert a_partition(PICTURE) == (3, 1, 1)

    def test_b_partition_examples(self):
        assert b_partition(parse_diagram("ababa/a")) == (2,)
        assert b_partition(parse_diagram("a")) == ()
        assert b_partition(PICTURE) == (2, 1, 1)

    def test_sizes_match_letter_counts(self):
        for diagram in diagrams_upto(8):
            assert sum(a_partition(diagram)) == a_count(diagram)
            assert sum(b_partition(diagram)) == b_count(diagram)


class TestSubstringCounts:
    def test_picture_examples(self):
        assert substring_count(PICTURE, 1, "a") == 2
        assert substring_count(PICTURE, 1, "b") == 3
        assert substring_count(parse_diagram("a"), 1, "a") == 0
        assert substring_count(parse_diagram("a"), 3, "b") == 0

    def test_against_scanning_oracle(self):
        for diagram in diagrams_upto(8):
            for h in (1, 2, 3, 4):
                for leading in "ab":
                    assert substring_count(diagram, h, leading) == substring_count_oracle(
                        diagram, h, leading
                    )

    def test_odd_single_rows_count_down(self):
        # one occurrence fewer for each extra pair of letters consumed
        for k in range(6):
            alpha = (("a", 2 * k + 1),)
            for h in range(1, k + 1):
                assert substring_count(alpha, h, "a") == k - h + 1
                assert substring_count(alpha, h, "b") == k - h + 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            substring_count(PICTURE, 0, "a")
        with pytest.raises(ValueError):
            substring_count(PICTURE, 1, "c")


class TestPropertyP:
    def test_examples(self):
        assert has_property_P(parse_diagram("ababa"))
        assert not has_property_P(PICTURE)
        assert has_property_P(())

    def test_matches_oracle(self):
        for diagram in diagrams_upto(9):
            assert has_property_P(diagram) == property_p_oracle(diagram)


class TestIndecomposables:
    def test_letter_counts_table(self):
        for k in range(7):
            assert Indecomposable("alpha", k).letter_counts() == (k + 1, k)
            assert Indecomposable("beta", k).letter_counts() == (k, k + 1)
            if k >= 1:
                assert Indecomposable("epsilon", k).letter_counts() == (2 * k, 2 * k)

    def test_rows_have_property_p(self):
        for k in range(6):
            assert has_property_P(canonical(Indecomposable("alpha", k).rows()))
            assert has_property_P(canonical(Indecomposable("beta", k).rows()))
            if k >= 1:
                assert has_property_P(canonical(Indecomposable("epsilon", k).rows()))


class TestDecompose:
    def test_examples(self):
        assert decompose(parse_diagram("aba/a")) == (
            Indecomposable("alpha", 0),
            Indecomposable("alpha", 1),
        )
        assert decompose(parse_diagram("abab/baba")) == (Indecomposable("epsilon", 2),)
        assert decompose(parse_diagram("abab")) is None
        assert decompose(parse_diagram("b")) == (Indecomposable("beta", 0),)

    def test_reassembles(self):
        for diagram in diagrams_upto(9):
            pieces = decompose(diagram)
            if pieces is not None:
                assert recompose(pieces) == diagram

    def test_classification_equivalence(self):
        for diagram in diagrams_upto(10):
            assert is_ortho_symmetric(diagram) == property_p_oracle(diagram)


class TestStatistics:
    def test_o_stat(self):
        assert o_stat(parse_diagram("b/a/a/a")) == 4
        assert o_stat(parse_diagram("abab/baba")) == 0
        assert o_stat(parse_diagram("ababa/a")) == 2

    def test_delta_stat(self):
        assert delta_stat(parse_diagram("b/a/a/a")) == 3
        assert delta_stat(parse_diagram("aba/bab")) == 1
        assert delta_stat(parse_diagram("ababa/a")) == 0


@pytest.mark.parametrize("call", [enumerate_all_diagrams, enumerate_ortho,
                                  lambda na, nb: aug_any((), na, nb), _ortho_pairs],
                         ids=["enumerate_all_diagrams", "enumerate_ortho", "aug_any",
                              "ortho_pairs"])
@pytest.mark.parametrize("na, nb", [(-1, 0), (0, -1), (2, -3)])
def test_negative_letter_count_rejected(call, na, nb):
    with pytest.raises(ValueError, match="^letter counts must be nonnegative$"):
        call(na, nb)


class TestEnumerateOrtho:
    def test_examples(self):
        assert {format_diagram(d) for d in enumerate_ortho(3, 1)} == {"aba/a", "a/a/a/b"}
        assert [format_diagram(d) for d in enumerate_ortho(1, 0)] == ["a"]
        assert {format_diagram(d) for d in enumerate_ortho(2, 2)} == {
            "ab/ba",
            "aba/b",
            "bab/a",
            "a/a/b/b",
        }

    def test_against_filter_oracle(self):
        for letters in range(13):
            for na in range(letters + 1):
                nb = letters - na
                expected = {
                    d
                    for d in enumerate_all_diagrams(na, nb)
                    if property_p_oracle(d)
                }
                got = enumerate_ortho(na, nb)
                assert set(got) == expected
                assert len(got) == len(expected)

    def test_against_piece_multisets(self):
        # same diagrams in the same order as every multiset of pieces
        # fitting the letters, reassembled and sorted by diagram_key
        total = 0
        for letters in range(21):
            for na in range(letters + 1):
                nb = letters - na
                pieces = [Indecomposable("alpha", k) for k in range(min(na - 1, nb) + 1)]
                pieces += [Indecomposable("beta", k) for k in range(min(na, nb - 1) + 1)]
                pieces += [Indecomposable("epsilon", k) for k in range(1, min(na, nb) // 2 + 1)]
                counted = [(piece, *piece.letter_counts()) for piece in pieces]
                expected = sorted(
                    (recompose(found) for found in _multisets(counted, na, nb)),
                    key=diagram_key,
                )
                assert enumerate_ortho(na, nb) == tuple(expected)
                total += len(expected)
        assert total == 10535

    def test_walk_carries_partitions(self):
        # the walk builds both partitions without a sort; they must be
        # the sorted per-row counts of its own diagram, zeros dropped
        total = 0
        for letters in range(23):
            for na in range(letters + 1):
                for d, _, a_part, b_part in _ortho(na, letters - na):
                    assert a_part == a_partition(d) and b_part == b_partition(d)
                    assert 0 not in a_part and 0 not in b_part
                    total += 1
        assert total == 18693

    def test_all_diagrams_in_key_order(self):
        # ortho_equiv reports its counterexamples in this order
        total = 0
        for letters in range(13):
            for na in range(letters + 1):
                got = enumerate_all_diagrams(na, letters - na)
                assert got == tuple(sorted(set(got), key=diagram_key))
                assert all(a_count(d) == na and b_count(d) == letters - na for d in got)
                total += len(got)
        assert total == 3132

    def test_all_diagrams_against_row_multisets(self):
        # every multiset of rows, in canonical row order, fitting the letters
        total = 0
        for letters in range(15):
            for na in range(letters + 1):
                nb = letters - na
                rows = [(first, length) for length in range(letters, 0, -1) for first in LETTERS]
                counted = [(row, *row_letter_counts(row)) for row in rows]
                expected = tuple(_multisets(counted, na, nb))
                assert enumerate_all_diagrams(na, nb) == expected
                total += len(expected)
        assert total == 7567

    def test_all_results_valid(self):
        for d in enumerate_ortho(5, 4):
            assert a_count(d) == 5 and b_count(d) == 4
            assert is_ortho_symmetric(d)

    def test_letter_bound(self):
        with pytest.raises(ValueError):
            enumerate_ortho(40, 40)
        with pytest.raises(ValueError, match="^80 letters exceed the bound 64$"):
            _ortho_pairs(40, 40)
        with pytest.raises(ValueError, match="^80 letters exceed the bound 64$"):
            enumerate_all_diagrams(40, 40)
        # the base's letters count too: 3 + 2 + 30 + 30
        with pytest.raises(ValueError, match="^65 letters exceed the bound 64$"):
            aug_any(parse_diagram("ababa"), 30, 30)


class TestAug:
    def test_worked_example(self):
        base = parse_diagram("aba/aba/b")
        got = {format_diagram(d) for d in aug_any(base, 1, 1)}
        assert got == {"ababa/aba/b", "aba/aba/bab", "aba/aba/a/b/b"}
        with pytest.raises(ValueError):
            aug(base, 1, 1)  # a row starts with b, so the checked form refuses

    def test_nothing_added(self):
        base = parse_diagram("aba/a")
        assert aug(base, 0, 0) == [base]

    def test_lone_b_opens_new_row(self):
        base = parse_diagram("a/a/a")
        assert [format_diagram(d) for d in aug(base, 0, 1)] == ["a/a/a/b"]

    def test_precondition(self):
        with pytest.raises(ValueError):
            aug(parse_diagram("ab"), 1, 0)
        with pytest.raises(ValueError):
            aug(parse_diagram("bab"), 1, 0)
        assert aug((), 1, 0) == [(("a", 1),)]

    # every base with at most 5 letters, then longer bases whose repeated
    # rows exercise the growth of identical rows
    @pytest.mark.parametrize(
        "base_text",
        [format_diagram(d) for d in diagrams_upto(5)]
        + ["aba/aba/b", "aba/aba/a", "ababa/ababa/b"],
    )
    def test_against_embedding_oracle(self, base_text):
        base = parse_diagram(base_text)
        for da in range(5):
            for db in range(5 - da):
                assert aug_any(base, da, db) == aug_oracle(base, da, db)

    def test_augmentations_against_embedding_oracle(self):
        # the comb_maxab space serves every (da, db) of a base from one
        # walk; each must match the definition-level augmentation
        keys = [(da, db) for da in range(5) for db in range(5 - da)]
        for n in range(8):
            bases = list(verify._a_bases(n))
            assert set(bases) == {
                d for na in range(n + 1) for d in enumerate_all_diagrams(na, n - na)
                if all(first == "a" and length % 2 == 1 for first, length in d)
            }
            expected = [(base, da, db, d) for base in bases for da, db in keys
                        for d in aug_oracle(base, da, db)]
            assert list(verify._augmentations(n)) == expected

    def test_growth_bound_small(self):
        # added odd rows can raise the odd-row surplus by at most max(da, db)
        for base_text in ("", "a", "a/a", "aba", "aba/a", "ababa/a/a"):
            base = parse_diagram(base_text)
            for da in range(4):
                for db in range(4 - da):
                    for grown in aug(base, da, db):
                        value = o_stat(grown) - 2 * delta_stat(grown) - o_stat(base)
                        assert value <= max(da, db)

    def test_single_b_equality_small(self):
        for base_text in ("", "a", "a/a", "aba", "aba/a", "aba/aba", "ababa/a/a"):
            base = parse_diagram(base_text)
            ones = sum(1 for _, length in base if length == 1)
            results = aug(base, 0, 1)
            assert results
            for grown in results:
                value = o_stat(grown) - 2 * delta_stat(grown) - o_stat(base)
                assert value == 1 - 2 * ones
