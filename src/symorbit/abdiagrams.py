"""Alternating ab-strings and ab-diagrams.

A row is a pair (first letter, length); alternation makes the rest of the
word implicit.  A diagram is the tuple of its rows sorted canonically
(length descending, 'a'-leading before 'b'-leading), so two diagrams are
equal exactly when they are the same multiset of rows.

The ortho-symmetric diagrams are the ones that split into the three
standard pieces:

    alpha(k)   single odd row  (ab)^k a      k+1 a's, k b's,  k >= 0
    beta(k)    single odd row  (ba)^k b      k a's, k+1 b's,  k >= 0
    epsilon(k) even rows (ab)^k and (ba)^k   2k a's, 2k b's,  k >= 1

Equivalently, the counts of the subwords (ab)^h and (ba)^h agree for every
h; both characterizations are implemented and checked against each other.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import cycle
from typing import Iterable, NamedTuple

from .partitions import Partition

Row = tuple[str, int]
Diagram = tuple[Row, ...]

LETTERS = ("a", "b")
LETTER_BOUND = 64


def other(letter: str) -> str:
    return "b" if letter == "a" else "a"


def row_word(row: Row) -> str:
    first, length = row
    return (first + other(first)) * (length // 2) + first * (length % 2)


def row_letter_counts(row: Row) -> tuple[int, int]:
    """(#a, #b) of the row; the leading letter takes the extra odd slot."""
    first, length = row
    lead, trail = (length + 1) // 2, length // 2
    return (lead, trail) if first == "a" else (trail, lead)


def canonical(rows: Iterable[Row]) -> Diagram:
    return tuple(sorted(rows, key=lambda r: (-r[1], r[0])))


def diagram_key(diagram: Diagram):
    """Sort key giving a fixed total order on diagrams."""
    return tuple((-length, first) for first, length in diagram)


def parse_diagram(text: str) -> Diagram:
    """Parse rows separated by '/', e.g. 'ababa/ba/b/a'; '' is the empty diagram."""
    s = text.strip()
    if not s:
        return ()
    rows = []
    for chunk in s.split("/"):
        word = chunk.strip()
        if not word:
            raise ValueError(f"empty row in diagram literal {text!r}")
        if any(ch not in LETTERS for ch in word):
            raise ValueError(f"row {word!r} contains letters outside a/b")
        for ch, expected in zip(word, cycle(word[0] + other(word[0]))):
            if ch != expected:
                raise ValueError(f"row {word!r} does not alternate")
        rows.append((word[0], len(word)))
    return canonical(rows)


def format_diagram(diagram: Diagram) -> str:
    return "/".join(row_word(row) for row in diagram)


def a_count(diagram: Diagram) -> int:
    return sum(row_letter_counts(row)[0] for row in diagram)


def b_count(diagram: Diagram) -> int:
    return sum(row_letter_counts(row)[1] for row in diagram)


@lru_cache(maxsize=None)
def a_partition(diagram: Diagram) -> Partition:
    """Per-row a-counts as a partition (zero rows dropped)."""
    counts = sorted((row_letter_counts(row)[0] for row in diagram), reverse=True)
    return tuple(c for c in counts if c > 0)


@lru_cache(maxsize=None)
def b_partition(diagram: Diagram) -> Partition:
    """Per-row b-counts as a partition (zero rows dropped)."""
    counts = sorted((row_letter_counts(row)[1] for row in diagram), reverse=True)
    return tuple(c for c in counts if c > 0)


def substring_count(diagram: Diagram, h: int, leading: str) -> int:
    """Occurrences of (ab)^h (leading='a') or (ba)^h (leading='b') in the rows.

    A start position works iff it carries the leading letter and leaves 2h
    letters, so counting odd/even positions gives a closed form per row.
    """
    if h < 1:
        raise ValueError("h must be a positive integer")
    if leading not in LETTERS:
        raise ValueError(f"leading letter must be 'a' or 'b', got {leading!r}")
    total = 0
    for first, length in diagram:
        starts = length - 2 * h + 1
        if starts <= 0:
            continue
        total += (starts + 1) // 2 if leading == first else starts // 2
    return total


def has_property_P(diagram: Diagram) -> bool:
    """Counts of (ab)^h and (ba)^h agree for every h."""
    if not diagram:
        return True
    top = (diagram[0][1] + 1) // 2  # rows are sorted longest first
    return all(
        substring_count(diagram, h, "a") == substring_count(diagram, h, "b")
        for h in range(1, top + 1)
    )


class Indecomposable(NamedTuple):
    kind: str  # "alpha" | "beta" | "epsilon"
    k: int

    def rows(self) -> Diagram:
        if self.kind == "alpha":
            return (("a", 2 * self.k + 1),)
        if self.kind == "beta":
            return (("b", 2 * self.k + 1),)
        return (("a", 2 * self.k), ("b", 2 * self.k))

    def letter_counts(self) -> tuple[int, int]:
        if self.kind == "alpha":
            return (self.k + 1, self.k)
        if self.kind == "beta":
            return (self.k, self.k + 1)
        return (2 * self.k, 2 * self.k)


def _tilt(rows: Iterable[Row]) -> tuple[tuple[int, int], ...]:
    """Per even length, a-led rows minus b-led rows, as the sorted
    (length, tilt) pairs whose tilt is nonzero."""
    tilt: dict[int, int] = {}
    for first, length in rows:
        if length % 2 == 0:
            tilt[length] = tilt.get(length, 0) + (1 if first == "a" else -1)
    return tuple(sorted((length, t) for length, t in tilt.items() if t))


@lru_cache(maxsize=None)
def decompose(diagram: Diagram) -> tuple[Indecomposable, ...] | None:
    """Split into alpha/beta/epsilon pieces, or None when impossible.

    Even rows must pair one 'a'-leading with one 'b'-leading row of equal
    length, which holds iff the diagram has no tilt (_tilt); a tilted
    diagram returns None before any piece is built.  Otherwise odd rows
    convert directly and each a-leading even row adds one epsilon.
    """
    if _tilt(diagram):
        return None
    pieces = []
    for first, length in diagram:
        if length % 2 == 1:
            pieces.append(Indecomposable("alpha" if first == "a" else "beta", length // 2))
        elif first == "a":
            pieces.append(Indecomposable("epsilon", length // 2))
    return tuple(sorted(pieces))


def recompose(pieces: Iterable[Indecomposable]) -> Diagram:
    rows: list[Row] = []
    for piece in pieces:
        rows.extend(piece.rows())
    return canonical(rows)


def is_ortho_symmetric(diagram: Diagram) -> bool:
    return decompose(diagram) is not None


def o_stat(diagram: Diagram) -> int:
    """Number of odd-length rows."""
    return sum(1 for _, length in diagram if length % 2 == 1)


def delta_stat(diagram: Diagram) -> int:
    """Sum over odd lengths of (#a-leading rows) * (#b-leading rows)."""
    odd: Counter[Row] = Counter()
    for first, length in diagram:
        if length % 2 == 1:
            odd[(first, length)] += 1
    lengths = {length for _, length in odd}
    return sum(odd[("a", length)] * odd[("b", length)] for length in lengths)


@lru_cache(maxsize=None)
def enumerate_all_diagrams(na: int, nb: int) -> tuple[Diagram, ...]:
    """Every diagram (ortho-symmetric or not) with exactly na a's and nb b's,
    in diagram_key order.

    The brute side of the piece walk (_pieces), sharing no code with it:
    row lengths from longest to shortest, each count running downwards.
    A length takes p a-led rows, then q b-led rows, and at length 1 the
    letters left become single-letter rows.  More rows of a length,
    a-led ones first, come first, which is diagram_key order.
    """
    _check_letters(na, nb)
    out: list[Diagram] = []
    # one tuple per row, shared by every diagram that holds it
    row_pairs = [(("a", length), ("b", length)) for length in range(na + nb + 2)]

    def walk(length: int, rows: Diagram, ra: int, rb: int) -> None:
        length = min(length, 2 * min(ra, rb) + 1)
        if length <= 1:
            a_one, b_one = row_pairs[1]
            out.append(rows + (a_one,) * ra + (b_one,) * rb)
            return
        a_row, b_row = row_pairs[length]
        lead, trail = (length + 1) // 2, length // 2
        for p in range(min(ra // lead, rb // trail), -1, -1):
            sa, sb = ra - p * lead, rb - p * trail
            for q in range(min(sa // trail, sb // lead), -1, -1):
                walk(length - 1, rows + (a_row,) * p + (b_row,) * q,
                     sa - q * trail, sb - q * lead)

    walk(na + nb, (), na, nb)
    return tuple(out)


@lru_cache(maxsize=None)
def _extras_by_tilt(na: int, nb: int) -> dict[tuple[tuple[int, int], ...], list[Diagram]]:
    """enumerate_all_diagrams(na, nb) grouped by _tilt, each group in key order."""
    groups: dict[tuple[tuple[int, int], ...], list[Diagram]] = {}
    for diagram in enumerate_all_diagrams(na, nb):
        groups.setdefault(_tilt(diagram), []).append(diagram)
    return groups


def _check_letters(na: int, nb: int) -> None:
    if na < 0 or nb < 0:
        raise ValueError("letter counts must be nonnegative")
    if na + nb > LETTER_BOUND:
        raise ValueError(f"{na + nb} letters exceed the bound {LETTER_BOUND}")


def _pieces(na: int, nb: int, leaf) -> None:
    """Walk the ortho-symmetric diagrams with na a's and nb b's by their
    pieces, in diagram_key order, down to rows of length 3.

    Row lengths are walked from longest to shortest, each step starting
    at the longest row the letters left still fit.  An odd length 2k+1
    takes p alpha(k) rows, then q beta(k) rows, and adds p + q - 2pq to
    o - 2*Delta; an even length 2k takes m epsilon(k) pairs.  Each count
    runs downwards, so diagrams with more rows of a length, a-led ones
    first, come first: that is diagram_key order, since no diagram's
    rows are a prefix of another's.  Both partitions grow as the rows do
    and need no sort: an odd length appends alpha's k+1 before beta's k
    a's, and beta's k+1 before alpha's k b's.  Where no row longer than
    3 fits, leaf(rows, ra, rb, weight4, a_part, b_part) loops over p
    aba rows, q bab rows, m epsilon(1) pairs and single letters, counts
    running downwards (below length 3, no aba or bab fits).  Every a
    outside the aba rows is a part 1, so there the a-partition depends
    on p alone, the b-partition on q alone.
    """
    _check_letters(na, nb)

    def walk(length: int, rows: Diagram, ra: int, rb: int, weight4: int,
             a_part: Partition, b_part: Partition) -> None:
        length = min(length, 2 * min(ra, rb) + 1)
        if length <= 3:
            leaf(rows, ra, rb, weight4, a_part, b_part)
            return
        a_row, b_row = ("a", length), ("b", length)
        k = length // 2  # alpha(k) has k + 1 a's and k b's, beta(k) the reverse
        if length % 2 == 0:
            for m in range(min(ra, rb) // length, -1, -1):
                walk(length - 1, rows + (a_row,) * m + (b_row,) * m,
                     ra - m * length, rb - m * length, weight4,
                     a_part + (k,) * (2 * m), b_part + (k,) * (2 * m))
            return
        for p in range(min(ra // (k + 1), rb // k), -1, -1):
            sa, sb = ra - p * (k + 1), rb - p * k
            for q in range(min(sa // k, sb // (k + 1)), -1, -1):
                walk(length - 1, rows + (a_row,) * p + (b_row,) * q,
                     sa - q * k, sb - q * (k + 1), weight4 + p + q - 2 * p * q,
                     a_part + (k + 1,) * p + (k,) * q, b_part + (k + 1,) * q + (k,) * p)

    walk(na + nb, (), na, nb, 0, (), ())


def _ortho(na: int, nb: int) -> list[tuple[Diagram, int, Partition, Partition]]:
    """Every ortho-symmetric diagram with na a's and nb b's, with its
    o - 2*Delta, a_partition and b_partition, in diagram_key order: the
    piece walk (_pieces) with a leaf that builds each diagram.  This
    feeds the listings, enumerate_ortho and the label witnesses.
    """
    out: list[tuple[Diagram, int, Partition, Partition]] = []
    aba, bab, ab2, ba2, a1, b1 = ("a", 3), ("b", 3), ("a", 2), ("b", 2), ("a", 1), ("b", 1)

    def leaf(rows: Diagram, ra: int, rb: int, weight4: int,
             a_part: Partition, b_part: Partition) -> None:
        for p in range(min(ra // 2, rb), -1, -1):
            sa, sb = ra - 2 * p, rb - p
            a_key = a_part + (2,) * p + (1,) * sa
            for q in range(min(sa, sb // 2), -1, -1):
                ra1, rb1 = sa - q, sb - 2 * q
                head = rows + (aba,) * p + (bab,) * q
                pq = weight4 + p + q - 2 * p * q
                b_key = b_part + (2,) * q + (1,) * (rb - 2 * q)
                for m in range(min(ra1, rb1) // 2, -1, -1):
                    ta, tb = ra1 - 2 * m, rb1 - 2 * m
                    out.append((head + (ab2,) * m + (ba2,) * m + (a1,) * ta + (b1,) * tb,
                                pq + ta + tb - 2 * ta * tb, a_key, b_key))

    _pieces(na, nb, leaf)
    return out


def _ortho_pairs(na: int, nb: int) -> dict[tuple[Partition, Partition], list[int]]:
    """The ortho-symmetric diagrams with na a's and nb b's grouped by
    (a_partition, b_partition): per pair [largest o - 2*Delta, number of
    diagrams], keyed in the order of each pair's first diagram: the
    piece walk (_pieces) with a leaf that builds no diagram.
    """
    pairs: dict[tuple[Partition, Partition], list[int]] = {}

    def leaf(rows: Diagram, ra: int, rb: int, weight4: int,
             a_part: Partition, b_part: Partition) -> None:
        # each (p, q) fixes one pair for the diagrams below it: the ra1,
        # rb1 letters left make m = 0..most epsilon(1) pairs, most + 1
        # diagrams.  A further epsilon pair, from ta, tb >= 2 single
        # letters, raises the weight by 4(ta + tb - 3) > 0, so the most
        # pairs weigh most, and the rows of length 2 and 1 are counted.
        b_keys = [b_part + (2,) * q + (1,) * (rb - 2 * q)
                  for q in range(min(ra, rb // 2) + 1)]
        for p in range(min(ra // 2, rb), -1, -1):
            sa, sb = ra - 2 * p, rb - p
            a_key = a_part + (2,) * p + (1,) * sa
            for q in range(min(sa, sb // 2), -1, -1):
                ra1, rb1 = sa - q, sb - 2 * q
                most = min(ra1, rb1) // 2
                ta, tb = ra1 - 2 * most, rb1 - 2 * most
                top = weight4 + p + q - 2 * p * q + ta + tb - 2 * ta * tb
                key = (a_key, b_keys[q])
                pair = pairs.get(key)
                if pair is None:
                    pairs[key] = [top, most + 1]
                else:
                    if top > pair[0]:
                        pair[0] = top
                    pair[1] += most + 1

    _pieces(na, nb, leaf)
    return pairs


@lru_cache(maxsize=None)
def enumerate_ortho(na: int, nb: int) -> tuple[Diagram, ...]:
    """All ortho-symmetric diagrams with exactly na a's and nb b's.

    Built row length by row length from the alpha/beta/epsilon pieces
    (_ortho), which is exponentially smaller than filtering all diagrams
    and already in diagram_key order.
    """
    return tuple(entry[0] for entry in _ortho(na, nb))


def aug(base: Diagram, da: int, db: int) -> list[Diagram]:
    """Ortho-symmetric diagrams reachable from base by adding da a's and db b's.

    Requires every row of base to be odd and to start and end with 'a'
    (base may also be empty).  Use aug_any for arbitrary base diagrams.
    """
    return _augment(base, ((da, db),))[da, db]


def _augment(base: Diagram, keys) -> dict[tuple[int, int], list[Diagram]]:
    """aug for every (da, db) in keys, from one walk over base."""
    for first, length in base:
        if first != "a" or length % 2 == 0:
            raise ValueError(
                "aug needs rows starting and ending with 'a'; use aug_any instead"
            )
    return _aug_walk(base, keys)


def aug_any(base: Diagram, da: int, db: int) -> list[Diagram]:
    """aug without the precondition on the rows of base.

    The grown diagram's letters, base's plus da + db, must stay within
    the letter bound.  See _aug_walk for how the diagrams are found.
    """
    return _aug_walk(base, ((da, db),))[da, db]


def _aug_walk(base: Diagram, keys) -> dict[tuple[int, int], list[Diagram]]:
    """Per (da, db) in keys, in keys' order, the ortho-symmetric diagrams
    reachable from base by adding da a's and db b's, sorted by diagram_key.

    A row of base grows only at its ends (alternation rules out interior
    insertion).  Adding s letters to it gives one of two rows of its
    length plus s, told apart by the leading letter, however s splits
    between the ends, so each base row offers each distinct grown row
    once, as (grown row, added a's, added b's) in a fixed order.
    Identical base rows sit next to each other in canonical order and
    take options in non-decreasing index, so each multiset of grown rows
    is tried once, and a growth no key has the letters for is pruned.
    A leaf that has used ua a's and ub b's serves each key with
    da >= ua and db >= ub: the letters left open new rows, and only the
    extras whose tilt cancels the grown rows' tilt can make a diagram
    that splits.  Each candidate is still confirmed by
    is_ortho_symmetric, then deduplicated.
    """
    na, nb = a_count(base), b_count(base)
    for da, db in keys:
        if da < 0 or db < 0:
            raise ValueError("letter counts must be nonnegative")
        _check_letters(na + da, nb + db)
    fits = {(ua, ub) for da, db in keys for ua in range(da + 1) for ub in range(db + 1)}
    results: dict[tuple[int, int], set[Diagram]] = {key: set() for key in keys}
    rows = list(base)
    budget = max(da + db for da, db in keys)
    options = [_growth_options(row, budget) for row in rows]
    acc: list[Row] = []

    def extend(idx: int, prev: int, ua: int, ub: int) -> None:
        if idx == len(rows):
            cancel = tuple((length, -t) for length, t in _tilt(acc))
            for (da, db), found in results.items():
                if da >= ua and db >= ub:
                    for extra in _extras_by_tilt(da - ua, db - ub).get(cancel, ()):
                        candidate = canonical(acc + list(extra))
                        if is_ortho_symmetric(candidate):
                            found.add(candidate)
            return
        start = prev if idx and rows[idx] == rows[idx - 1] else 0
        for pos in range(start, len(options[idx])):
            grown, need_a, need_b = options[idx][pos]
            if (ua + need_a, ub + need_b) in fits:
                acc.append(grown)
                extend(idx + 1, pos, ua + need_a, ub + need_b)
                acc.pop()

    extend(0, 0, 0, 0)
    return {key: sorted(found, key=diagram_key) for key, found in results.items()}


def _growth_options(row: Row, budget: int) -> list[tuple[Row, int, int]]:
    """(grown row, added a's, added b's) for row and each growth by 1..budget."""
    first, length = row
    base_a, base_b = row_letter_counts(row)
    options = [(row, 0, 0)]
    for s in range(1, budget + 1):
        for lead in (first, other(first)):
            ca, cb = row_letter_counts((lead, length + s))
            options.append(((lead, length + s), ca - base_a, cb - base_b))
    return options
