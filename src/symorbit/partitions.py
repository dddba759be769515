"""Integer partitions: duality, dominance order, and difference measures.

A partition is a plain tuple of weakly decreasing positive ints with no
trailing zeros; the empty tuple is the partition of 0.  Keeping the raw
tuple makes equality, hashing and enumeration cheap, so every function
here is pure and safe to call from anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import comb
from operator import sub
from types import SimpleNamespace

Partition = tuple[int, ...]

# Parts and all derived sums stay well inside 64 bits up to this size.
SIZE_BOUND = 64


def check_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            raise ValueError(f"parts must be positive integers, got {p!r}")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    if sum(lam) > SIZE_BOUND:
        raise ValueError(f"partition of {sum(lam)} exceeds the size bound {SIZE_BOUND}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse a partition literal such as '3,1' or '[3, 1]' ('[]' is empty)."""
    s = text.strip()
    bracketed = s.startswith("[") and s.endswith("]")
    if bracketed:
        s = s[1:-1].strip()
    if not s:
        if bracketed:
            return ()
        raise ValueError("empty partition literal; use '[]' for the empty partition")
    try:
        parts = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition literal {text!r}") from None
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(map(str, lam)) if lam else "[]"


def dual(lam: Partition) -> Partition:
    """Transpose of the Young diagram: entry j counts the parts >= j, so
    columns lam_{k+1} + 1 .. lam_k have length k (lam_{l+1} = 0 past row l)."""
    padded = (*lam, 0)
    return tuple(k for k in range(len(lam), 0, -1) for _ in range(padded[k - 1] - padded[k]))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: every prefix sum of lam meets or exceeds mu's.

    Only partitions of the same integer are comparable; anything else is
    rejected rather than silently ordered.
    """
    if sum(lam) != sum(mu):
        raise ValueError(
            f"incomparable inputs: |{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}"
        )
    acc = 0
    for a, b in zip_longest(lam, mu, fillvalue=0):
        acc += a - b
        if acc < 0:
            return False
    return True


def s_step(lam: Partition, s: int) -> bool:
    """True iff consecutive parts (with a trailing 0) drop by at most s."""
    if s < 1:
        raise ValueError("step size must be a positive integer")
    padded = tuple(lam) + (0,)
    return all(a - b <= s for a, b in zip(padded, padded[1:]))


@dataclass(frozen=True)
class DiffStats:
    """Box-move count q, column displacement c, row displacement r.

    Defined for a dominating pair only; all three vanish together and
    c >= q always holds.
    """

    q: int
    c: int
    r: int


def _column_weight(lam: Partition) -> int:
    # Sum of column numbers over all boxes, row by row.
    return sum(comb(p + 1, 2) for p in lam)


def diff_stats(lam: Partition, mu: Partition) -> DiffStats:
    """The triple (q, c, r) measuring how far mu sits below lam."""
    if not dominates(lam, mu):
        raise ValueError(f"{lam} does not dominate {mu}; q/c/r need a dominating pair")
    return _row_stats(lam, mu)


def _row_stats(lam: Partition, mu: Partition) -> DiffStats:
    """diff_stats read from the rows alone, for a pair known to dominate."""
    rows = list(zip_longest(lam, mu, fillvalue=0))
    q = sum(abs(a - b) for a, b in rows) // 2
    c = _column_weight(lam) - _column_weight(mu)
    # r is the rise in row weight, the sum of row numbers over all boxes
    r = sum(k * (b - a) for k, (a, b) in enumerate(rows, 1))
    return DiffStats(q, c, r)


def _box_move(cur, target, first: int = 0, j: int = 0) -> tuple[int, int, int] | None:
    """The next box move of a degeneration chain from cur down to target.

    Returns (first, i, j): first is the first row where cur differs from
    target, and the box leaves row i, the last row of the block of rows
    equal to cur[first], for row j, the first row that falls short of
    target.  None when cur equals target.  target is zero-padded to the
    width of the chain and cur to one more row.  The scans start at first
    and j, so a caller may pass the pointers of the previous move or
    restart them at row 0.
    """
    width = len(target)
    while first < width and cur[first] == target[first]:
        first += 1
    if first == width:
        return None
    while cur[j] >= target[j]:
        j += 1
    i = first
    while cur[i + 1] == cur[first]:
        i += 1
    if i >= j:
        raise AssertionError("box move would not preserve the partition shape")
    return first, i, j


def degeneration_chain(lam: Partition, mu: Partition) -> list[Partition]:
    """Single-box degenerations stepping from lam down to mu.

    Each step lowers one box: it is removed from the last row of the first
    block of rows exceeding the target and appended to the first row that
    falls short.  That choice keeps every row length and every column
    length monotone along the chain, and each consecutive pair is at
    q-distance exactly 1.  Returns [lam] when lam == mu.

    Both pointers only move forward.  The rows before `first` always equal
    the target, and a moved box leaves its row at least as long as the
    target's (cur[i] - 1 >= target[i]), so no row ever drops below the
    target again and `j`, the first row that falls short, never moves back.
    So the move read from the current rows alone, with both scans from row
    0, is the same: _box_move is the one rule, and _index_chain builds the
    suites' chains from it as table indices.  It follows that the tail of
    a chain, from its second entry on, is the chain from that entry to mu,
    so chain facts that add up along a chain, such as the box-move sums
    of qcr_identities, can be memoised per (entry, target) pair.
    """
    if not dominates(lam, mu):
        raise ValueError(f"{lam} does not dominate {mu}; no degeneration chain exists")
    width = max(len(lam), len(mu))
    # cur's trailing 0 ends the scan of a block and marks where the parts end
    cur = list(lam) + [0] * (width - len(lam) + 1)
    target = list(mu) + [0] * (width - len(mu))
    chain = [tuple(lam)]
    first = j = 0
    while (move := _box_move(cur, target, first, j)) is not None:
        first, i, j = move
        cur[i] -= 1
        cur[j] += 1
        chain.append(tuple(cur[:cur.index(0)]))
    return chain


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    out: list[Partition] = []
    acc: list[int] = []

    def rec(remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p)
            acc.pop()

    rec(n, n)
    return tuple(out)


@lru_cache(maxsize=None)
def _index(n: int) -> dict[Partition, int]:
    """Each partition of n by its position in _partitions(n)."""
    return {part: i for i, part in enumerate(_partitions(n))}


def enumerate_partitions(n: int, bound: int = SIZE_BOUND) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n > bound:
        raise ValueError(f"n = {n} exceeds the enumeration bound {bound}")
    return list(_partitions(n))


def enumerate_below(lam: Partition) -> list[Partition]:
    """Every partition dominated by lam (lam included), in enumeration order."""
    return [mu for mu in _partitions(sum(lam)) if dominates(lam, mu)]


def _lower_covers(lam: Partition):
    """The partitions that lam covers in the dominance order.

    Brylawski's characterisation: a cover moves one box from row i to a
    row j > i with j = i + 1 or rows[i] = rows[j] + 2, and the result must
    still be a partition.  So i ends its block of equal rows, and j is
    either the next row, when it is at least 2 shorter, or the first row
    past a block of length rows[i] - 1, when it has length rows[i] - 2.

    Each i gives at most one cover, and i walks from the last row up, so
    the covers come in enumeration (reverse-lex) order: a later i leaves a
    longer prefix of rows unchanged, so its cover is lex larger.
    """
    rows = lam + (0,)  # a box may move to a new last row
    for i in range(len(rows) - 2, -1, -1):
        a = rows[i]
        if rows[i + 1] == a:
            continue
        j = i + 1
        if rows[j] == a - 1:
            while j < len(rows) and rows[j] == a - 1:
                j += 1
            if j == len(rows) or rows[j] != a - 2:
                continue
        moved = list(rows)
        moved[i] -= 1
        moved[j] += 1
        yield tuple(p for p in moved if p)


@lru_cache(maxsize=None)
def _table(n: int) -> SimpleNamespace:
    """Everything the pair loops need about P(n), by index.

    parts is _partitions(n) and index inverts it.  padded holds each
    partition's rows zero-padded to n, dual the index of its transpose,
    weight its column weight and row_weight its row weight, k times row k
    summed over its rows (counted from 1); both weights are read from the
    rows, not from the transpose.  suffix holds the suffix sums of its
    zero-padded dual: entry k counts the boxes in columns k+1 onwards, and
    colsq the sum of its squared column lengths, read from that dual.
    below is the bitmask of every index it dominates, itself included,
    closed from the last index up over the _lower_covers walk: reverse-lex
    order is a linear extension of dominance, so every cover of parts[i]
    sits at a larger index and its mask is already closed.
    """
    parts = _partitions(n)
    index = _index(n)
    dual_index = tuple(index[dual(p)] for p in parts)
    below = [0] * len(parts)
    for i in reversed(range(len(parts))):
        mask = 1 << i
        for mu in _lower_covers(parts[i]):
            mask |= below[index[mu]]
        below[i] = mask
    padded = tuple(p + (0,) * (n - len(p)) for p in parts)
    return SimpleNamespace(
        parts=parts,
        index=index,
        padded=padded,
        dual=dual_index,
        suffix=tuple(tuple(accumulate(reversed(padded[d])))[::-1] for d in dual_index),
        colsq=tuple(sum(x * x for x in parts[d]) for d in dual_index),
        weight=tuple(_column_weight(p) for p in parts),
        row_weight=tuple(sum(k * p for k, p in enumerate(part, 1)) for part in parts),
        below=tuple(below),
    )


@lru_cache(maxsize=None)
def _next_steps(n: int) -> memoryview:
    """The memo of _index_chain for _table(n), read as [a, t]: the index one
    box move from parts[a] towards parts[t], 0xffff until first used.  One
    flat buffer of 16-bit entries, as it lasts the process; P(n) has fewer
    than 0xffff partitions for every n <= 43."""
    size = len(_partitions(n))
    return memoryview(bytearray(b"\xff") * (2 * size * size)).cast("H", (size, size))


def _index_chain(n: int, i: int, j: int) -> list[int]:
    """degeneration_chain(parts[i], parts[j]) of _table(n), as indices.

    parts[i] must dominate parts[j].  _box_move reads only the current
    rows and the target, so the chain from a to t is a followed by the
    chain from the next step to t: each step (a, t) is computed once,
    from padded rows, and read from _next_steps(n) after that.
    """
    steps = _next_steps(n)
    path = [i]
    while i != j:
        step = steps[i, j]
        if step == 0xffff:
            table = _table(n)
            cur = [*table.padded[i], 0]
            _, row_out, row_in = _box_move(cur, table.padded[j])
            cur[row_out] -= 1
            cur[row_in] += 1
            step = steps[i, j] = table.index[tuple(cur[:cur.index(0)])]
        path.append(step)
        i = step
    return path


def _bits(mask: int):
    """Indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _qcr(table: SimpleNamespace, i: int, j: int) -> tuple[int, int, int]:
    """(q, c, r) of the dominating pair (parts[i], parts[j]) of one table."""
    q = sum(map(abs, map(sub, table.padded[i], table.padded[j]))) // 2
    return q, table.weight[i] - table.weight[j], table.row_weight[j] - table.row_weight[i]


def dominance_covers(n: int) -> list[tuple[Partition, Partition]]:
    """Covering pairs (lam, mu) of the dominance order on partitions of n.

    Generated directly from Brylawski's characterisation of covers, with
    lam in enumeration order and its covers mu in enumeration order: the
    walk of _lower_covers yields them in that order, so nothing is sorted.
    """
    return [(lam, mu) for lam in enumerate_partitions(n) for mu in _lower_covers(lam)]
