"""Normality decisions and exhaustive desk-scale checks of the proof chain.

is_normal applies the 1-step test to a partition; everything else here
certifies, by exhaustive enumeration up to a size bound, the exact
identities and inequalities that make that test correct.

A lemma suite is a _Suite record: a space, a check, its sizes, and
optional covers and extras.  space(n) yields the instance tuples of the
one size n in a fixed order, check(*instance) yields each one's
counterexamples, covers(*item) counts an item that stands for several
instances (an orbit whose worst label bounds all of its labels), and
extras(items) sums the items up for the report.  The record's runner is
the one size loop, from start_n to n_max.  A new suite is a space
(_pairs, or _up_to with its 1-tuples (lam,), may serve), a check and a
SUITES entry.
Reports are byte-identical across runs apart from timing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter, sub
from typing import Callable

from . import abdiagrams as ab
from .partitions import (
    Partition,
    _bits,
    _box_move,
    _index_chain,
    _partitions,
    _qcr,
    _row_stats,
    _table,
    check_partition,
    s_step,
)
from .strata import (
    _orbit_tops,
    _weight4,
    _witnesses,
    dim_M,
    dim_N,
    dim_stratum,
    lambda_bound,
    sigma_zero,
    strata_spec,
    tau_zero,
)

COUNTEREXAMPLE_CAP = 10


@dataclass(frozen=True)
class NormalityVerdict:
    lam: Partition
    normal: bool
    witness: int | None  # 1-indexed first row whose drop exceeds 1
    gap_certificate: Fraction | None


@dataclass
class LemmaReport:
    lemma_id: str
    n_range: tuple[int, int]
    instances_checked: int
    counterexamples: list[dict]
    elapsed_s: float
    extras: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        out = {
            "lemma_id": self.lemma_id,
            "ok": self.ok,
            "n_range": list(self.n_range),
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "elapsed_s": self.elapsed_s,
        }
        if self.extras is not None:
            out["extras"] = self.extras
        return out


@dataclass
class StrataCheck:
    """Outcome of a per-partition stratum comparison."""

    lam: Partition
    status: str  # "ok" | "failed" | "skipped"
    reason: str | None
    instances: int
    min_gap: Fraction | None
    counterexamples: list[dict] = field(default_factory=list)
    cases: dict[str, int] | None = None
    flagged: list[dict] | None = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def normality_witness(lam: Partition) -> int | None:
    padded = tuple(lam) + (0,)
    for i, (a, b) in enumerate(zip(padded, padded[1:]), start=1):
        if a - b >= 2:
            return i
    return None


def minimum_stratum_gap(lam: Partition, bound: int | None = None) -> Fraction | None:
    """Smallest dimension drop from the maximal-rank stratum to any other."""
    lam = tuple(lam)
    gap4 = min((gap4 for mu, gap4, *_ in _orbit_gaps(lam, bound) if mu != lam), default=None)
    return None if gap4 is None else Fraction(gap4, 4)


def is_normal(lam: Partition, certify: bool = False, bound: int | None = None) -> NormalityVerdict:
    """Decide normality of the orbit closure by the 1-step test.

    With certify=True the verdict also carries the minimum stratum gap as
    a certificate.  gap_certificate is None in three cases: certify is
    off, |lam| exceeds the bound, or lam = (1^n) has no other orbit; so a
    caller telling them apart compares |lam| with lambda_bound(bound).
    """
    lam = check_partition(lam)
    witness = normality_witness(lam)
    gap = None
    if certify and lam and sum(lam) <= lambda_bound(bound):
        gap = minimum_stratum_gap(lam, bound)
    return NormalityVerdict(lam, witness is None, witness, gap)


def _orbit_gaps(lam: Partition, bound: int | None = None) -> list[tuple[Partition, int, int]]:
    """Per orbit mu <= lam, lam's own included, in orbit_extremes order:
    (mu, worst gap in quarter-units, label count), from the flat
    (mu, max, count) triples of _orbit_tops; no label is built unless
    _label_record asks for a witness.  The top stratum comes from
    dim_stratum, not the fold, once _orbit_tops has checked lam."""
    tops = _orbit_tops(lam, bound)
    top = dim_stratum(tau_zero(lam), strata_spec(lam)) * 4
    if top.denominator != 1:
        raise AssertionError(f"the top stratum of {lam} should be a quarter-integer")
    top4 = top.numerator
    return [(mu, top4 - max_dim4, count) for mu, max_dim4, count in tops]


def check_ci_condition(lam: Partition, bound: int | None = None) -> StrataCheck:
    """For a 2-step partition, certify the maximal-rank stratum is strictly top.

    The comparison runs over the worst (highest-dimensional) label of each
    orbit, which bounds every other label of that orbit at once.
    """
    def judge(mu, gap4, count):
        if gap4 <= 0:
            yield _label_record(lam, mu, gap4)

    return _gap_check(lam, 2, bound, judge)


def check_normality_gap(lam: Partition, bound: int | None = None) -> StrataCheck:
    """For a 1-step partition, certify every other stratum sits >= 2 below.

    Each orbit is also classified by its (q, c): the tight cases q=c=2 and
    q=1, c in {1,2,3}, or the general route c+q >= 5 where the quarter
    bound already exceeds 1.  General-route orbits are flagged rather than
    failed; an orbit fitting no route would be a counterexample, but
    c >= q >= 1 makes the three routes exhaustive.
    """
    cases: Counter[str] = Counter()
    flagged: list[dict] = []

    def judge(mu, gap4, count):
        if gap4 < 8:
            yield _label_record(lam, mu, gap4, problem="gap below 2")
        stats = _row_stats(lam, mu)
        if stats.q == 2 and stats.c == 2:
            bucket = "q2c2"
        elif stats.q == 1 and stats.c in (1, 2, 3):
            bucket = f"q1c{stats.c}"
        elif stats.c + stats.q >= 5:
            bucket = "general_bound"
            flagged.append(
                {
                    "lambda": list(lam),
                    "mu": list(mu),
                    "labels": count,
                    "bound_num4": 2 * stats.r - stats.c - stats.q,
                    "min_gap_num4": gap4,
                }
            )
        else:
            bucket = "uncovered"
            yield _label_record(lam, mu, gap4, problem="case coverage",
                                q=stats.q, c=stats.c, r=stats.r)
        cases[bucket] += count

    result = _gap_check(lam, 1, bound, judge)
    if result.status != "skipped":
        result.cases = dict(sorted(cases.items()))
        result.flagged = flagged
    return result


def _gap_check(lam: Partition, s: int, bound: int | None, judge) -> StrataCheck:
    """Count labels and the minimum gap over the orbits below an s-step lam;
    judge(mu, gap4, count) yields one orbit's counterexamples."""
    lam = check_partition(lam)
    if not lam:
        return StrataCheck(lam, "skipped", "empty partition", 0, None)
    if not s_step(lam, s):
        return StrataCheck(lam, "skipped", f"precondition unmet: not {s}-step", 0, None)
    instances = 0
    min_gap4: int | None = None
    ces: list[dict] = []
    for mu, gap4, count in _orbit_gaps(lam, bound):
        if mu == lam:
            continue
        instances += count
        if min_gap4 is None or gap4 < min_gap4:
            min_gap4 = gap4
        ces.extend(judge(mu, gap4, count))
    status = "failed" if ces else "ok"
    min_gap = None if min_gap4 is None else Fraction(min_gap4, 4)
    return StrataCheck(lam, status, None, instances, min_gap, ces)


def _label_record(lam: Partition, mu: Partition, gap4: int, **fields) -> dict:
    """A counterexample at the orbit mu below lam, with the orbit's first
    worst label as its witness, rebuilt here and only here."""
    return {
        "lambda": list(lam),
        "tau": [ab.format_diagram(d) for d in _witnesses(lam)[mu]],
        "mu": list(mu),
        "gap_num4": gap4,
        **fields,
    }


# ---------------------------------------------------------------------------
# Exhaustive lemma suites.  Each space takes one size n and yields that
# size's instance tuples in a fixed order.

def _up_to(n: int):
    """Every partition of n as (lam,), in enumeration order."""
    for lam in _partitions(n):
        yield (lam,)


def _pairs(n: int, strict: bool = False):
    """Every dominating pair of size n as (table, i, j); strict drops i == j."""
    table = _table(n)
    for i, mask in enumerate(table.below):
        for j in _bits(mask & ~(1 << i) if strict else mask):
            yield table, i, j


def _pair_record(table, i: int, j: int, **fields) -> dict:
    """Counterexample naming the pair (parts[i], parts[j]), then fields."""
    return {"lambda": list(table.parts[i]), "mu": list(table.parts[j]), **fields}


@lru_cache(maxsize=None)
def _step_l1(n: int) -> memoryview:
    """The memo of _check_diff_ind for _table(n): entry [a, b] is the L1
    distance between the padded rows of parts[a] and parts[b], 0xff until
    first used; no distance exceeds 2n."""
    size = len(_partitions(n))
    return memoryview(bytearray(b"\xff") * (size * size)).cast("B", (size, size))


def _check_diff_ind(table, i: int, j: int):
    """The chain is _index_chain's path of table indices, built from the
    padded rows one box move at a time; each step's L1 length is read from
    _step_l1.  A None in the path stands for a partition outside P(n).
    Ends, length and unit steps make every row length monotone: q steps of
    L1 length 2 add up to 2q, the L1 distance between the ends, so no row
    turns back.  Rows and columns have equal L1 distances (both count the
    boxes of the symmetric difference of two diagrams), so no column does.
    """
    n = len(table.padded[i])
    path = _index_chain(n, i, j)
    problems = []
    if path[0] != i or path[-1] != j:
        problems.append("endpoints")
    if len(path) != _qcr(table, i, j)[0] + 1:
        problems.append("length")
    if None in path:  # a step that leaves P(n) fails "step"; no row is tested
        if len(path) > 1:
            problems.append("step")
    else:
        padded, below = table.padded, table.below
        rows = _step_l1(n)
        for a, b in zip(path, path[1:]):
            d = rows[a, b]
            if d == 0xff:
                d = rows[a, b] = sum(map(abs, map(sub, padded[a], padded[b])))
            if d != 2 or not below[a] >> b & 1:
                problems.append("step")
                break
    if problems:
        yield _pair_record(table, i, j, problems=problems)


def _strictness_hypothesis(table, i: int, j: int) -> bool:
    """Some column or some row of parts[j] exceeds parts[i]'s by 2 or more."""
    lhat, mhat = table.padded[table.dual[i]], table.padded[table.dual[j]]
    lam, mu = table.padded[i], table.padded[j]
    return (any(b > a + 1 for a, b in zip(lhat, mhat))
            or any(b > a + 1 for a, b in zip(lam, mu)))


def _step_pairs(n: int):
    """(s, table, i, j) for s in (1, 2), s-step parts[i] of n and parts[j] strictly below."""
    table = _table(n)
    for s in (1, 2):
        for i, lam in enumerate(table.parts):
            if s_step(lam, s):
                for j in _bits(table.below[i] & ~(1 << i)):
                    yield s, table, i, j


def _check_diff_usef(s: int, table, i: int, j: int):
    """The strictness hypothesis decides a verdict, and so is read, only
    when s*r <= c+q: it turns equality into a counterexample, and every
    record carries it."""
    q, c, r = _qcr(table, i, j)
    lhs, rhs = s * r, c + q
    if lhs <= rhs:
        strict = _strictness_hypothesis(table, i, j)
        if lhs < rhs or strict:
            yield _pair_record(table, i, j, s=s, q=q, c=c, r=r, strict_expected=strict)


@lru_cache(maxsize=None)
def _move_sums(n: int) -> tuple[memoryview, memoryview]:
    """The memo of _chain_move_sums for _table(n): entry [a, t] of the
    first grid sums the c increments of the box moves from parts[a] down
    to parts[t], of the second their r increments, 0xffff until first
    used.  c and r are at most comb(n, 2) <= 2016 for n <= 64."""
    size = len(_partitions(n))
    return tuple(memoryview(bytearray(b"\xff") * (2 * size * size)).cast("H", (size, size))
                 for _ in range(2))


def _chain_move_sums(table, i: int, j: int) -> tuple[int, int]:
    """The c and r increments summed over the box moves from parts[i] down
    to parts[j], reading no weight: a box leaving row x of cur for row y
    adds cur[x] - cur[y] - 1 to c and y - x to r.  The chain from parts[i]
    is its first move followed by the chain from the partition s that move
    reaches (see degeneration_chain), so the sums of (i, j) are that
    move's increments plus the sums of (s, j).  The walk goes down to the
    first pair already in _move_sums(n) and fills the pairs above it on
    the way back, so each pair's move is computed once per n."""
    c_sums, r_sums = _move_sums(len(table.padded[i]))
    c = c_sums[i, j]
    if c != 0xffff:
        return c, r_sums[i, j]
    padded, target = table.padded, table.padded[j]
    path = []
    while c == 0xffff:
        cur = [*padded[i], 0]
        move = _box_move(cur, target)
        if move is None:
            c_sums[i, j] = r_sums[i, j] = c = 0
            break
        _, x, y = move
        path.append((i, cur[x] - cur[y] - 1, y - x))
        cur[x] -= 1
        cur[y] += 1
        i = table.index[tuple(cur[:cur.index(0)])]
        c = c_sums[i, j]
    r = r_sums[i, j]
    for a, dc, dr in reversed(path):
        c += dc
        r += dr
        c_sums[a, j] = c
        r_sums[a, j] = r
    return c, r


def _check_qcr_identities(table, i: int, j: int):
    """q, c and r vanish together, c >= q, and the box moves of the pair's
    chain add up to its c and r (_chain_move_sums).  Once each pair agrees,
    c and r, differences of weights, add up over every triple below it
    exactly, so the pair covers them, as comb_big's worst label covers
    its orbit."""
    q, c, r = _qcr(table, i, j)
    equal = i == j
    if ((q == 0) != equal) or ((c == 0) != equal) or ((r == 0) != equal):
        yield _pair_record(table, i, j, problem="vanishing")
    if c < q:
        yield _pair_record(table, i, j, problem="c < q")
    c_moves, r_moves = _chain_move_sums(table, i, j)
    if (c_moves, r_moves) != (c, r):
        yield _pair_record(table, i, j, c_moves=c_moves, r_moves=r_moves,
                           problem="box moves")


def _check_comb_col(table, i: int, j: int):
    """Squared column lengths summed from the duals (colsq), against r
    read from the rows."""
    lhs = table.colsq[j] - table.colsq[i]
    rhs = 2 * _qcr(table, i, j)[2]
    if lhs != rhs:
        yield _pair_record(table, i, j, lhs=lhs, rhs=rhs)


@lru_cache(maxsize=None)
def _sigma_o_sum(mu: Partition, t: int) -> int:
    return sum(map(ab.o_stat, sigma_zero(mu, t)))


def _check_o_sums(table, i: int, j: int):
    """Both label sums are cached by their partition; tau_zero(lam) is
    sigma_zero(lam, lam[0])."""
    lam = table.parts[i]
    sigma_sum = _sigma_o_sum(table.parts[j], lam[0])
    tau_sum = _sigma_o_sum(lam, lam[0])
    n = sum(lam)
    if sigma_sum != n or tau_sum != n:
        yield _pair_record(table, i, j, sigma_sum=sigma_sum, tau_sum=tau_sum, n=n)


def _a_bases(n: int):
    """Diagrams of n letters whose rows are odd and all-'a' delimited."""
    for lam in _partitions(n):
        if all(p % 2 == 1 for p in lam):
            yield ab.canonical(("a", p) for p in lam)


AUG_LETTER_BUDGET = 4
_AUG_KEYS = tuple((da, db) for da in range(AUG_LETTER_BUDGET + 1)
                  for db in range(AUG_LETTER_BUDGET + 1 - da))


def _augmentations(n: int):
    """(base, da, db, grown) for every da + db within the letter budget,
    all from one augmentation walk per base."""
    for base in _a_bases(n):
        for (da, db), grown_list in ab._augment(base, _AUG_KEYS).items():
            for grown in grown_list:
                yield base, da, db, grown


def _check_comb_maxab(base, da: int, db: int, grown):
    limit = max(da, db)
    value = _weight4(grown) - ab.o_stat(base)
    if value > limit:
        yield {
            "base": ab.format_diagram(base),
            "da": da,
            "db": db,
            "result": ab.format_diagram(grown),
            "value": value,
            "limit": limit,
        }


def _single_b_augmentations(n: int):
    """(base, every single-b augmentation of base); each augmentation is an instance."""
    for base in _a_bases(n):
        yield base, ab.aug(base, 0, 1)


def _check_comb_maxab2(base, grown_list):
    if not grown_list:
        yield {"base": ab.format_diagram(base), "problem": "empty aug"}
    base_o = ab.o_stat(base)
    expected = 1 - 2 * sum(1 for _, length in base if length == 1)
    for grown in grown_list:
        value = _weight4(grown) - base_o
        if value != expected:
            yield {
                "base": ab.format_diagram(base),
                "result": ab.format_diagram(grown),
                "value": value,
                "expected": expected,
            }


def _deficits(table, i: int, j: int) -> tuple[list[int], list[int]]:
    """d_lists(parts[i], parts[j]) read off the table: da is the first
    parts[i][0] columns of the difference of dual suffix sums, and db is
    da shifted by one column with a trailing 0."""
    t = table.parts[i][0]
    da = list(map(sub, table.suffix[i][:t], table.suffix[j]))
    if min(da) < 0:
        raise AssertionError("dominance should force nonnegative deficits")
    return da, da[1:] + [0]


def _check_comb_clem(table, i: int, j: int):
    total = sum(map(max, *_deficits(table, i, j)))
    q, c, _ = _qcr(table, i, j)
    if total > c + q or (q == 1 and total != c + 1):
        yield _pair_record(table, i, j, sum_max=total, c=c, q=q)


def _lone_b_rows(table, i: int, j: int) -> int:
    """Length-one row count backing the sharper gap bound, or -1 if unused.

    The sharper bound applies when some column's deficit is a single b;
    among such columns the one with the most length-one rows in the
    canonical label of mu = parts[j] gives the strongest statement; its
    column k (from 0) has one length-one row per part of mu equal to k + 1.
    """
    da, db = _deficits(table, i, j)
    hits = [k for k, deficit in enumerate(zip(da, db)) if deficit == (0, 1)]
    if not hits:
        return -1
    return max(table.parts[j].count(k + 1) for k in hits)


def _orbits(n: int):
    """(table, i, j, gap4, labels) for every orbit parts[j] <=
    parts[i] of n's table, in _orbit_gaps order."""
    table = _table(n)
    for i, lam in enumerate(table.parts):
        for mu, *rest in _orbit_gaps(lam, n):
            yield table, i, table.index[mu], *rest


def _lone_b_orbits(n: int):
    """The _orbits items with a column adding a lone b, plus _lone_b_rows."""
    for table, i, j, *rest in _orbits(n):
        ones = _lone_b_rows(table, i, j)
        if ones >= 0:
            yield table, i, j, *rest, ones


def _labels(table, i, j, gap4, count, *_) -> int:
    """An orbit's check covers every one of its labels."""
    return count


def _check_gap_bound(table, i: int, j: int, gap4, count, ones=None):
    """Gap >= (2r - c - q)/4, plus ones/2 when given; compared in quarter-units.

    For a fixed orbit the bound is constant, so checking the orbit's
    highest-dimensional label checks them all.
    """
    q, c, r = _qcr(table, i, j)
    required4 = 2 * r - c - q + (0 if ones is None else 2 * ones)
    if gap4 < required4:
        extra = {} if ones is None else {"l": ones}
        yield _label_record(table.parts[i], table.parts[j], gap4,
                            required_num4=required4, **extra)


def _check_ci_codim(lam: Partition):
    top_dim = dim_stratum(tau_zero(lam), strata_spec(lam))
    expected = Fraction(dim_M(lam)) - dim_N(lam)
    if top_dim != expected or top_dim.denominator != 1:
        yield {
            "lambda": list(lam),
            "dim_top_num4": int(top_dim * 4),
            "dimM": dim_M(lam),
            "dimN_num4": int(dim_N(lam) * 4),
        }


def _s_step_results(s: int, check):
    """Space of (check(lam, n),) for each s-step partition lam of n."""
    return lambda n: ((check(lam, n),) for lam in _partitions(n) if s_step(lam, s))


def _nor_gap_extras(items) -> dict:
    cases: Counter[str] = Counter()
    for (result,) in items:
        cases.update(result.cases)
    flagged = [rec for (result,) in items for rec in result.flagged]
    return {
        "partitions_checked": len(items),
        "cases": dict(sorted(cases.items())),
        "general_bound_orbits": len(flagged),
        # general-route orbits whose quarter bound alone is < 2
        "general_bound_quarter_short": sum(1 for rec in flagged if rec["bound_num4"] < 8),
    }


def _diagrams(n: int):
    """Every diagram of n letters, by a-count."""
    for na in range(n + 1):
        for diagram in ab.enumerate_all_diagrams(na, n - na):
            yield (diagram,)


def _check_ortho_equiv(diagram):
    balanced = ab.has_property_P(diagram)
    splits = ab.decompose(diagram) is not None
    if balanced != splits:
        yield {
            "diagram": ab.format_diagram(diagram),
            "balanced_substrings": balanced,
            "decomposes": splits,
        }


@dataclass(frozen=True)
class _Suite:
    space: Callable
    check: Callable
    default_n: int
    cap: int
    start_n: int
    description: str
    covers: Callable | None = None
    extras: Callable | None = None

    def runner(self, n_max: int, keep: int | None = None) -> tuple[int, list[dict], dict | None]:
        """(instances, finds, extras) over the sizes start_n..n_max.  Each
        item counts once, or covers(*item) times; past the first keep finds
        (all when None) it only counts, as extras' counterexamples_total."""
        check, covers = self.check, self.covers
        instances = dropped = 0
        ces: list[dict] = []
        items: list[tuple] | None = None if self.extras is None else []
        for n in range(self.start_n, n_max + 1):
            for item in self.space(n):
                if items is not None:
                    items.append(item)
                instances += 1 if covers is None else covers(*item)
                ces.extend(check(*item))
                if keep is not None and len(ces) > keep:
                    dropped += len(ces) - keep
                    del ces[keep:]
        info = None if items is None else self.extras(items)
        if dropped:
            info = {**(info or {}), "counterexamples_total": len(ces) + dropped}
        return instances, ces, info


SUITES: dict[str, _Suite] = {
    "diff_ind": _Suite(
        partial(_pairs, strict=True), _check_diff_ind, 10, 12, 1,
        "degeneration chains: endpoints, length q+1, unit dominance steps",
    ),
    "diff_usef": _Suite(
        _step_pairs, _check_diff_usef, 10, 12, 1,
        "s-step inequality s*r >= c+q with its strictness cases (s in {1,2})",
    ),
    "qcr_identities": _Suite(
        _pairs, _check_qcr_identities, 10, 12, 1,
        "q/c/r vanish together, c >= q, and c/r sum the chain's box moves",
        covers=lambda table, i, j: 1 + table.below[j].bit_count(),
    ),
    "comb_col": _Suite(
        _pairs, _check_comb_col, 10, 12, 1,
        "column-square identity: squared column differences sum to 2r, r read from rows",
    ),
    "o_sums": _Suite(
        _pairs, _check_o_sums, 10, 12, 1,
        "odd-row counts of both canonical labels sum to n",
    ),
    "comb_maxab": _Suite(
        _augmentations, _check_comb_maxab, 8, 10, 0,
        "augmentation bound o - 2*Delta - o0 <= max(da, db) (letter budget 4)",
    ),
    "comb_maxab2": _Suite(
        _single_b_augmentations, _check_comb_maxab2, 8, 10, 0,
        "single-b augmentation equality o - 2*Delta - o0 = 1 - 2l",
        covers=lambda base, grown_list: len(grown_list),
    ),
    "comb_clem": _Suite(
        _pairs, _check_comb_clem, 10, 12, 1,
        "columnwise deficit sum <= c+q, with equality c+1 when q = 1",
    ),
    "comb_big": _Suite(
        _orbits, _check_gap_bound, 9, 9, 1,
        "stratum gap >= (2r - c - q)/4 for every label", covers=_labels,
    ),
    "comb_bigr": _Suite(
        _lone_b_orbits, _check_gap_bound, 9, 9, 1,
        "stratum gap >= (2r - c - q)/4 + l/2 when some column adds a lone b", covers=_labels,
    ),
    "ci_codim": _Suite(
        _up_to, _check_ci_codim, 10, 12, 1,
        "maximal-rank stratum dimension equals dim M - dim N",
    ),
    "ci_majineq": _Suite(
        _s_step_results(2, check_ci_condition), attrgetter("counterexamples"), 9, 9, 1,
        "2-step partitions: the maximal-rank stratum is strictly largest",
        covers=attrgetter("instances"), extras=lambda items: {"partitions_checked": len(items)},
    ),
    "nor_gap": _Suite(
        _s_step_results(1, check_normality_gap), attrgetter("counterexamples"), 9, 9, 1,
        "1-step partitions: every other stratum at least 2 below, cases covered",
        covers=attrgetter("instances"), extras=_nor_gap_extras,
    ),
    "ortho_equiv": _Suite(
        _diagrams, _check_ortho_equiv, 12, 14, 0,
        "balanced substring counts iff decomposable into standard pieces",
    ),
}


def run_suite(
    lemma_id: str,
    n_max: int | None = None,
    max_counterexamples: int = COUNTEREXAMPLE_CAP,
) -> LemmaReport:
    """Run one suite over its full instance space up to n_max."""
    suite = SUITES.get(lemma_id)
    if suite is None:
        raise ValueError(
            f"unknown lemma id {lemma_id!r}; known: {', '.join(SUITES)}"
        )
    if max_counterexamples < 1:
        raise ValueError("max_counterexamples must be at least 1")
    limit = suite.default_n if n_max is None else n_max
    if limit < 0:
        raise ValueError("n_max must be nonnegative")
    if limit > suite.cap:
        raise ValueError(f"n_max = {limit} exceeds the {lemma_id} bound {suite.cap}")
    start = time.perf_counter()
    instances, ces, extras = suite.runner(limit, max_counterexamples)
    elapsed = time.perf_counter() - start
    return LemmaReport(lemma_id, (suite.start_n, limit), instances, ces, elapsed, extras)


def run_all(
    n_max: int | None = None,
    max_counterexamples: int = COUNTEREXAMPLE_CAP,
) -> list[LemmaReport]:
    """Run every suite; an explicit n_max is clamped to each suite's cap."""
    reports = []
    for lemma_id, suite in SUITES.items():
        limit = None if n_max is None else min(n_max, suite.cap)
        reports.append(run_suite(lemma_id, limit, max_counterexamples))
    return reports
