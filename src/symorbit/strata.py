"""Stratum labels and exact dimension formulas for the quiver variety Z.

A partition lam with t = lam_1 columns fixes the dimension vector
(n_0, ..., n_t), where n_i is the number of boxes strictly right of
column i.  A stratum label is a string of t ab-diagrams, one per quiver
edge, subject to three conditions: the i-th diagram has n_{i-1} a's and
n_i b's, consecutive diagrams chain through b_partition == a_partition,
and every diagram is ortho-symmetric.

Stratum dimensions are computed in integer quarter-units inside and
returned as Fraction at the API: every value has denominator dividing 4
and no float ever appears; gaps stay in quarter-units through verify,
so a Fraction appears only in a public return value.  The formulas are
applied formally to every label, whether or not the stratum it names is
nonempty, so integrality is never assumed (and holds only for special
labels such as the maximal-rank one).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest

from . import abdiagrams as ab
from .partitions import Partition, _index, _partitions, check_partition, dominates, dual

TauString = tuple[ab.Diagram, ...]

DEFAULT_LAMBDA_BOUND = 12
LAMBDA_BOUND_ENV = "ORBIT_LAMBDA_BOUND"

# Most labels enumerate_lambda and strata_report will list.  Every
# partition of 8 fits ((8) has 112,324 labels); the largest table let
# through, (8,2,1,1) at 229,162 labels, takes 0.55 s of CPU and 19 MB as
# `strata --format json` (Python 3.11, 2 vCPUs); (9) has 1,918,225.
_LABEL_BUDGET = 250_000


def lambda_bound(override: int | None = None) -> int:
    """Resolve the size bound for full stratum enumeration.

    Explicit argument wins, then the ORBIT_LAMBDA_BOUND environment
    variable, then the default of 12.  The search width grows quickly with
    the size, so raising the bound can make enumeration very slow.
    """
    if override is not None:
        if override < 0:
            raise ValueError("enumeration bound must be nonnegative")
        return override
    env = os.environ.get(LAMBDA_BOUND_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is None or value < 0:
            raise ValueError(
                f"{LAMBDA_BOUND_ENV} must be a nonnegative integer, got {env!r}"
            )
        return value
    return DEFAULT_LAMBDA_BOUND


@dataclass(frozen=True)
class StrataSpec:
    """A partition with its column count and dimension vector."""

    lam: Partition
    t: int
    dims: tuple[int, ...]  # (n_0, ..., n_t); n_0 = |lam|, n_t = 0


def strata_spec(lam: Partition) -> StrataSpec:
    if not lam:
        raise ValueError("the empty partition has no stratum data")
    dims = tuple(accumulate(reversed(dual(lam)), initial=0))[::-1]  # suffix sums of the columns
    return StrataSpec(tuple(lam), lam[0], dims)


def tau_zero(lam: Partition) -> TauString:
    """The maximal-rank stratum label.

    Column i is built from the part of lam right of column i-1: one 'a'
    per box of each row and one 'b' between consecutive 'a's, so every row
    is odd and starts and ends with 'a'.  The parts of lam weakly
    decrease, so each column's rows already come out in canonical order.
    """
    if not lam:
        raise ValueError("the empty partition has no stratum data")
    entries = []
    for i in range(lam[0]):
        rows = [("a", 2 * (p - i) - 1) for p in lam if p > i]
        entries.append(tuple(rows))
    return tuple(entries)


def sigma_zero(mu: Partition, t: int) -> TauString:
    """tau_zero of mu padded with empty diagrams out to t columns."""
    if mu and mu[0] > t:
        raise ValueError(f"{mu} has {mu[0]} columns, more than t = {t}")
    if t < 0:
        raise ValueError("column count must be nonnegative")
    base = tau_zero(mu) if mu else ()
    return base + ((),) * (t - len(base))


def orbit_partition(tau: TauString) -> Partition:
    """The orbit attached to a label: per-row a-counts of its first diagram."""
    if not tau:
        raise ValueError("empty stratum label")
    return ab.a_partition(tau[0])


def d_lists(lam: Partition, mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columnwise letter deficits (da, db) between the two canonical labels.

    da[i-1] is the number of a's column i must gain on the way from the
    label of mu to any label over the orbit of mu inside the variety of
    lam, and db[i-1] = da[i]; both are forced by the column sums alone,
    as da is the difference of the two duals' suffix sums.
    """
    if not dominates(lam, mu):
        raise ValueError(f"{lam} does not dominate {mu}; deficits are undefined")
    columns = [a - b for a, b in zip_longest(dual(lam), dual(mu), fillvalue=0)]
    da = tuple(accumulate(reversed(columns)))[::-1]
    db = da[1:] + (0,)
    if any(d < 0 for d in da):
        raise AssertionError("dominance should force nonnegative deficits")
    return da, db


@lru_cache(maxsize=None)
def _orbit2(mu: Partition) -> int:
    """Twice the orbit dimension, with the squared columns of mu summed
    over its rows (see dim_orbit)."""
    return sum(mu) ** 2 - sum((2 * i + 1) * part for i, part in enumerate(mu))


@lru_cache(maxsize=None)
def _orbit2s(n: int) -> tuple[int, ...]:
    """_orbit2 of every partition of n, indexed like _partitions(n)."""
    return tuple(map(_orbit2, _partitions(n)))


def dim_orbit(lam: Partition) -> Fraction:
    """Dimension of the nilpotent orbit: (n^2 - sum of squared columns)/2.

    The squared columns need no transpose: sum_j (lam'_j)^2 equals
    sum_i (2i - 1) lam_i over the rows i = 1, 2, ..., as row i adds
    one box to each of the first lam_i columns, each of which already
    holds i - 1 boxes.
    """
    return Fraction(_orbit2(tuple(lam)), 2)  # tuple: the cache needs a hashable key


def dim_M(lam: Partition) -> int:
    """Dimension of the ambient product of Hom spaces."""
    dims = strata_spec(lam).dims
    return sum(dims[i - 1] * dims[i] for i in range(1, len(dims)))


def dim_N(lam: Partition) -> Fraction:
    """Dimension of the target of the moment-type map (always integral)."""
    dims = strata_spec(lam).dims
    middle = dims[1:-1]
    return Fraction(sum(n * n + n for n in middle), 2)


def is_valid_tau_string(tau: TauString, spec: StrataSpec) -> bool:
    """Independent check of the three stratum-label conditions."""
    if len(tau) != spec.t:
        return False
    for i, diagram in enumerate(tau):
        if ab.a_count(diagram) != spec.dims[i] or ab.b_count(diagram) != spec.dims[i + 1]:
            return False
        if not ab.is_ortho_symmetric(diagram):
            return False
    return all(
        ab.b_partition(tau[i]) == ab.a_partition(tau[i + 1]) for i in range(spec.t - 1)
    )


@lru_cache(maxsize=None)
def _weight4(diagram: ab.Diagram) -> int:
    """Four times a diagram's share of the stratum dimension, o - 2*Delta;
    cached, as dim_stratum and augmentation checks share diagrams.  Fold
    edges and pair tables get the same weight from the piece walk's two
    leaves (ab._ortho, ab._ortho_pairs) instead."""
    return ab.o_stat(diagram) - 2 * ab.delta_stat(diagram)


def _bulk4(dims: tuple[int, ...]) -> int:
    """Four times the orbit-free part of a stratum dimension: the per-edge
    bulk terms 2 n_i n_{i+1} - n_i - n_{i+1}.

    Four times the dimension of a stratum over the orbit mu is
    _orbit2(mu) + _bulk4(dims) + weight4, weight4 being the sum of
    _weight4 over the label's diagrams; the bulk is fixed by lam alone,
    so the folds take it once per lam.
    """
    return sum(2 * a * b - a - b for a, b in zip(dims, dims[1:]))


@lru_cache(maxsize=None)
def _letters(diagram: ab.Diagram) -> tuple[int, int]:
    """A diagram's (a_count, b_count), counted once per diagram: the
    columns of tau_zero recur across every lam that shares them."""
    return ab.a_count(diagram), ab.b_count(diagram)


def dim_stratum(tau: TauString, spec: StrataSpec) -> Fraction:
    """Exact stratum dimension from the label.

    Half the orbit dimension, plus the per-edge bulk term
    n_i n_{i+1}/2 - (n_i + n_{i+1})/4, plus per-diagram corrections
    o/4 - Delta/2 counting odd rows and mixed odd pairs (the cached
    _weight4).  _rows gets the same sum from the label fold.  Every
    call checks each column's cached letter counts against the spec.
    """
    dims = spec.dims
    if len(tau) != spec.t:
        raise ValueError(f"label has {len(tau)} columns, spec wants {spec.t}")
    for i, diagram in enumerate(tau):
        na, nb = _letters(diagram)
        if na != dims[i] or nb != dims[i + 1]:
            raise ValueError(
                f"column {i + 1} has letters ({na}, {nb}),"
                f" spec wants ({dims[i]}, {dims[i + 1]})"
            )
    weight4 = sum(map(_weight4, tau))
    return Fraction(_orbit2(orbit_partition(tau)) + _bulk4(dims) + weight4, 4)


_Edge = tuple[ab.Diagram, int, Partition, Partition]  # (diagram, weight4, a-, b-partition)


@lru_cache(maxsize=None)
def _edges(na: int, nb: int) -> tuple[_Edge, ...]:
    """The ortho-symmetric diagrams with na a's and nb b's as fold edges,
    in enumerate_ortho order.

    One key-ordered pass (ab._ortho) yields each diagram with its weight4,
    a-partition and b-partition; equal partitions share one tuple, as the
    cached tables hold many edges per partition.
    """
    shared: dict[Partition, Partition] = {}
    return tuple((diagram, weight4, shared.setdefault(a_part, a_part),
                  shared.setdefault(b_part, b_part))
                 for diagram, weight4, a_part, b_part in ab._ortho(na, nb))


def _fold(dims: tuple[int, ...], leaf: list, extend, lam: Partition) -> dict[Partition, list]:
    """List the label suffixes over the dimension vector dims, column by
    column from the last to the first; returns the first column's lists.

    A column's lists map each a-partition its diagram may have to the
    suffixes starting there: extend(diagram, weight4, suffixes), one per
    suffix, per edge of the column in enumerate_ortho order, with
    suffixes the next column's list at the edge's b-partition, joined in
    edge order.  An a-partition is keyed at its first edge that leads on;
    past the last column the b-partition is empty and the list is leaf.
    The suffixes made over all columns are counted, and past the label
    budget lam is refused before more are made, so a label count that
    undershoots cannot make the fold run without bound.
    """
    values = {(): leaf}
    made = 0
    for i in range(len(dims) - 2, -1, -1):
        below, values = values, {}
        for diagram, weight4, a_part, b_part in _edges(dims[i], dims[i + 1]):
            suffixes = below.get(b_part)
            if suffixes is not None:
                made += len(suffixes)
                if made > _LABEL_BUDGET:
                    raise _over_budget(lam, f"over {_LABEL_BUDGET}")
                listed = values.get(a_part)
                if listed is None:
                    values[a_part] = listed = []
                listed.extend(extend(diagram, weight4, suffixes))
    return values


def _checked(lam: Partition, bound: int | None) -> Partition:
    """lam as a tuple, refused if it is no partition or exceeds the size bound."""
    lam = check_partition(lam)
    limit = lambda_bound(bound)
    if sum(lam) > limit:
        raise ValueError(
            f"|lambda| = {sum(lam)} exceeds the enumeration bound {limit}"
            f" (override with an explicit bound or {LAMBDA_BOUND_ENV})"
        )
    return lam


def _over_budget(lam: Partition, count) -> ValueError:
    return ValueError(
        f"lambda = {lam} has {count} stratum labels, more than the"
        f" label bound {_LABEL_BUDGET}"
    )


def _check_labels(lam: Partition, bound: int | None) -> Partition:
    """lam as a tuple, refused as orbit_extremes refuses it, or for more
    labels than the budget.

    The count is the sum of the extremes memo's counts (_raw), so a
    refused lam builds no diagram table.
    """
    lam = _checked(lam, bound)
    count = sum(labels for _, labels in _raw(lam).values())
    if count > _LABEL_BUDGET:
        raise _over_budget(lam, count)
    return lam


def _listing(lam: Partition, bound: int | None, leaf: list, extend):
    """The labels of lam one first-column edge at a time, as
    (orbit, extend(diagram, weight4, suffixes)) per edge that leads on,
    the suffixes being _fold's over columns 2..t.

    lam is checked, its columns 2..t folded and the labels the edges
    will list counted now, so every refusal, the label budget's
    included, comes before the first edge is asked for.
    """
    lam = _check_labels(lam, bound)
    dims = strata_spec(lam).dims
    tails = _fold(dims[1:], leaf, extend, lam)
    first = _edges(dims[0], dims[1])
    count = sum(len(tails[b_part]) for _, _, _, b_part in first if b_part in tails)
    if count > _LABEL_BUDGET:
        raise _over_budget(lam, count)
    return ((mu, extend(diagram, weight4, tails[b_part]))
            for diagram, weight4, mu, b_part in first if b_part in tails)


def _prepend(diagram, _weight4, tails):
    return [(diagram,) + tail for tail in tails]


def enumerate_lambda(lam: Partition, bound: int | None = None) -> list[TauString]:
    """All stratum labels for lam, in first-column edge order.

    Candidates per column come from the ortho-symmetric enumeration at the
    right letter counts, filtered by the chaining condition; the label
    fold builds each column's suffixes once per required a-partition,
    from the last column to the second, and the first column's edges,
    whose orbits interleave, prefix them in order.  The maximal-rank
    label always appears exactly once.  Partitions with more labels than
    the label budget are refused before any label is built.
    """
    return [label for _, labels in _listing(lam, bound, [()], _prepend) for label in labels]


@dataclass(frozen=True)
class OrbitSummary:
    """What a fixed orbit contributes to the stratum poset of one variety:
    its largest stratum dimension in quarter-units and its label count."""

    max_dim4: int
    count: int


_Pair = tuple[int, int, int, int]  # (a-index, b-index, largest weight4, multiplicity)


@lru_cache(maxsize=None)
def _pairs(na: int, nb: int) -> tuple[_Pair, ...]:
    """A column as the extremes need it: the distinct (a-partition,
    b-partition) pairs of the ortho-symmetric diagrams with na a's and
    nb b's, each with the largest weight4 and the number of its
    diagrams, in the order of their first diagram (ab._ortho_pairs).

    Partitions are replaced by their _index positions, so a fold step
    hashes small ints.  ab._ortho_pairs is the piece walk's leaf that
    builds no diagram; ab._ortho, behind _edges, is its other leaf.
    It is looked up at call time, so a patched walk reaches this table.
    """
    a_index, b_index = _index(na), _index(nb)
    return tuple((a_index[a_part], b_index[b_part], top, mult)
                 for (a_part, b_part), (top, mult) in ab._ortho_pairs(na, nb).items())


@lru_cache(maxsize=None)
def _raw(lam: Partition) -> dict[int, list[int]]:
    """The extremes fold of lam: per a-partition index of its first column,
    [largest summed weight4, label count], keyed at the first pair that
    leads on, so the keys are the orbits in the order of their first label.

    Columns 1..t-1 of lam are the columns of lam with its first column
    removed, so one step over _pairs applied to that partition's cached
    values suffices; past the last column is the empty partition, index 0
    of the partitions of 0.  Readers must not mutate the values.
    """
    if not lam:
        return {0: [0, 1]}
    shorter = tuple(p - 1 for p in lam if p > 1)
    below = _raw(shorter)
    values: dict[int, list[int]] = {}
    for a, b, top, mult in _pairs(sum(lam), sum(shorter)):
        sub = below.get(b)
        if sub is not None:
            top += sub[0]
            value = values.get(a)
            if value is None:
                values[a] = [top, mult * sub[1]]
            else:
                if top > value[0]:
                    value[0] = top
                value[1] += mult * sub[1]
    return values


def orbit_extremes(lam: Partition, bound: int | None = None) -> dict[Partition, OrbitSummary]:
    """Per orbit: label count and maximal stratum dimension.

    The dimension formula is additive over columns once the orbit is
    fixed, so the maximum and the count are computed by a fold whose
    value per column and required a-partition is (largest weight4,
    count) and carries no label (_raw, memoised per lam over _pairs),
    instead of walking every label; the label spaces grow far too fast
    for that.  Orbits appear in the order of their first label;
    _witnesses rebuilds a maximal label where one is needed.  It
    validates lam and applies the size bound as enumerate_lambda does.
    """
    spec = strata_spec(_checked(lam, bound))
    return {mu: OrbitSummary(-gap4, count) for mu, gap4, count in _orbit_tops(spec, 0)}


def _orbit_tops(spec: StrataSpec, top4: int) -> list[tuple[Partition, int, int]]:
    """Per orbit of spec.lam, in orbit_extremes order: (mu, top4 less the
    orbit's largest stratum dimension in quarter-units, label count).

    Each triple is read straight from _raw in one pass: the orbit
    dimension comes from the per-size _orbit2s by the orbit's index, so
    no orbit is hashed and no summary is built.  spec.lam must be one
    that orbit_extremes accepts.
    """
    dims = spec.dims
    base4 = top4 - _bulk4(dims)
    parts, orbit2s = _partitions(dims[0]), _orbit2s(dims[0])
    return [(parts[i], base4 - orbit2s[i] - top, count)
            for i, (top, count) in _raw(spec.lam).items()]


@lru_cache(maxsize=1)
def _witnesses(lam: Partition) -> dict[Partition, TauString]:
    """Per orbit of lam, the first label in enumerate_lambda order that
    attains the orbit's maximal stratum dimension.

    The columns are folded over the flat edges as in _fold, with values
    of (largest weight4, first suffix attaining it), so each a-partition
    keeps its first maximal edge, as the first label wins ties.  Only a
    counterexample record reads a witness, so it is rebuilt on demand,
    once for the lam last asked for; lam must be one that orbit_extremes
    accepts.
    """
    dims = strata_spec(lam).dims
    firsts = {(): (0, ())}
    for i in range(len(dims) - 2, -1, -1):
        below, firsts = firsts, {}
        for diagram, weight4, a_part, b_part in _edges(dims[i], dims[i + 1]):
            sub = below.get(b_part)
            if sub is not None:
                top = weight4 + sub[0]
                best = firsts.get(a_part)
                if best is None or top > best[0]:
                    firsts[a_part] = (top, (diagram,) + sub[1])
    return {mu: label for mu, (_, label) in firsts.items()}


def _texts(diagram, weight4, suffixes):
    text = ab.format_diagram(diagram)
    return [((text,) + texts, weight4 + sub) for texts, sub in suffixes]


def _rows(lam: Partition, bound: int | None = None):
    """strata_report's rows as (tau texts, mu, dim_num4), streamed one
    first-column edge at a time in enumerate_lambda order.

    Each suffix of the label fold carries its diagrams' text and the sum
    of their weight4, and a row's dimension is its orbit's _orbit2, the
    bulk of lam and that sum.  lam is checked when _rows is called, not
    when the first row is asked for, so a caller that writes as it reads
    writes nothing for a refused lam.
    """
    listing = _listing(lam, bound, [((), 0)], _texts)
    bulk4 = _bulk4(strata_spec(lam).dims)

    def rows():
        for mu, suffixes in listing:
            base4 = _orbit2(mu) + bulk4
            for texts, sum4 in suffixes:
                yield texts, mu, base4 + sum4

    return rows()


def _fields(lam: Partition) -> dict:
    """strata_report's fields other than its rows."""
    spec = strata_spec(lam)
    dn = dim_N(lam)
    if dn.denominator != 1:
        raise AssertionError("dim N should always be integral")
    return {"lambda": list(lam), "t": spec.t, "dims": list(spec.dims),
            "dimM": dim_M(lam), "dimN": int(dn)}


def strata_report(lam: Partition, bound: int | None = None) -> dict:
    """JSON-ready stratum table; dimensions travel as numerators over 4.

    The rows are those of _rows, which the CLI streams without this
    table; it refuses the partitions that enumerate_lambda refuses.
    """
    rows = [{"tau": list(texts), "mu": list(mu), "dim_num4": dim4}
            for texts, mu, dim4 in _rows(lam, bound)]
    return {**_fields(lam), "strata": rows}
