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
from itertools import accumulate, chain, zip_longest

from . import abdiagrams as ab
from .partitions import Partition, check_partition, dominates, dual

TauString = tuple[ab.Diagram, ...]

DEFAULT_LAMBDA_BOUND = 12
LAMBDA_BOUND_ENV = "ORBIT_LAMBDA_BOUND"

# Most labels enumerate_lambda and strata_report will list.  Every
# partition of 8 fits ((8) has 112,324 labels); the largest table let
# through, (8,2,1,1) at 229,162 labels, takes 8 s and 0.7 GB as
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
    cols = dual(lam)
    t = lam[0]
    dims = tuple(sum(cols[i:]) for i in range(t + 1))
    return StrataSpec(tuple(lam), t, dims)


def tau_zero(lam: Partition) -> TauString:
    """The maximal-rank stratum label.

    Column i is built from the part of lam right of column i-1: one 'a'
    per box of each row and one 'b' between consecutive 'a's, so every row
    is odd and starts and ends with 'a'.
    """
    if not lam:
        raise ValueError("the empty partition has no stratum data")
    entries = []
    for i in range(lam[0]):
        rows = [("a", 2 * (p - i) - 1) for p in lam if p > i]
        entries.append(ab.canonical(rows))
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
    """Twice the orbit dimension: n^2 - sum of squared columns of mu."""
    return sum(mu) ** 2 - sum(c * c for c in dual(mu))


def dim_orbit(lam: Partition) -> Fraction:
    """Dimension of the nilpotent orbit: (n^2 - sum of squared columns)/2."""
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
    edges get the same weight from ab._ortho instead."""
    return ab.o_stat(diagram) - 2 * ab.delta_stat(diagram)


def _dim4(spec: StrataSpec, mu: Partition, weight4: int) -> int:
    """Four times the dimension of a stratum over the orbit mu.

    Twice the orbit dimension, _orbit2(mu), plus the per-edge bulk terms
    2 n_i n_{i+1} - n_i - n_{i+1}, plus weight4, the sum of _weight4 over
    the label's diagrams.
    """
    dims = spec.dims
    bulk = sum(2 * a * b - a - b for a, b in zip(dims, dims[1:]))
    return _orbit2(mu) + bulk + weight4


def dim_stratum(tau: TauString, spec: StrataSpec) -> Fraction:
    """Exact stratum dimension from the label.

    Half the orbit dimension, plus the per-edge bulk term
    n_i n_{i+1}/2 - (n_i + n_{i+1})/4, plus per-diagram corrections
    o/4 - Delta/2 counting odd rows and mixed odd pairs (the cached
    _weight4).  strata_report gets the same sum from the label fold.
    """
    dims = spec.dims
    if len(tau) != spec.t:
        raise ValueError(f"label has {len(tau)} columns, spec wants {spec.t}")
    for i, diagram in enumerate(tau):
        na, nb = ab.a_count(diagram), ab.b_count(diagram)
        if na != dims[i] or nb != dims[i + 1]:
            raise ValueError(
                f"column {i + 1} has letters ({na}, {nb}),"
                f" spec wants ({dims[i]}, {dims[i + 1]})"
            )
    return Fraction(_dim4(spec, orbit_partition(tau), sum(map(_weight4, tau))), 4)


_Edge = tuple[ab.Diagram, int, Partition, Partition]  # (diagram, weight4, a-, b-partition)


@lru_cache(maxsize=None)
def _edges(na: int, nb: int) -> dict[Partition | None, tuple[_Edge, ...]]:
    """The ortho-symmetric diagrams with na a's and nb b's as fold edges.

    One key-ordered pass (ab._ortho) yields each diagram with its weight4,
    a-partition and b-partition.  Edges are grouped by the a-partition,
    each group in enumerate_ortho order; the key None holds every edge in
    that order, for the first column.
    """
    every = tuple(ab._ortho(na, nb))
    groups: dict[Partition | None, list[_Edge]] = {None: every}
    for edge in every:
        groups.setdefault(edge[2], []).append(edge)
    return {key: tuple(val) for key, val in groups.items()}


def _fold(dims: tuple[int, ...], leaf, extend, combine):
    """Fold the stratum labels over the dimension vector dims, column by
    column from the last to the first.

    A state is a column with the a-partition its diagram must have; its
    value is combine() of extend(diagram, weight4, value of the next
    state) over its edges, in enumerate_ortho order.  Past the last column
    the b-partition is empty and the value is leaf.  A state none of whose
    edges leads on to a state with a value gets no value.  Yields (orbit,
    value) per first-column edge, the orbit being that edge's a-partition.
    """
    values = {(): leaf}
    for i in range(len(dims) - 2, 0, -1):
        below = values
        values = {}
        for required, edges in _edges(dims[i], dims[i + 1]).items():
            if required is None:
                continue
            subs = [extend(diagram, weight4, below[b_part])
                    for diagram, weight4, _, b_part in edges if b_part in below]
            if subs:
                values[required] = combine(subs)
    for diagram, weight4, a_part, b_part in _edges(dims[0], dims[1])[None]:
        if b_part in values:
            yield a_part, extend(diagram, weight4, values[b_part])


def _concat(values) -> list:
    return list(chain.from_iterable(values))


def _check_labels(lam: Partition, bound: int | None) -> None:
    """Refuse lam as orbit_extremes does, or for more labels than the budget."""
    count = sum(summary.count for summary in orbit_extremes(lam, bound).values())
    if count > _LABEL_BUDGET:
        raise ValueError(
            f"lambda = {lam} has {count} stratum labels, more than the"
            f" label bound {_LABEL_BUDGET}"
        )


def enumerate_lambda(lam: Partition, bound: int | None = None) -> list[TauString]:
    """All stratum labels for lam, in first-column edge order.

    Candidates per column come from the ortho-symmetric enumeration at the
    right letter counts, filtered by the chaining condition; the label
    fold builds each column's suffixes once per required a-partition,
    from the last column to the first.  The maximal-rank label always
    appears exactly once.  Partitions with more labels than the
    label budget are refused before any label is built.
    """
    _check_labels(lam, bound)
    labels = _fold(
        strata_spec(lam).dims,
        [()],
        lambda diagram, _w, rest: [(diagram,) + tail for tail in rest],
        _concat,
    )
    return _concat(suffixes for _, suffixes in labels)


@dataclass(frozen=True)
class OrbitSummary:
    """What a fixed orbit contributes to the stratum poset of one variety,
    its largest stratum dimension in quarter-units."""

    max_dim4: int
    count: int
    witness: TauString  # the first label of this orbit attaining max_dim4


def _best(values: list[tuple[int, int, TauString]]) -> tuple[int, int, TauString]:
    """Largest weight4 with its label (the first one wins ties), and the count."""
    top = values[0]
    count = 0
    for value in values:
        count += value[1]
        if value[0] > top[0]:
            top = value
    return top[0], count, top[2]


def orbit_extremes(lam: Partition, bound: int | None = None) -> dict[Partition, OrbitSummary]:
    """Per orbit: label count, maximal stratum dimension, and a witness.

    The dimension formula is additive over columns once the orbit is
    fixed, so the maximum and the count are computed by the label fold,
    which carries (largest weight4, count, first label attaining it) per
    column and required a-partition, from the last column to the first,
    instead of walking every label; the label spaces grow far too fast
    for that.  Orbits appear in the order of their first label.  It is
    the fold entry that validates lam and applies the size bound.
    """
    lam = check_partition(lam)
    limit = lambda_bound(bound)
    if sum(lam) > limit:
        raise ValueError(
            f"|lambda| = {sum(lam)} exceeds the enumeration bound {limit}"
            f" (override with an explicit bound or {LAMBDA_BOUND_ENV})"
        )
    spec = strata_spec(lam)
    by_orbit: dict[Partition, list[tuple[int, int, TauString]]] = {}
    for mu, value in _fold(
        spec.dims,
        (0, 1, ()),
        lambda diagram, weight4, sub: (weight4 + sub[0], sub[1], (diagram,) + sub[2]),
        _best,
    ):
        by_orbit.setdefault(mu, []).append(value)
    summaries = {}
    for mu, values in by_orbit.items():
        weight4, count, witness = _best(values)
        summaries[mu] = OrbitSummary(_dim4(spec, mu, weight4), count, witness)
    return summaries


def strata_report(lam: Partition, bound: int | None = None) -> dict:
    """JSON-ready stratum table; dimensions travel as numerators over 4.

    The rows come from the label fold, in enumerate_lambda order: each
    suffix carries its diagrams' text and the sum of their weight4, and
    a row's dimension is its orbit's _dim4 base plus that sum.  It
    refuses the partitions that enumerate_lambda refuses.
    """
    spec = strata_spec(lam)
    _check_labels(lam, bound)

    def extend(diagram, weight4, rest):
        text = ab.format_diagram(diagram)
        return [((text,) + texts, weight4 + sub) for texts, sub in rest]

    rows = []
    for mu, suffixes in _fold(spec.dims, [((), 0)], extend, _concat):
        base4 = _dim4(spec, mu, 0)
        rows.extend({"tau": list(texts), "mu": list(mu), "dim_num4": base4 + weight4}
                    for texts, weight4 in suffixes)
    dn = dim_N(lam)
    if dn.denominator != 1:
        raise AssertionError("dim N should always be integral")
    return {
        "lambda": list(lam),
        "t": spec.t,
        "dims": list(spec.dims),
        "strata": rows,
        "dimM": dim_M(lam),
        "dimN": int(dn),
    }
