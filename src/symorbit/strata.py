"""Stratum labels and exact dimension formulas for the quiver variety Z.

A partition lam with t = lam_1 columns fixes the dimension vector
(n_0, ..., n_t), where n_i is the number of boxes strictly right of
column i.  A stratum label is a string of t ab-diagrams, one per quiver
edge, subject to three conditions: the i-th diagram has n_{i-1} a's and
n_i b's, consecutive diagrams chain through b_partition == a_partition,
and every diagram is ortho-symmetric.

All dimension arithmetic is done in Fraction; every value produced here
has denominator dividing 4 and no float ever appears.  The formulas are
applied formally to every label, whether or not the stratum it names is
nonempty, so integrality is never assumed (and holds only for special
labels such as the maximal-rank one).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import abdiagrams as ab
from .partitions import Partition, dominates, dual

TauString = tuple[ab.Diagram, ...]

DEFAULT_LAMBDA_BOUND = 12
LAMBDA_BOUND_ENV = "ORBIT_LAMBDA_BOUND"


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
    return StrataSpec(lam, t, dims)


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
    lam, and db[i-1] = da[i]; both are forced by the column sums alone.
    """
    if not dominates(lam, mu):
        raise ValueError(f"{lam} does not dominate {mu}; deficits are undefined")
    t = lam[0] if lam else 0
    lhat, mhat = dual(lam), dual(mu)

    def col(hat: Partition, j: int) -> int:
        return hat[j - 1] if j <= len(hat) else 0

    da = tuple(
        sum(col(lhat, j) - col(mhat, j) for j in range(i, t + 1))
        for i in range(1, t + 1)
    )
    db = da[1:] + (0,)
    if any(d < 0 for d in da):
        raise AssertionError("dominance should force nonnegative deficits")
    return da, db


def dim_orbit(lam: Partition) -> Fraction:
    """Dimension of the nilpotent orbit: (n^2 - sum of squared columns)/2."""
    n = sum(lam)
    return Fraction(n * n - sum(c * c for c in dual(lam)), 2)


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


def dim_stratum(tau: TauString, spec: StrataSpec) -> Fraction:
    """Exact stratum dimension from the label.

    Half the orbit dimension, plus the per-edge bulk term
    n_i n_{i+1}/2 - (n_i + n_{i+1})/4, plus per-diagram corrections
    o/4 - Delta/2 counting odd rows and mixed odd pairs.
    """
    dims = spec.dims
    if len(tau) != spec.t:
        raise ValueError(f"label has {len(tau)} columns, spec wants {spec.t}")
    for i, diagram in enumerate(tau):
        if ab.a_count(diagram) != dims[i] or ab.b_count(diagram) != dims[i + 1]:
            raise ValueError(
                f"column {i + 1} has letters ({ab.a_count(diagram)}, {ab.b_count(diagram)}),"
                f" spec wants ({dims[i]}, {dims[i + 1]})"
            )
    total = dim_orbit(orbit_partition(tau)) / 2
    for i in range(spec.t):
        total += Fraction(dims[i] * dims[i + 1], 2) - Fraction(dims[i] + dims[i + 1], 4)
    for diagram in tau:
        total += Fraction(ab.o_stat(diagram), 4) - Fraction(ab.delta_stat(diagram), 2)
    return total


@lru_cache(maxsize=None)
def _ortho_by_a_partition(na: int, nb: int) -> dict[Partition, tuple[ab.Diagram, ...]]:
    groups: dict[Partition, list[ab.Diagram]] = {}
    for diagram in ab.enumerate_ortho(na, nb):
        groups.setdefault(ab.a_partition(diagram), []).append(diagram)
    return {key: tuple(val) for key, val in groups.items()}


@lru_cache(maxsize=128)
def _enumerate_lambda(lam: Partition) -> tuple[TauString, ...]:
    spec = strata_spec(lam)
    dims = spec.dims
    t = spec.t
    memo: dict[tuple[int, Partition | None], tuple[TauString, ...]] = {}

    def suffixes(i: int, required: Partition | None) -> tuple[TauString, ...]:
        if i == t:
            return ((),)
        key = (i, required)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if required is None:
            candidates = ab.enumerate_ortho(dims[i], dims[i + 1])
        else:
            candidates = _ortho_by_a_partition(dims[i], dims[i + 1]).get(required, ())
        out: list[TauString] = []
        for diagram in candidates:
            for rest in suffixes(i + 1, ab.b_partition(diagram)):
                out.append((diagram,) + rest)
        memo[key] = tuple(out)
        return memo[key]

    return suffixes(0, None)


def enumerate_lambda(lam: Partition, bound: int | None = None) -> list[TauString]:
    """All stratum labels for lam, depth-first over columns.

    Candidates per column come from the ortho-symmetric enumeration at the
    right letter counts, filtered by the chaining condition; the search is
    memoized per (column, required a-partition).  The maximal-rank label
    always appears exactly once.
    """
    limit = lambda_bound(bound)
    if sum(lam) > limit:
        raise ValueError(
            f"|lambda| = {sum(lam)} exceeds the enumeration bound {limit}"
            f" (override with an explicit bound or {LAMBDA_BOUND_ENV})"
        )
    return list(_enumerate_lambda(lam))


@dataclass(frozen=True)
class OrbitSummary:
    """What a fixed orbit contributes to the stratum poset of one variety."""

    max_dim: Fraction
    count: int
    witness: TauString  # a label of this orbit attaining max_dim


def _column_weight_term(diagram: ab.Diagram) -> Fraction:
    return Fraction(ab.o_stat(diagram), 4) - Fraction(ab.delta_stat(diagram), 2)


def orbit_extremes(lam: Partition, bound: int | None = None) -> dict[Partition, OrbitSummary]:
    """Per orbit: label count, maximal stratum dimension, and a witness.

    The dimension formula is additive over columns once the orbit is
    fixed, so the maximum and the count are computed by dynamic
    programming on (column, chained partition) states instead of walking
    every label; the label spaces grow far too fast for that.
    """
    limit = lambda_bound(bound)
    if sum(lam) > limit:
        raise ValueError(
            f"|lambda| = {sum(lam)} exceeds the enumeration bound {limit}"
            f" (override with an explicit bound or {LAMBDA_BOUND_ENV})"
        )
    spec = strata_spec(lam)
    dims, t = spec.dims, spec.t
    memo: dict[tuple[int, Partition], tuple[Fraction, int, TauString]] = {}

    def best(i: int, required: Partition) -> tuple[Fraction, int, TauString]:
        if i == t:
            return (Fraction(0), 1, ())
        key = (i, required)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best_val: Fraction | None = None
        best_tail: TauString = ()
        count = 0
        for diagram in _ortho_by_a_partition(dims[i], dims[i + 1]).get(required, ()):
            sub_val, sub_count, sub_tail = best(i + 1, ab.b_partition(diagram))
            if sub_count == 0:
                continue
            count += sub_count
            val = _column_weight_term(diagram) + sub_val
            if best_val is None or val > best_val:
                best_val = val
                best_tail = (diagram,) + sub_tail
        result = (best_val if best_val is not None else Fraction(0), count, best_tail)
        memo[key] = result
        return result

    bulk = sum(
        (Fraction(dims[i] * dims[i + 1], 2) - Fraction(dims[i] + dims[i + 1], 4)
         for i in range(t)),
        Fraction(0),
    )
    partial: dict[Partition, tuple[Fraction, int, TauString]] = {}
    for diagram in ab.enumerate_ortho(dims[0], dims[1]):
        mu = ab.a_partition(diagram)
        sub_val, sub_count, sub_tail = best(1, ab.b_partition(diagram))
        if sub_count == 0:
            continue
        val = _column_weight_term(diagram) + sub_val
        label = (diagram,) + sub_tail
        prev = partial.get(mu)
        if prev is None:
            partial[mu] = (val, sub_count, label)
        else:
            pv, pc, pl = prev
            if val > pv:
                partial[mu] = (val, pc + sub_count, label)
            else:
                partial[mu] = (pv, pc + sub_count, pl)
    return {
        mu: OrbitSummary(dim_orbit(mu) / 2 + bulk + val, count, label)
        for mu, (val, count, label) in partial.items()
    }


def strata_report(lam: Partition, bound: int | None = None) -> dict:
    """JSON-ready stratum table; dimensions travel as numerators over 4."""
    spec = strata_spec(lam)
    rows = []
    for tau in enumerate_lambda(lam, bound):
        dim = dim_stratum(tau, spec)
        rows.append(
            {
                "tau": [ab.format_diagram(d) for d in tau],
                "mu": list(orbit_partition(tau)),
                "dim_num4": int(dim * 4),
            }
        )
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
