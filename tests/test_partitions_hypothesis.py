"""Dominance covers past the exhaustive oracle's range, on random sizes."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symorbit.partitions import (  # noqa: E402
    diff_stats,
    dominance_covers,
    dominates,
    enumerate_below,
    enumerate_partitions,
)

SIZES = st.integers(min_value=21, max_value=30)


@lru_cache(maxsize=None)
def covers_by_top(n):
    out = {}
    for lam, mu in dominance_covers(n):
        out.setdefault(lam, set()).add(mu)
    return out


@settings(max_examples=5, deadline=None, database=None)
@given(n=SIZES)
def test_every_cover_is_a_single_box_move(n):
    for lam, mu in dominance_covers(n):
        assert lam != mu and dominates(lam, mu)
        assert diff_stats(lam, mu).q == 1


@settings(max_examples=60, deadline=None, database=None)
@given(n=SIZES, data=st.data())
def test_cover_iff_nothing_strictly_between(n, data):
    lam = data.draw(st.sampled_from(enumerate_partitions(n)))
    strictly_below = enumerate_below(lam)[1:]
    if not strictly_below:
        return
    covers = covers_by_top(n).get(lam, set())
    # A uniform pick is rarely a cover, so a coin flip may pick among them.
    pool = [mu for mu in strictly_below if mu in covers]
    if not pool or data.draw(st.booleans()):
        pool = strictly_below
    mu = data.draw(st.sampled_from(pool))
    between = any(nu != mu and dominates(nu, mu) for nu in strictly_below)
    assert (mu in covers) == (not between)
