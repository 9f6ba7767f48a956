"""Cost-model validation: normalization, superadditivity, hop costs."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlife import (
    CostSeries,
    ExponentBelowOne,
    NegativeCoefficient,
    NotNormalized,
    Positions,
    build_cost_series,
    check_superadditivity,
    single_exponent_series,
    transmission_cost,
    unit_hop_costs,
)

term_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=4,
)


def test_rejects_negative_coefficient():
    with pytest.raises(NegativeCoefficient):
        build_cost_series([(0.5, 1.0), (-0.1, 2.0)], auto_normalize=True)


def test_rejects_exponent_below_one():
    with pytest.raises(ExponentBelowOne):
        build_cost_series([(1.0, 0.99)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_terms(value):
    with pytest.raises(NegativeCoefficient):
        build_cost_series([(value, 2.0)])
    with pytest.raises(ExponentBelowOne):
        build_cost_series([(1.0, value)])


def test_rejects_unnormalized_without_flag():
    with pytest.raises(NotNormalized):
        build_cost_series([(0.7, 1.0), (0.7, 2.0)])


def test_rejects_empty_and_zero_sum():
    with pytest.raises(NotNormalized):
        build_cost_series([])
    with pytest.raises(NotNormalized):
        build_cost_series([(0.0, 1.0), (0.0, 2.0)], auto_normalize=True)


def test_accepts_exact_normalization():
    series = build_cost_series([(0.25, 1.0), (0.75, 3.0)])
    assert transmission_cost(series, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


@given(term_lists)
@settings(max_examples=200, deadline=None)
def test_auto_normalized_unit_hop_is_one(terms):
    series = build_cost_series(terms, auto_normalize=True)
    assert abs(math.fsum(lam for lam, _ in series.terms) - 1.0) <= 1e-12
    assert transmission_cost(series, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_zero_distance_costs_nothing():
    series = single_exponent_series(2.5)
    assert transmission_cost(series, 3.0, 3.0) == 0.0


def test_cost_is_symmetric_and_monotone():
    series = build_cost_series([(0.5, 1.0), (0.5, 2.0)])
    assert transmission_cost(series, 1.0, 4.0) == transmission_cost(series, 4.0, 1.0)
    values = [transmission_cost(series, 0.0, d) for d in (0.5, 1.0, 2.0, 3.5)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_unit_hop_costs_table():
    series = single_exponent_series(2.0)
    assert unit_hop_costs(series, 4) == [0.0, 1.0, 4.0, 9.0, 16.0]


@given(term_lists, st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_valid_series_is_superadditive_on_chains(terms, n):
    series = build_cost_series(terms, auto_normalize=True)
    assert check_superadditivity(series, Positions.regular(n)) == []


def test_valid_series_is_superadditive_off_grid():
    series = build_cost_series([(0.3, 1.0), (0.4, 1.7), (0.3, 3.2)])
    positions = Positions((0.0, 0.4, 1.1, 2.9, 3.0))
    assert check_superadditivity(series, positions) == []


def test_subadditive_series_is_reported():
    # exponent below 1 must be built unvalidated to reach the checker
    broken = CostSeries(((1.0, 0.5),))
    violations = check_superadditivity(broken, Positions.regular(3))
    assert violations
    assert all(v.excess > 0 for v in violations)


def _poisson_weight_family(k: int, gamma: float = 0.5, alpha: float = 2.0) -> CostSeries:
    terms = [((gamma**s) / math.factorial(s), alpha + s) for s in range(k)]
    return build_cost_series(terms, auto_normalize=True)


def test_exponential_family_truncation_depth():
    """Poisson-weighted exponents approximate cost d^2 * e^(0.5 (d-1)).

    Twenty-six terms reach 1e-9 relative over d <= 10; a 12-term cut is
    only good to a few parts in a thousand at the far end, so depth has to
    be chosen for the largest distance in play.
    """

    def worst_error(k: int) -> float:
        series = _poisson_weight_family(k)
        out = 0.0
        for d in range(1, 11):
            target = d**2 * math.exp(0.5 * (d - 1.0))
            out = max(out, abs(transmission_cost(series, 0.0, d) - target) / target)
        return out

    assert worst_error(26) < 1e-9
    short = worst_error(12)
    assert 1e-3 < short < 1e-2
