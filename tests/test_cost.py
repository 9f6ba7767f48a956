"""Cost-model validation: normalization, hop costs."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlife import (
    ChainlifeError,
    CostSeries,
    ExponentBelowOne,
    NegativeCoefficient,
    NotNormalized,
    build_cost_series,
    single_exponent_series,
    transmission_cost,
    unit_hop_costs,
)
from chainlife.cost import cost_function

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


@pytest.mark.parametrize("auto_normalize", [False, True])
def test_coefficients_summing_past_the_float_range_are_not_normalized(auto_normalize):
    with pytest.raises(NotNormalized, match="float range"):
        build_cost_series([(1e308, 1.0), (1e308, 2.0)], auto_normalize=auto_normalize)


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


MAX_FLOAT = 1.7976931348623157e308


def _outcome(cost, xi: float, xj: float) -> str:
    """A cost's exact text, or its error's type and message."""
    try:
        return repr(cost(xi, xj))
    except ChainlifeError as exc:
        return f"{type(exc).__name__}: {exc}"


exponents = st.floats(min_value=1.0, max_value=40.0) | st.integers(1, 40).map(float)
hand_lambdas = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from([0.0, -0.0, -1.0, 1.0])


@st.composite
def costed_pairs(draw):
    """A series of 1-3 terms, validated or hand-built with any sign of
    coefficient, and coordinate pairs at distances from 0 to past overflow."""
    exps = draw(st.lists(exponents, min_size=1, max_size=3))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.05, 5.0), min_size=len(exps), max_size=len(exps)))
        series = build_cost_series(list(zip(weights, exps)), auto_normalize=True)
    else:
        lams = draw(st.lists(hand_lambdas, min_size=len(exps), max_size=len(exps)))
        series = CostSeries(tuple(zip(lams, exps)))
    edge = MAX_FLOAT ** (1.0 / max(exps))  # where the steepest term overflows
    s = draw(
        st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, edge])
        | st.floats(min_value=0.0, max_value=1e3)
        | st.floats(min_value=edge * (1 - 1e-12), max_value=edge * (1 + 1e-12))
        | st.floats(min_value=edge * 0.5, max_value=edge * 2.0)
    )
    base = draw(st.sampled_from([0.0, 1.0, -2.5, 7.25]))
    return series, [(s, 0.0), (0.0, s), (-s, 0.0), (base + s, base), (base, base + s)]


@settings(max_examples=600, deadline=None)
@given(costed_pairs())
# both terms overflow, to +inf and -inf, whose fsum raises ValueError
@example((CostSeries(((2.0, 1.0), (-2.0, 1.0))), [(1.797693134860518e308, 0.0)]))
def test_cost_function_is_transmission_cost_bit_for_bit(case):
    series, pairs = case
    cost = cost_function(series)
    for xi, xj in pairs:
        assert _outcome(cost, xi, xj) == _outcome(
            lambda a, b: transmission_cost(series, a, b), xi, xj
        ), (series, xi, xj)


def test_cost_function_edge_cases():
    # zero distance, underflow, overflow with its message, a hand-built
    # negative or zero coefficient, three terms, and a one-term series at an
    # infinite or NaN coordinate or with a zero coefficient of either sign,
    # whose padded second term 0.0 * s is NaN or zero, as transmission_cost has them
    quadratic = single_exponent_series(2.0)
    two = build_cost_series([(0.5, 1.0), (0.5, 40.0)])
    cases = [
        (quadratic, 3.0, 3.0),
        (single_exponent_series(40.0), 5e-324, 0.0),
        (quadratic, 1e200, 0.0),
        (two, 0.0, 1e10),
        (two, 0.0, MAX_FLOAT ** (1 / 40) * (1 + 1e-15)),
        (CostSeries(((-0.5, 2.0),)), 0.0, 3.0),
        (CostSeries(((0.0, 2.0), (-0.0, 3.0))), 0.0, 3.0),
        (CostSeries(((2.0, 2.0), (-1.0, 3.0))), 0.0, 3.0),
        (build_cost_series([(0.2, 1.0), (0.3, 2.0), (0.5, 3.0)]), 0.0, 2.5),
        (quadratic, math.inf, 0.0),
        (quadratic, math.nan, 0.0),
        (CostSeries(((0.0, 2.0),)), 0.0, 3.0),
        (CostSeries(((-0.0, 2.0),)), 0.0, 3.0),
    ]
    outcomes = []
    for series, xi, xj in cases:
        outcomes.append(_outcome(cost_function(series), xi, xj))
        assert outcomes[-1] == _outcome(lambda a, b: transmission_cost(series, a, b), xi, xj)
    assert outcomes[0] == "0.0" and outcomes[1] == "0.0"
    assert outcomes[2] == (
        "ChainlifeError: transmission cost over distance 1e+200 exceeds the float range"
    )
    assert outcomes[3].startswith("ChainlifeError") and outcomes[4].startswith("ChainlifeError")
    assert outcomes[5] == "-4.5" and outcomes[7] == "-9.0"
    assert outcomes[9:11] == ["inf", "nan"]
