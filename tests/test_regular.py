"""Closed-form solver for the unit-spaced chain and its volume region."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from chainlife import (
    DegenerateCoefficient,
    IndexOutOfRange,
    NegativeFlow,
    PerturbedNetwork,
    RegularNetwork,
    SingularMatrix,
    build_cost_series,
    check_q_constraints,
    energy_bounds_perturbed,
    flow_closed_form,
    harmonic_flow_a2,
    node_energy_closed_form,
    node_energy_recurrence,
    q_i_max,
    q_n_min,
    raw_flows,
    single_exponent_series,
    stability_region_Q_check,
    unit_hop_costs,
    volume_limits,
)
from chainlife.perturbed import _costs, _equal_energy_flows, _forward_sums
from chainlife.regular import Q_CONSTRAINT_TOL, _closed_form_energy

from helpers import random_positive_volumes, random_series, unit_region_volumes


def unit_net(n: int, a: float) -> RegularNetwork:
    return RegularNetwork(n, (1.0,) * n, single_exponent_series(a))


def test_network_validation():
    series = single_exponent_series(2.0)
    with pytest.raises(ValueError):
        RegularNetwork(0, (), series)
    with pytest.raises(ValueError):
        RegularNetwork(2, (1.0,), series)
    with pytest.raises(ValueError):
        RegularNetwork(2, (1.0, 0.0), series)


def test_two_node_quadratic_flows():
    sol = flow_closed_form(unit_net(2, 2.0))
    assert sol.flow.amount(1, 0) == pytest.approx(7 / 4, abs=1e-14)
    assert sol.flow.amount(2, 0) == pytest.approx(1 / 4, abs=1e-14)
    assert sol.flow.amount(2, 1) == pytest.approx(3 / 4, abs=1e-14)
    assert sol.common_energy == pytest.approx(7 / 4, abs=1e-14)
    assert sol.node_energies == pytest.approx((7 / 4, 7 / 4), abs=1e-14)


def test_three_node_quadratic_flows():
    sol = flow_closed_form(unit_net(3, 2.0))
    expected = {
        (1, 0): 23 / 9,
        (2, 0): 1 / 4,
        (2, 1): 14 / 9,
        (3, 0): 7 / 36,
        (3, 2): 29 / 36,
    }
    for pair, value in expected.items():
        assert sol.flow.amount(*pair) == pytest.approx(value, abs=1e-13), pair
    assert sol.common_energy == pytest.approx(23 / 9, abs=1e-13)


def test_linear_cost_closed_form():
    # exponent 1: common energy (N+1)/2 and every relay sends 1/2 directly
    for n in (2, 3, 7, 12):
        sol = flow_closed_form(unit_net(n, 1.0))
        assert sol.common_energy == pytest.approx((n + 1) / 2, rel=1e-13)
        for i in range(2, n + 1):
            assert sol.flow.amount(i, 0) == pytest.approx(0.5, abs=1e-12)


def test_recurrence_equals_closed_form_random():
    rng = np.random.default_rng(909090)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        net = RegularNetwork(n, random_positive_volumes(rng, n), random_series(rng))
        a = node_energy_recurrence(net)
        b = node_energy_closed_form(net)
        assert a == pytest.approx(b, rel=1e-12)


def test_harmonic_direct_flows():
    for n in (3, 10, 50):
        sol = flow_closed_form(unit_net(n, 2.0))
        for i in range(2, n + 1):
            assert sol.flow.amount(i, 0) == pytest.approx(
                harmonic_flow_a2(i, n), abs=1e-13
            )
    with pytest.raises(IndexOutOfRange):
        harmonic_flow_a2(1, 5)
    with pytest.raises(IndexOutOfRange):
        harmonic_flow_a2(6, 5)


def test_energy_agrees_with_flow_objective():
    rng = np.random.default_rng(3030)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
        sol = flow_closed_form(net)
        assert sol.common_energy == pytest.approx(node_energy_closed_form(net), rel=1e-11)
        assert max(sol.node_energies) - min(sol.node_energies) < 1e-10


def test_q_constraints_gate():
    assert check_q_constraints(unit_net(4, 2.0))
    series = single_exponent_series(2.0)
    assert not check_q_constraints(RegularNetwork(2, (0.9, 1.0), series))
    assert not check_q_constraints(RegularNetwork(2, (1.0, 0.2), series))
    assert check_q_constraints(RegularNetwork(2, (1.0, 0.3), series))


def test_q_constraints_and_limits_from_one_relay_summation():
    # the check reads the chain's outward relay sums a, b, which the limits
    # read too; they are the solve's, so the direct flows are the solve's too
    rng = np.random.default_rng(2027)
    seen = set()
    for _ in range(80):
        n = int(rng.integers(1, 40))
        volumes = random_positive_volumes(rng, n)
        if rng.random() < 0.7:
            volumes = (1.0 + float(rng.random()),) + volumes[1:]
        net = RegularNetwork(n, volumes, random_series(rng, max_terms=2))
        costs = _costs(net)
        forward = _forward_sums(volumes, *costs)
        sent, _, _ = _equal_energy_flows(volumes, *costs, forward)
        expected = not volumes[0] < 1.0 - Q_CONSTRAINT_TOL and all(
            q > flow - Q_CONSTRAINT_TOL for q, flow in zip(volumes[1:], sent[2:])
        )
        assert check_q_constraints(net) is expected
        assert net.forward_sums == forward
        seen.add(expected)
    assert seen == {False, True}


def test_q_constraints_need_no_backward_walk():
    # node 1 a float step from the collector: L_2 rounds to D_2, so s_2 = 0
    # and the backward walk divides by zero.  The check reads only the
    # outward sums and answers; the limits read both walks and raise
    net = PerturbedNetwork(3, (1.0 - 2.0**-53, 0.0, 0.0), (1.0,) * 3, single_exponent_series(2.0))
    assert check_q_constraints(net) is True
    with pytest.raises(SingularMatrix, match="zero or infinite hop cost"):
        volume_limits(net)


def test_far_node_minimum_volume():
    net = unit_net(2, 2.0)
    assert q_n_min(net) == pytest.approx(0.25, abs=1e-14)
    assert q_n_min(RegularNetwork(1, (1.0,), net.series)) == 0.0
    # at the boundary the relay flow vanishes
    for n in (2, 4, 6):
        for a in (1.0, 2.0):
            base = unit_net(n, a)
            volumes = list(base.volumes)
            volumes[-1] = q_n_min(base)
            flows = raw_flows(RegularNetwork(n, tuple(volumes), base.series))
            assert abs(flows[(n, n - 1)]) < 1e-12


def test_interior_node_maximum_volume():
    for n in (2, 3, 5):
        for a in (1.0, 2.0):
            net = unit_net(n, a)
            for i in range(1, n):
                bound = q_i_max(net, i)
                volumes = list(net.volumes)
                volumes[i - 1] = bound
                flows = raw_flows(RegularNetwork(n, tuple(volumes), net.series))
                assert abs(flows[(i + 1, i)]) < 1e-10, (n, a, i)
    with pytest.raises(IndexOutOfRange):
        q_i_max(unit_net(3, 2.0), 3)


def test_crossing_a_volume_boundary_flips_feasibility():
    net = unit_net(3, 2.0)
    floor = q_n_min(net)
    good = list(net.volumes)
    good[-1] = floor * (1 + 1e-6)
    flow_closed_form(RegularNetwork(3, tuple(good), net.series))
    bad = list(net.volumes)
    bad[-1] = floor * (1 - 1e-6)
    with pytest.raises(NegativeFlow) as caught:
        flow_closed_form(RegularNetwork(3, tuple(bad), net.series))
    assert caught.value.component == (3, 2)


def test_negative_flow_reports_worst_component():
    with pytest.raises(NegativeFlow) as caught:
        flow_closed_form(RegularNetwork(2, (1.0, 0.1), single_exponent_series(2.0)))
    assert caught.value.component == (2, 1)
    assert caught.value.value == pytest.approx(-0.15, abs=1e-12)


def test_uniform_volume_region_membership():
    series = single_exponent_series(2.0)
    assert stability_region_Q_check(RegularNetwork(3, (1.0, 1.2, 1.4), series))
    assert not stability_region_Q_check(RegularNetwork(3, (0.9, 1.0, 1.0), series))
    assert not stability_region_Q_check(RegularNetwork(3, (1.5, 1.5, 1.5), series))
    with pytest.raises(ValueError):
        stability_region_Q_check(RegularNetwork(2, (1.0, 1.0), series))


def test_uniform_region_is_always_feasible():
    rng = np.random.default_rng(515151)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
        assert stability_region_Q_check(net)
        assert check_q_constraints(net)
        sol = flow_closed_form(net)
        assert sol.flow.min_entry() >= 0.0


def test_energy_bounds_bracket_the_common_energy():
    net = unit_net(2, 2.0)
    lower, upper = energy_bounds_perturbed(net)
    assert (lower, upper) == pytest.approx((1.5, 2.0), abs=1e-14)
    rng = np.random.default_rng(818181)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
        lower, upper = energy_bounds_perturbed(net)
        energy = node_energy_closed_form(net)
        assert lower - 1e-10 <= energy < upper
    # linear cost attains the lower end exactly
    lower, _ = energy_bounds_perturbed(unit_net(5, 1.0))
    assert node_energy_closed_form(unit_net(5, 1.0)) == pytest.approx(lower, rel=1e-13)


def test_degenerate_boundary_is_reported():
    # with a single node chain there is no interior node, so fabricate the
    # degenerate case through the guard on index range instead
    with pytest.raises(IndexOutOfRange):
        q_i_max(RegularNetwork(1, (1.0,), single_exponent_series(2.0)), 1)


def test_raw_flows_outside_region_are_signed():
    flows = raw_flows(RegularNetwork(2, (1.0, 0.1), single_exponent_series(2.0)))
    assert flows[(2, 1)] == pytest.approx(-0.15, abs=1e-12)


def test_raw_flows_match_paper_formula():
    # q_{i,0} = e1 / h_i * E_{i-1}, with E_{i-1} the common energy of the
    # first i - 1 nodes; this holds outside the volume region as well
    rng = np.random.default_rng(474747)
    for k in range(100):
        n = int(rng.integers(2, 30))
        net = RegularNetwork(n, random_positive_volumes(rng, n), random_series(rng))
        if k % 2:  # half the cases push the far node below its minimum volume
            net = RegularNetwork(n, net.volumes[:-1] + (0.5 * q_n_min(net),), net.series)
        hops = unit_hop_costs(net.series, net.n)
        e1 = hops[1]
        flows = raw_flows(net)
        if k % 2:
            assert flows[(n, n - 1)] < 0.0
        assert flows[(1, 0)] == pytest.approx(
            _closed_form_energy(net.volumes, hops, e1), rel=1e-12
        )
        for i in range(2, n + 1):
            expected = e1 / hops[i] * _closed_form_energy(net.volumes[: i - 1], hops, e1)
            assert flows[(i, 0)] == pytest.approx(expected, rel=1e-12, abs=1e-12), (n, i)


def test_q_n_min_matches_the_closed_form():
    # q_n_min is the affine root of q_{N,N-1} in Q_N; the paper's value is
    # E_{N-1} / h_N, with E_{N-1} the common energy of the first N - 1 nodes
    rng = np.random.default_rng(31337)
    for _ in range(150):
        n = int(np.exp(rng.uniform(np.log(2), np.log(1000))))
        net = RegularNetwork(n, random_positive_volumes(rng, n), random_series(rng))
        hops = unit_hop_costs(net.series, n)
        expected = _closed_form_energy(net.volumes[: n - 1], hops) / hops[n]
        assert q_n_min(net) == pytest.approx(expected, rel=1e-13, abs=0.0), n


def test_far_end_volume_bounds_keep_precision():
    # near the far end q_{i+1,i} barely depends on Q_i, so q_i_max divides
    # by a small slope; reference: the same two-point root on the paper's
    # relay sum_{j>i} (Q_j - e1 / h_j * E_{j-1})
    n = 1000
    rng = np.random.default_rng(985)
    net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
    hops = unit_hop_costs(net.series, net.n)
    e1 = hops[1]
    for i in (n - 46, n - 15, n - 1):

        def relay(value: float) -> float:
            volumes = list(net.volumes)
            volumes[i - 1] = value
            return math.fsum(
                volumes[j - 1] - e1 / hops[j] * _closed_form_energy(volumes[: j - 1], hops, e1)
                for j in range(i + 1, n + 1)
            )

        at_zero = relay(0.0)
        expected = -at_zero / (relay(1.0) - at_zero)
        assert q_i_max(net, i) == pytest.approx(expected, rel=1e-9), i


def _exact_relays(volumes, direct, left) -> list[Fraction]:
    """Relays q_{k+1,k}, k = 1..n-1, of the walk in exact rational arithmetic."""
    a = b = Fraction(0)
    states = []
    for k in range(1, len(volumes) + 1):
        shrink = 1 - left[k] / direct[k]
        a, b = a * shrink - volumes[k - 1], b * shrink + 1 / direct[k]
        states.append((a, b))
    energy = -a / b
    return [a + b * energy for a, b in states[:-1]]


def _exact_limit(net, i: int) -> Fraction:
    # the relay that vanishes at node i's limit is affine in Q_i: two exact
    # walks give its root
    direct, left = ([Fraction(c) for c in costs] for costs in _costs(net))
    k = min(i, net.n - 1)
    at = []
    for value in (0, 1):
        volumes = [Fraction(q) for q in net.volumes]
        volumes[i - 1] = Fraction(value)
        at.append(_exact_relays(volumes, direct, left)[k - 1])
    return -at[0] / (at[1] - at[0])


def test_volume_limits_match_exact_rational_walks():
    # two-term costs with dyadic weights and integer exponents at dyadic
    # positions are exact in floats, so the exact walk solves the same chain
    rng = np.random.default_rng(14014)
    nets = []
    for case in range(40):
        n = int(rng.integers(3, 15))
        w = int(rng.integers(1, 8)) / 8
        lo, hi = (int(v) for v in rng.choice([1, 2, 3, 4], size=2, replace=False))
        series = build_cost_series([(w, float(lo)), (1.0 - w, float(hi))])
        shifts = (0.0,) * n
        if case % 2:
            shifts = tuple(int(v) / 16 for v in rng.integers(-6, 7, size=n))
        volumes = tuple(int(v) / 64 for v in rng.integers(64, 193, size=n))
        nets.append(PerturbedNetwork(n, shifts, volumes, series))
    # steep costs and huge volumes: a relay's slope in a volume is tiny next
    # to its value, yet its root is finite
    for n, a, volume in [(10, 20.0, 1.0), (6, 50.0, 1.0), (10, 100.0, 1.0), (40, 100.0, 1.0),
                         (3, 2.0, 1e16), (30, 3.0, 1e20)]:
        nets.append(RegularNetwork(n, (volume,) * n, single_exponent_series(a)))
    # Q_2 far above its limit 33/4: the root must not cancel against Q_2
    for volume in (1e16, 1e18, 1e300):
        nets.append(RegularNetwork(3, (1.0, volume, 1.0), single_exponent_series(2.0)))
        assert q_i_max(nets[-1], 2) == pytest.approx(33 / 4, rel=1e-14, abs=0.0), volume
    for case, net in enumerate(nets):
        n = net.n
        limits = volume_limits(net)
        assert len(limits) == n
        for i in range(1, n):
            exact = _exact_limit(net, i)
            assert q_i_max(net, i) == limits[i - 1]
            assert limits[i - 1] == pytest.approx(float(exact), rel=1e-14, abs=0.0), (case, i)
        exact = _exact_limit(net, n)
        assert q_n_min(net) == limits[n - 1]
        assert limits[n - 1] == pytest.approx(float(exact), rel=1e-14, abs=0.0), case


def test_volume_limit_with_a_vanishing_slope_is_degenerate():
    # Q_1^max of (1, 1e308, 1) lies past the float range; the others are finite
    net = RegularNetwork(3, (1.0, 1e308, 1.0), single_exponent_series(2.0))
    limits = volume_limits(net)
    assert limits[0] is None
    assert q_i_max(net, 2) == pytest.approx(33 / 4, rel=1e-14) == limits[1]
    assert q_n_min(net) == limits[2] > 0.0
    with pytest.raises(DegenerateCoefficient, match=r"Q_1\^max of this chain is not finite"):
        q_i_max(net, 1)
    # two volumes at the float limit overflow node 3's minimum
    net = RegularNetwork(3, (1.7e308, 1.7e308, 1.0), single_exponent_series(20.0))
    assert volume_limits(net)[2] is None
    with pytest.raises(DegenerateCoefficient, match=r"Q_3\^min of this chain is not finite"):
        q_n_min(net)
