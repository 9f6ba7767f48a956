"""Closed-form solver for the unit-spaced chain and its volume region."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chainlife import (
    DegenerateCoefficient,
    IndexOutOfRange,
    NegativeFlow,
    RegularNetwork,
    check_q_constraints,
    energy_bounds_regular,
    flow_closed_form,
    harmonic_flow_a2,
    node_energy_closed_form,
    node_energy_recurrence,
    q_i_max,
    q_n_min,
    raw_flows,
    single_exponent_series,
    stability_region_Q_check,
)
from chainlife.regular import _closed_form_energy

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
    lower, upper = energy_bounds_regular(net)
    assert (lower, upper) == pytest.approx((1.5, 2.0), abs=1e-14)
    rng = np.random.default_rng(818181)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
        lower, upper = energy_bounds_regular(net)
        energy = node_energy_closed_form(net)
        assert lower - 1e-10 <= energy < upper
    # linear cost attains the lower end exactly
    lower, _ = energy_bounds_regular(unit_net(5, 1.0))
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
        hops = net.hop_costs()
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


def test_far_end_volume_bounds_keep_precision():
    # near the far end q_{i+1,i} barely depends on Q_i, so q_i_max divides
    # by a small slope; reference: the same two-point root on the paper's
    # relay sum_{j>i} (Q_j - e1 / h_j * E_{j-1})
    n = 1000
    rng = np.random.default_rng(985)
    net = RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng))
    hops = net.hop_costs()
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
