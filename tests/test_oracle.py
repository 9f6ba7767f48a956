"""Minimax LP: the dual certificate and the checked HiGHS solve against the closed forms."""
from __future__ import annotations

import numpy as np
import pytest

from chainlife import (
    PerturbedNetwork,
    RegularNetwork,
    build_cost_series,
    check_conservation,
    flow_closed_form,
    node_energies,
    raw_flows,
    single_exponent_series,
)
from chainlife.cost import CostSeries, transmission_cost
from chainlife.oracle import (
    DEFAULT_VERIFY_TOL,
    certify,
    chain_support_pairs,
    check_dual,
    formulate,
    solve,
)

from helpers import random_series, unit_region_volumes


def unit_net(n: int, a: float) -> RegularNetwork:
    return RegularNetwork(n, (1.0,) * n, single_exponent_series(a))


def test_formulate_full_arc_count():
    assert len(formulate(unit_net(2, 2.0)).pairs) == 4
    assert len(formulate(unit_net(3, 2.0)).pairs) == 9


@pytest.mark.parametrize(
    "net",
    [
        RegularNetwork(12, (1.0,) * 12, build_cost_series([(0.3, 1.4), (0.7, 2.6)])),
        PerturbedNetwork(
            12,
            (0.1, -0.2, 0.0, 0.0, 0.3, 0.3, -0.05, 0.0, 0.2, 0.0, 0.0, -0.4),
            (1.0,) * 12,
            build_cost_series([(0.3, 1.4), (0.7, 2.6)]),
        ),
    ],
    ids=["regular", "shifted"],
)
def test_formulate_costs_each_arc_exactly(net):
    # each distinct distance is costed once; the matrix must stay the
    # per-arc one bit for bit
    x = net.positions().x
    expected = np.zeros((net.n + 1, net.n + 1))
    for i in range(1, net.n + 1):
        for j in range(net.n + 1):
            if i != j:
                expected[i, j] = transmission_cost(net.series, x[i], x[j])
    assert np.array_equal(formulate(net).costs, expected)


def test_formulate_restriction_rules():
    net = unit_net(3, 2.0)
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0)])  # (3, 0) missing
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0), (3, 0), (2, 2)])
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0), (3, 0), (2, 0)])


def test_solve_two_and_three_node_chains():
    assert solve(formulate(unit_net(2, 2.0))).value == pytest.approx(7 / 4, abs=1e-10)
    assert solve(formulate(unit_net(3, 2.0))).value == pytest.approx(23 / 9, abs=1e-10)
    assert solve(formulate(unit_net(5, 1.0))).value == pytest.approx(3.0, abs=1e-10)


def test_solution_flow_is_feasible():
    lp = solve(formulate(unit_net(4, 2.0)))
    sent = [0.0] * 5
    for (i, j), value in lp.flow.items():
        assert value >= 0.0
        sent[i] += value
        sent[j] -= value
    for i in range(1, 5):
        assert sent[i] == pytest.approx(1.0, abs=1e-9)


def test_restricted_support_reaches_same_optimum():
    for n in (2, 4, 6):
        for a in (1.0, 2.0):
            net = unit_net(n, a)
            full = solve(formulate(net)).value
            restricted = solve(formulate(net, pairs=chain_support_pairs(n))).value
            assert restricted == pytest.approx(full, abs=1e-9)


def test_objective_scales_with_volumes():
    rng = np.random.default_rng(6161)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        series = random_series(rng)
        q = unit_region_volumes(rng, n)
        scale = float(rng.uniform(0.5, 4.0))
        base = solve(formulate(RegularNetwork(n, q, series))).value
        scaled = solve(
            formulate(RegularNetwork(n, tuple(scale * v for v in q), series))
        ).value
        assert scaled == pytest.approx(scale * base, rel=1e-9)


def _outside_region_volumes(rng: np.random.Generator, n: int, series) -> tuple[float, ...]:
    # a nearly silent last node pushes about half the draws out of the
    # region; redraw until the equal-energy split has a negative component
    while True:
        q = rng.uniform(0.01, 3.0, size=n)
        q[-1] *= 0.01
        volumes = tuple(float(v) for v in q)
        if min(raw_flows(RegularNetwork(n, volumes, series)).values()) < 0.0:
            return volumes


def test_solve_returns_a_feasible_flow_at_its_value():
    # judged without any LP solver: conservation, signs and node energies
    rng = np.random.default_rng(987654)
    for k in range(30):
        n = int(rng.integers(2, 41))
        series = random_series(rng)
        if k % 2:
            volumes = _outside_region_volumes(rng, n, series)
        else:
            volumes = unit_region_volumes(rng, n)
        net = RegularNetwork(n, volumes, series)
        lp = solve(formulate(net))
        residual = check_conservation(lp.flow, volumes)
        assert np.max(np.abs(residual)) <= DEFAULT_VERIFY_TOL * max(volumes)
        assert all(value >= 0.0 for _, value in lp.flow.items())
        worst = float(np.max(node_energies(lp.flow, net.positions(), series)))
        assert worst == pytest.approx(lp.value, rel=DEFAULT_VERIFY_TOL)


def test_closed_form_is_optimal_outside_checks_only_inside_region():
    # outside the volume region the raw equal-energy values are signed and
    # the LP optimum is strictly below the raw common energy claim
    net = RegularNetwork(2, (1.0, 0.1), single_exponent_series(2.0))
    flows = raw_flows(net)
    assert flows[(2, 1)] < 0.0
    lp = solve(formulate(net))
    assert lp.value == pytest.approx(1.0, abs=1e-9)


def test_iteration_budget_is_reported():
    lp = solve(formulate(unit_net(6, 2.0)))
    assert lp.iterations >= 0
    assert isinstance(lp.iterations, int)


def test_certificate_proves_the_equal_energy_split():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        n = int(rng.integers(1, 41))
        a = float(rng.choice([1.0, 1.1, 1.5, 2.0, 3.0]))
        if rng.random() < 0.5:
            series = single_exponent_series(a)
        else:
            w = float(rng.uniform(0.2, 0.8))
            series = build_cost_series([(w, a), (1.0 - w, float(rng.uniform(1.0, 4.0)))])
        net = RegularNetwork(n, unit_region_volumes(rng, n), series)
        cert = certify(formulate(net))
        assert cert.bound == pytest.approx(flow_closed_form(net).common_energy, rel=1e-12)
        assert cert.slack <= 1e-12


def test_certificate_bound_matches_the_simplex():
    rng = np.random.default_rng(5353)
    for _ in range(20):
        n = int(rng.integers(1, 11))
        inst = formulate(RegularNetwork(n, unit_region_volumes(rng, n), random_series(rng)))
        assert certify(inst).bound == pytest.approx(solve(inst).value, abs=1e-9)


def test_check_dual_refuses_a_corrupted_point():
    # the closed-form point of a unit chain, a = 2: pi_i = pi_{i-1} D_i / (D_i - 1)
    inst = formulate(unit_net(3, 2.0))
    pi = np.array([0.0, 1.0, 4 / 3, 3 / 2])
    mu = np.array([0.0, 1.0, 1 / 3, 1 / 6])
    good = check_dual(inst, pi, mu)
    assert good.bound == pytest.approx(certify(inst).bound, rel=1e-14)
    assert good.slack <= 1e-15
    pi[2] += 0.1
    bad = check_dual(inst, pi, mu)
    assert bad.arc[0] == 2
    assert bad.slack > 0.01


def test_certificate_refuses_costs_that_are_not_superadditive():
    # validation bypassed: sqrt(s) makes relaying through node 3 pay off
    concave = certify(formulate(RegularNetwork(6, (1.0,) * 6, CostSeries(((1.0, 0.5),)))))
    assert concave.arc == (6, 3)
    assert concave.slack == pytest.approx(0.1293, abs=1e-4)
    # a flat cost makes the hop to node 1 as dear as the direct arc
    flat = certify(formulate(RegularNetwork(3, (1.0,) * 3, CostSeries(((1.0, 0.0),)))))
    assert flat.arc == (2, 1)
    assert flat.slack == float("inf")
