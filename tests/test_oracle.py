"""Minimax LP: dual certificate and simplex against the closed forms, plus an external solver check."""
from __future__ import annotations

import numpy as np
import pytest

from chainlife import (
    NumericalStall,
    RegularNetwork,
    build_cost_series,
    flow_closed_form,
    raw_flows,
    single_exponent_series,
)
from chainlife.cost import CostSeries
from chainlife.oracle import (
    LpInstance,
    VerdictStatus,
    certify,
    chain_support_pairs,
    formulate,
    solve,
    verify_candidate,
)

from helpers import random_series, unit_region_volumes

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def unit_net(n: int, a: float) -> RegularNetwork:
    return RegularNetwork(n, (1.0,) * n, single_exponent_series(a))


def test_formulate_full_arc_count():
    assert len(formulate(unit_net(2, 2.0)).pairs) == 4
    assert len(formulate(unit_net(3, 2.0)).pairs) == 9


def test_formulate_restriction_rules():
    net = unit_net(3, 2.0)
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0)])  # (3, 0) missing
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0), (3, 0), (2, 2)])
    with pytest.raises(ValueError):
        formulate(net, pairs=[(1, 0), (2, 0), (3, 0), (2, 0)])
    with pytest.raises(ValueError):
        formulate(net, order=[0, 1])


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


def test_variable_order_does_not_change_the_optimum():
    rng = np.random.default_rng(5151)
    net = unit_net(4, 2.0)
    base = formulate(net)
    reference = solve(base).value
    for _ in range(5):
        order = list(rng.permutation(len(base.pairs)))
        value = solve(formulate(net, order=order)).value
        assert value == pytest.approx(reference, abs=1e-9)


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


def test_verdicts():
    net = unit_net(2, 2.0)
    inst = formulate(net)
    good = dict(flow_closed_form(net).flow.items())
    assert verify_candidate(inst, good).status is VerdictStatus.OPTIMAL

    # next-hop strategy: all data crawls along unit hops, node 1 overloads
    next_hop = {(2, 1): 1.0, (1, 0): 2.0}
    verdict = verify_candidate(inst, next_hop)
    assert verdict.status is VerdictStatus.SUBOPTIMAL
    assert verdict.max_energy == pytest.approx(2.0)
    assert verdict.gap == pytest.approx(1 / 4, abs=1e-9)

    broken = {(1, 0): 1.0, (2, 0): 0.2}  # node 2 drops data
    assert verify_candidate(inst, broken).status is VerdictStatus.INFEASIBLE
    negative = {(1, 0): 2.0, (2, 0): 2.0, (2, 1): -1.0}
    assert verify_candidate(inst, negative).status is VerdictStatus.INFEASIBLE


def _linprog_value(inst: LpInstance) -> float:
    arcs = len(inst.pairs)
    n = inst.n
    a_eq = np.zeros((n, arcs + 1))
    b_eq = np.array(inst.volumes, dtype=float)
    a_ub = np.zeros((n, arcs + 1))
    for k, (i, j) in enumerate(inst.pairs):
        a_eq[i - 1, k] += 1.0
        if j >= 1:
            a_eq[j - 1, k] -= 1.0
        a_ub[i - 1, k] = inst.costs[i, j]
    a_ub[:, arcs] = -1.0
    c = np.zeros(arcs + 1)
    c[arcs] = 1.0
    result = scipy_linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * arcs + [(None, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.fun)


def test_simplex_matches_external_solver():
    rng = np.random.default_rng(987654)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        series = random_series(rng)
        if rng.random() < 0.5:
            volumes = unit_region_volumes(rng, n)
        else:
            # unrestricted positive volumes; many fall outside the
            # closed-form region but the LP remains well posed
            volumes = tuple(float(v) for v in rng.uniform(0.05, 3.0, size=n))
        inst = formulate(RegularNetwork(n, volumes, series))
        assert solve(inst).value == pytest.approx(_linprog_value(inst), abs=1e-8)


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


def test_certificate_refuses_costs_that_are_not_superadditive():
    # validation bypassed: sqrt(s) makes relaying through node 3 pay off
    concave = certify(formulate(RegularNetwork(6, (1.0,) * 6, CostSeries(((1.0, 0.5),)))))
    assert concave.arc == (6, 3)
    assert concave.slack == pytest.approx(0.1293, abs=1e-4)
    # a flat cost makes the hop to node 1 as dear as the direct arc
    flat = certify(formulate(RegularNetwork(3, (1.0,) * 3, CostSeries(((1.0, 0.0),)))))
    assert flat.arc == (2, 1)
    assert flat.slack == float("inf")
