"""Minimax LP: the dual certificate and the checked HiGHS solve against the closed forms."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from chainlife import oracle
from chainlife.cost import CostSeries, transmission_cost
from chainlife.oracle import (
    DEFAULT_VERIFY_TOL,
    LpInstance,
    arcs,
    certifier,
    certify,
    check_dual,
    formulate,
    solve,
)

from helpers import random_series, unit_region_volumes


def unit_net(n: int, a: float) -> RegularNetwork:
    return RegularNetwork(n, (1.0,) * n, single_exponent_series(a))


def test_formulate_full_arc_count():
    # the arcs follow from n: every (i, j) with i in 1..n, j in 0..n, j != i
    for n in (2, 3):
        inst = formulate(unit_net(n, 2.0))
        tails, heads = arcs(len(inst.volumes))
        assert tails.size == heads.size == n * n
        assert np.count_nonzero(inst.costs) == n * n
        assert np.all(inst.costs[tails, heads] > 0.0)


@pytest.mark.parametrize(
    "net",
    [
        unit_net(9, 2.0),
        RegularNetwork(40, (1.0,) * 40, build_cost_series([(0.3, 1.4), (0.7, 2.6)])),
        PerturbedNetwork(5, (0.25, 0.0, -0.25, 0.0, 0.5), (1.0,) * 5, single_exponent_series(2.0)),
    ],
    ids=["regular9", "regular40", "shifted"],
)
def test_formulate_costs_each_distinct_distance_once(net, monkeypatch):
    calls = []

    def counting(series, xi, xj):
        calls.append(abs(xi - xj))
        return transmission_cost(series, xi, xj)

    monkeypatch.setattr(oracle, "transmission_cost", counting)
    formulate(net)
    x = net.positions().x
    distances = {abs(x[i] - x[j]) for i in range(1, net.n + 1) for j in range(net.n + 1) if i != j}
    assert sorted(calls) == sorted(distances)
    if not any(net.shifts):
        assert len(calls) == net.n


def test_check_dual_reports_the_first_worst_arc_in_row_order():
    # small integer points on integer costs (a = 1) tie across rows, so the
    # order in which the first maximum is taken is what is pinned
    rng = np.random.default_rng(1010)
    for k in range(400):
        n = int(rng.integers(1, 13))
        series = single_exponent_series(1.0) if k % 2 else random_series(rng)
        inst = formulate(RegularNetwork(n, (1.0,) * n, series))
        pi = np.concatenate(([0.0], rng.integers(-3, 6, size=n).astype(float)))
        mu = np.concatenate(([0.0], rng.integers(0, 3, size=n).astype(float)))
        mu[1] += 1.0  # keeps sum mu positive
        cert = check_dual(inst, pi, mu)
        total = float(mu.sum())
        p, u = [v / total for v in pi.tolist()], [v / total for v in mu.tolist()]
        best, arc = -math.inf, None
        for i in range(1, n + 1):
            for j in range(n + 1):
                if j != i:
                    slack = p[i] - p[j] - u[i] * float(inst.costs[i, j])
                    if slack > best:
                        best, arc = slack, (i, j)
        assert cert.arc == arc
        assert cert.slack == best
        assert all(type(k) is int for k in cert.arc)


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


def _rows_per_block(monkeypatch, rows: int | None, n: int) -> None:
    """Blocks of ``rows`` rows of an n-node chain, or the default size for None."""
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", rows * 8 * (n + 1))


def _assert_chain_certificate_is_the_matrix_one(net, rows) -> None:
    with pytest.MonkeyPatch.context() as patch:
        _rows_per_block(patch, net.n, net.n)  # one block: the whole-matrix argmax
        expected = certify(formulate(net))
    with pytest.MonkeyPatch.context() as patch:
        _rows_per_block(patch, rows, net.n)
        got = certifier(net)(net.volumes)
    # bit for bit: == on floats, and the same arc
    assert (got.bound, got.slack, got.arc) == (expected.bound, expected.slack, expected.arc)
    assert type(got.bound) is float and type(got.slack) is float
    assert all(type(k) is int for k in got.arc)


@st.composite
def regular_chains(draw):
    """A regular chain of 1-60 nodes: one or two terms with exponents 1-5, volumes 0.5-2."""
    n = draw(st.integers(1, 60))
    exponents = draw(st.lists(st.floats(1.0, 5.0), min_size=1, max_size=2))
    if len(exponents) == 1:
        series = single_exponent_series(exponents[0])
    else:
        w = draw(st.floats(0.05, 0.95))
        series = build_cost_series([(w, exponents[0]), (1.0 - w, exponents[1])])
    volumes = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    return RegularNetwork(n, tuple(volumes), series)


@settings(max_examples=60, deadline=None)
@given(net=regular_chains(), rows=st.sampled_from([1, 7, None]))
def test_chain_certificate_is_the_matrix_certificate(net, rows):
    _assert_chain_certificate_is_the_matrix_one(net, rows)


@pytest.mark.parametrize("rows", [1, 7, None], ids=["rows1", "rows7", "default"])
@pytest.mark.parametrize(
    "net",
    [
        RegularNetwork(300, (1.0,) * 300, single_exponent_series(1.0)),
        RegularNetwork(1000, (1.2,) * 500 + (1.0,) * 500, single_exponent_series(3.0)),
        RegularNetwork(2000, (1.0,) * 2000, build_cost_series([(0.5, 1.5), (0.5, 2.0)])),
        # validation bypassed: a violated arc, then no nonnegative multiplier
        RegularNetwork(6, (1.0,) * 6, CostSeries(((1.0, 0.5),))),
        RegularNetwork(3, (1.0,) * 3, CostSeries(((1.0, 0.0),))),
    ],
    ids=["n300-linear", "n1000-cubic", "n2000-two-term", "concave", "flat"],
)
def test_chain_certificate_is_the_matrix_certificate_on_fixed_chains(net, rows):
    _assert_chain_certificate_is_the_matrix_one(net, rows)


@pytest.mark.parametrize("rows", [1, 7])
def test_block_merge_keeps_the_first_worst_arc_and_the_first_nan(monkeypatch, rows):
    # pi = 0 and mu = 1/n: every row's worst slack is -1/n, on its unit hops,
    # so the worst slacks tie across every block boundary
    n = 20
    inst = formulate(unit_net(n, 2.0))
    pi, mu = np.zeros(n + 1), np.concatenate(([0.0], np.ones(n)))
    _rows_per_block(monkeypatch, rows, n)
    cert = check_dual(inst, pi, mu)
    assert (cert.slack, cert.arc) == (-1.0 / n, (1, 0))
    # a NaN cost in row 9 outranks the larger slack of row 15
    costs = inst.costs.copy()
    costs[9, 4] = math.nan
    costs[15, 14] = 0.0
    cert = check_dual(LpInstance(inst.volumes, costs), pi, mu)
    assert math.isnan(cert.slack) and cert.arc == (9, 4)


def test_chain_certifier_refuses_a_shifted_chain():
    net = PerturbedNetwork(3, (0.0, 0.2, 0.0), (1.0,) * 3, single_exponent_series(2.0))
    with pytest.raises(ValueError, match="regular chain"):
        certifier(net)
