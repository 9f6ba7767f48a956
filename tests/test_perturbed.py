"""Shifted-chain solver: system assembly, stability intervals, linear-cost forms."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chainlife import (
    ChainlifeError,
    CostSeries,
    IndexOutOfRange,
    NegativeFlow,
    PerturbedNetwork,
    Positions,
    RegularNetwork,
    SingularMatrix,
    assemble_system,
    build_cost_series,
    closed_form_a1,
    energy_bounds_perturbed,
    flow_closed_form,
    flow_quadratics_a1,
    node_energy_sn,
    numeric_d_interval,
    numeric_d_intervals,
    single_exponent_series,
    solve_equal_energy,
    stability_bounds_d,
    system_determinant,
    volume_limits,
)
from chainlife import perturbed
from chainlife.cost import cost_function
from chainlife.perturbed import BISECTION_TOL, BRACKET_MARGIN, sweep
from chainlife.validate import FLOW_ZERO_TOL
from chainlife.validate import check_conservation

from helpers import (
    random_series,
    reference_intervals,
    reference_solve,
    reference_sweep,
    unit_region_volumes,
)


def unit_perturbed(n: int, a: float, shifts=None) -> PerturbedNetwork:
    if shifts is None:
        shifts = (0.0,) * n
    return PerturbedNetwork(n, tuple(shifts), (1.0,) * n, single_exponent_series(a))


def test_network_validation():
    series = single_exponent_series(1.0)
    with pytest.raises(ValueError):
        PerturbedNetwork(2, (0.0, 1.0), (1.0, 1.0), series)
    with pytest.raises(ValueError):
        PerturbedNetwork(2, (0.0, 0.0), (1.0, -1.0), series)
    with pytest.raises(ValueError):
        PerturbedNetwork(2, (0.0,), (1.0, 1.0), series)


def test_system_layout_two_nodes_linear_cost():
    system = assemble_system(unit_perturbed(2, 1.0))
    assert system.ordering == ((2, 0), (1, 0), (2, 1))
    np.testing.assert_allclose(system.rhs, [1.0, 1.0, 0.0])
    # conservation for node 2, conservation for node 1, energy equality
    np.testing.assert_allclose(
        system.m,
        [
            [1.0, 0.0, 1.0],
            [0.0, 1.0, -1.0],
            [-2.0, 1.0, -1.0],
        ],
    )


def test_determinant_is_product_of_direct_costs():
    assert system_determinant(unit_perturbed(2, 1.0)) == pytest.approx(2.0, rel=1e-12)
    assert system_determinant(unit_perturbed(2, 2.0)) == pytest.approx(4.0, rel=1e-12)
    assert system_determinant(unit_perturbed(3, 2.0)) == pytest.approx(36.0, rel=1e-12)
    rng = np.random.default_rng(4242)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        net = PerturbedNetwork(n, (0.0,) * n, (1.0,) * n, random_series(rng))
        x = net.positions().x
        from chainlife.cost import transmission_cost

        expected = math.prod(
            transmission_cost(net.series, x[i], 0.0) for i in range(2, n + 1)
        )
        assert system_determinant(net) == pytest.approx(expected, rel=1e-10)


def test_determinant_matches_numpy():
    rng = np.random.default_rng(777)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        shifts = tuple(float(d) for d in rng.uniform(-0.3, 0.3, size=n))
        net = PerturbedNetwork(n, shifts, unit_region_volumes(rng, n), random_series(rng))
        system = assemble_system(net)
        assert system_determinant(net) == pytest.approx(
            float(np.linalg.det(system.m)), rel=1e-9
        )


def test_solver_matches_dense_reference():
    # the O(n) recurrence against a dense solve of the assembled system,
    # signed solutions included
    rng = np.random.default_rng(11011)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        shifts = tuple(float(d) for d in rng.uniform(-0.3, 0.3, size=n))
        net = PerturbedNetwork(n, shifts, unit_region_volumes(rng, n), random_series(rng))
        system = assemble_system(net)
        expected = np.linalg.solve(system.m, system.rhs)
        scale = max(1.0, float(np.max(np.abs(expected))))
        sol = solve_equal_energy(net, check_flows=False)
        for k, pair in enumerate(system.ordering):
            assert abs(sol.flow.amount(*pair) - expected[k]) <= 1e-12 * scale, (n, pair)


def test_large_chains_keep_equal_energy():
    # both solve paths run the energy-spread check inside; shifts of 1e-4
    # already leave the stability region at this size, so the shifted
    # solution is taken signed
    n = 10000
    rng = np.random.default_rng(20000)
    volumes = unit_region_volumes(rng, n)
    series = random_series(rng)
    shifts = tuple(float(d) for d in rng.uniform(-1e-4, 1e-4, size=n))
    for sol in (
        flow_closed_form(RegularNetwork(n, volumes, series)),
        solve_equal_energy(PerturbedNetwork(n, shifts, volumes, series), check_flows=False),
    ):
        residual = float(np.max(np.abs(check_conservation(sol.flow, volumes))))
        assert residual <= 1e-9 * max(1.0, max(volumes))


def test_failed_walk_raises_without_the_dense_system(monkeypatch):
    # node 1 a millionth from the collector: the walk's energies disagree,
    # and the error must come from the walk, not from an O(n^3) estimate
    def dense(net):
        pytest.fail("the solve assembled the dense system")

    monkeypatch.setattr(perturbed, "assemble_system", dense)
    n = 1500
    net = PerturbedNetwork(
        n, (0.999999,) + (0.0,) * (n - 1), (1.0,) * n, single_exponent_series(2.0)
    )
    with pytest.raises(SingularMatrix, match="energy spread"):
        solve_equal_energy(net)


def test_zero_hop_cost_is_singular():
    # node 1 a float step away from the collector: its cost underflows to 0
    net = PerturbedNetwork(2, (1.0 - 2.0**-53, 0.0), (1.0, 1.0), single_exponent_series(1000.0))
    with pytest.raises(SingularMatrix):
        solve_equal_energy(net)
    # the volume limits and the probe set-up read the same relay sums
    with pytest.raises(SingularMatrix, match="zero or infinite hop cost"):
        volume_limits(net)
    with pytest.raises(SingularMatrix, match="zero or infinite hop cost"):
        perturbed._probe_sums(net.volumes, *perturbed._costs(net), 1, 2)


def test_zero_shift_solution_matches_regular_closed_form():
    for n in (1, 2, 4, 6):
        for a in (1.0, 1.5, 2.0, 3.0):
            regular = flow_closed_form(
                RegularNetwork(n, (1.0,) * n, single_exponent_series(a))
            )
            shifted = solve_equal_energy(unit_perturbed(n, a))
            for pair, value in regular.flow.items():
                assert shifted.flow.amount(*pair) == pytest.approx(value, abs=1e-10)
            assert shifted.common_energy == pytest.approx(
                regular.common_energy, rel=1e-11
            )


def test_solution_is_equal_energy_off_grid():
    rng = np.random.default_rng(616161)
    found = 0
    while found < 40:
        n = int(rng.integers(2, 7))
        shifts = tuple(float(d) for d in rng.uniform(-0.05, 0.05, size=n))
        net = PerturbedNetwork(n, shifts, unit_region_volumes(rng, n), random_series(rng))
        try:
            sol = solve_equal_energy(net)
        except NegativeFlow:
            continue
        found += 1
        assert max(sol.node_energies) - min(sol.node_energies) < 1e-9
        sent = [0.0] * (n + 1)
        for (i, j), value in sol.flow.items():
            sent[i] += value
            sent[j] -= value
        for i in range(1, n + 1):
            assert sent[i] == pytest.approx(net.volumes[i - 1], abs=1e-9)


def test_out_of_region_shift_raises():
    with pytest.raises(NegativeFlow):
        solve_equal_energy(unit_perturbed(3, 1.0, (0.5, 0.0, 0.0)))
    # the signed solution is still available for exploration
    sol = solve_equal_energy(unit_perturbed(3, 1.0, (0.5, 0.0, 0.0)), check_flows=False)
    assert sol.flow.min_entry() < 0.0


def test_common_energy_ratio_form():
    assert node_energy_sn(unit_perturbed(3, 2.0)) == pytest.approx(23 / 9, rel=1e-12)
    single = PerturbedNetwork(1, (0.3,), (2.0,), single_exponent_series(2.0))
    assert node_energy_sn(single) == pytest.approx(2.0 * 0.7**2, rel=1e-12)
    rng = np.random.default_rng(95959)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        shifts = [0.0] * n
        shifts[int(rng.integers(0, n))] = float(rng.uniform(-0.2, 0.2))
        net = PerturbedNetwork(
            n, tuple(shifts), unit_region_volumes(rng, n), random_series(rng)
        )
        sol = solve_equal_energy(net, check_flows=False)
        assert node_energy_sn(net) == pytest.approx(sol.common_energy, rel=1e-8)


def test_shift_envelope_fixed_points():
    # two-node chain: middle node may approach the collector by at most 1/3
    lo, hi = stability_bounds_d(2, 1)
    assert lo == -1.0
    assert hi == pytest.approx(1 / 3, abs=1e-12)
    assert stability_bounds_d(3, 1) == pytest.approx(
        (-1.0, (math.sqrt(156) - 12) / 2), abs=1e-12
    )
    assert stability_bounds_d(3, 2) == pytest.approx(
        ((3 - math.sqrt(21)) / 2, 0.75), abs=1e-12
    )
    assert stability_bounds_d(4, 2) == pytest.approx(
        (-(math.sqrt(208) - 12) / 4, (math.sqrt(2128) - 44) / 4), abs=1e-12
    )
    for n in range(2, 11):
        assert stability_bounds_d(n, n) == (-1.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        stability_bounds_d(3, 4)


def test_envelope_endpoints_are_flow_roots():
    # wherever an endpoint is interior, one of the two flow components
    # vanishes there under linear cost
    for n in range(2, 12):
        for i in range(1, n):
            lo, hi = stability_bounds_d(n, i)
            if lo > -1.0:
                qi0, _ = flow_quadratics_a1(n, i, lo)
                assert abs(qi0) < 1e-10, (n, i, "lo")
            if hi < 1.0:
                _, qip10 = flow_quadratics_a1(n, i, hi)
                assert abs(qip10) < 1e-10, (n, i, "hi")


def test_quadratics_match_solved_flows():
    rng = np.random.default_rng(272727)
    for _ in range(80):
        n = int(rng.integers(2, 13))
        i = int(rng.integers(1, n))
        lo, hi = stability_bounds_d(n, i)
        d = float(rng.uniform(max(lo, -0.95) * 0.9, min(hi, 0.95) * 0.9))
        shifts = [0.0] * n
        shifts[i - 1] = d
        sol = solve_equal_energy(
            PerturbedNetwork(n, tuple(shifts), (1.0,) * n, single_exponent_series(1.0)),
            check_flows=False,
        )
        qi0, qip10 = flow_quadratics_a1(n, i, d)
        assert qi0 == pytest.approx(sol.flow.amount(i, 0), abs=1e-9)
        assert qip10 == pytest.approx(sol.flow.amount(i + 1, 0), abs=1e-9)


def test_quadratics_domain_guards():
    with pytest.raises(IndexOutOfRange):
        flow_quadratics_a1(3, 3, 0.0)
    with pytest.raises(ValueError):
        flow_quadratics_a1(3, 1, 1.0)


def test_numeric_interval_three_nodes_linear():
    interval = numeric_d_interval(unit_perturbed(3, 1.0), 1)
    assert interval.lo == -1.0
    assert interval.hi == pytest.approx((math.sqrt(156) - 12) / 2, abs=1e-6)


def test_numeric_interval_far_node():
    # linear cost keeps the far node feasible over the whole geometric range
    for n in (3, 4):
        interval = numeric_d_interval(unit_perturbed(n, 1.0), n)
        assert interval.lo == pytest.approx(-1.0)
        assert interval.hi == pytest.approx(1.0)
    # quadratic cost loses the direct flow before the node reaches its neighbor
    interval = numeric_d_interval(unit_perturbed(4, 2.0), 4)
    assert -1.0 < interval.lo < -0.88
    assert interval.hi == pytest.approx(1.0)
    at_edge = solve_equal_energy(
        unit_perturbed(4, 2.0, (0.0, 0.0, 0.0, interval.lo)), check_flows=False
    )
    assert min(v for _, v in at_edge.flow.items()) == pytest.approx(0.0, abs=1e-8)


def _reference_d_interval(net: PerturbedNetwork, i: int) -> tuple[float, float]:
    """The bisection with a full solve of the shifted chain per probe."""

    def min_flow(d: float) -> float:
        shifts = [0.0] * net.n
        shifts[i - 1] = d
        probe = PerturbedNetwork(net.n, tuple(shifts), net.volumes, net.series)
        try:
            return solve_equal_energy(probe, check_flows=False).flow.min_entry()
        except SingularMatrix:
            return -math.inf

    def boundary(end: float, limit: float) -> float:
        if min_flow(end) > 0.0:
            return limit
        good, bad = 0.0, end
        while abs(bad - good) > BISECTION_TOL:
            mid = 0.5 * (good + bad)
            if min_flow(mid) > 0.0:
                good = mid
            else:
                bad = mid
        return 0.5 * (good + bad)

    assert min_flow(0.0) > 0.0
    return boundary(-1.0 + BRACKET_MARGIN, -1.0), boundary(1.0 - BRACKET_MARGIN, 1.0)


def test_numeric_interval_matches_full_solve_bisection():
    # probes that recost only the moved node must find the same endpoints,
    # bit for bit, as probes that solve the whole shifted chain
    rng = np.random.default_rng(8080)
    for _ in range(12):
        n = int(rng.integers(1, 25))
        w = float(rng.uniform(0.2, 0.8))
        series = build_cost_series(
            [(w, float(rng.uniform(1.0, 2.0))), (1.0 - w, float(rng.uniform(2.0, 4.0)))]
        )
        net = PerturbedNetwork(n, (0.0,) * n, unit_region_volumes(rng, n), series)
        for i in range(1, n + 1):
            interval = numeric_d_interval(net, i)
            assert (interval.lo, interval.hi) == _reference_d_interval(net, i), (n, i)


def test_numeric_interval_probes_run_the_spread_check(monkeypatch):
    # under a spread tolerance no walk can meet, every probe is infeasible,
    # the unshifted one included
    monkeypatch.setattr(perturbed, "EQUAL_ENERGY_TOL", -1.0)
    with pytest.raises(NegativeFlow) as info:
        numeric_d_interval(unit_perturbed(3, 2.0), 2)
    assert info.value.value == -math.inf


def test_numeric_interval_names_the_negative_component():
    # only q_{2,1} is negative on this chain; q_{1,0} carries +0.85
    net = PerturbedNetwork(2, (0.0, 0.0), (1.0, 0.1), single_exponent_series(2.0))
    signed = solve_equal_energy(net, check_flows=False).flow
    with pytest.raises(NegativeFlow) as info:
        numeric_d_interval(net, 1)
    assert info.value.component == (2, 1)
    assert info.value.value == signed.amount(2, 1)
    assert info.value.value == pytest.approx(-0.15, abs=1e-12)
    assert signed.amount(1, 0) > 0.0


def test_numeric_interval_ends_match_a_dense_scan():
    # the feasible shifts of a node are one interval around 0, and a scan
    # of 2,001 full solves finds its ends within one grid step
    rng = np.random.default_rng(2001)
    step = 1.0 / 1001
    grid = [k * step for k in range(-1000, 1001)]
    for n in (2, 5, 10):
        net = PerturbedNetwork(n, (0.0,) * n, unit_region_volumes(rng, n), random_series(rng))
        for i in range(1, n + 1):
            feasible = []
            for d in grid:
                shifts = [0.0] * n
                shifts[i - 1] = d
                probe = PerturbedNetwork(n, tuple(shifts), net.volumes, net.series)
                try:
                    sol = solve_equal_energy(probe, check_flows=False)
                except SingularMatrix:
                    continue
                if sol.flow.min_entry() > 0.0:
                    feasible.append(d)
            first, last = grid.index(feasible[0]), grid.index(feasible[-1])
            assert len(feasible) == last - first + 1, (n, i)
            assert feasible[0] <= 0.0 <= feasible[-1], (n, i)
            interval = numeric_d_interval(net, i)
            assert abs(interval.lo - feasible[0]) <= step, (n, i)
            assert abs(interval.hi - feasible[-1]) <= step, (n, i)


def test_shift_probe_decides_as_the_full_solve():
    # the O(1) probe of a recosted node and the full solve of the shifted
    # chain agree on feasibility wherever the smallest flow is clear of 0,
    # also where the only negative flows lie outside the three it recomputes
    rng = np.random.default_rng(6060)
    window = relay = 0
    for _ in range(40):
        n = int(rng.integers(1, 16))
        volumes = tuple(float(v) for v in rng.uniform(0.1, 3.0, size=n))
        net = PerturbedNetwork(n, (0.0,) * n, volumes, random_series(rng))
        x, cost = net.positions().x, cost_function(net.series)
        for i in range(1, n + 1):
            direct, left = perturbed._costs(net)
            sums = perturbed._probe_sums(volumes, direct, left, i, i)
            probe = perturbed._shift_probe(sums, i)
            for d in rng.uniform(-0.999, 0.999, size=10):
                shifts = [0.0] * n
                shifts[i - 1] = float(d)
                probe_net = PerturbedNetwork(n, tuple(shifts), volumes, net.series)
                flow = solve_equal_energy(probe_net, check_flows=False).flow
                if abs(flow.min_entry()) < 1e-9:
                    continue
                costs = perturbed._move_node(cost, x, i, float(d), direct, left)
                feasible = probe(*costs)
                assert feasible == (flow.min_entry() > 0.0), (n, i, d)
                negative = {key for key, v in flow.items() if v < 0.0}
                window += bool(negative) and not negative & {(i, 0), (i + 1, 0), (i + 1, i)}
                relay += negative == {(i + 1, i)}
    assert window > 0 and relay > 0


def test_a_walk_without_a_backward_pass_allocates_no_backward_sums():
    # the solve reads only the forward sums a and b; c, e and s are built
    # only where the backward walk runs (first + 1 < n)
    net = unit_perturbed(5, 2.0)
    direct, left = perturbed._costs(net)
    a, b, *backward = perturbed._relay_sums(net.volumes, direct, left, 5, 6)
    assert backward == [[], [], []] and len(a) == len(b) == 6
    assert perturbed._relay_sums(net.volumes, direct, left, 4, 6)[2:] == ([], [], [])
    assert [len(x) for x in perturbed._relay_sums(net.volumes, direct, left, 3, 6)[2:]] == [7, 7, 6]


def test_a_term_no_energy_makes_positive_empties_the_window():
    assert perturbed._narrow((-1.0, 2.0), (0.0, 0.0), (1.0, 1.0)) == (math.inf, 2.0)
    assert perturbed._narrow((math.inf, 2.0), (-3.0, 1.0)) == (math.inf, 2.0)
    assert perturbed._narrow(perturbed._OPEN, (math.nan, 1.0)) == perturbed._OPEN
    # Q_1 L_2 / D_2 underflows, so the direct flow q_{2,0} is the constant 0
    net = PerturbedNetwork(4, (0.0,) * 4, (5e-324, 1.0, 1.0, 1.0), single_exponent_series(2.0))
    direct, left = perturbed._costs(net)
    sums = perturbed._probe_sums(net.volumes, direct, left, 1, 4)
    assert sums.head[2][0] == math.inf
    assert solve_equal_energy(net, check_flows=False).flow.min_entry() == 0.0
    assert not perturbed._shift_probe(sums, 3)(direct[3], left[3], left[4])
    assert not perturbed._shift_probe(sums, 4)(direct[4], left[4], None)


def _counted_walks(monkeypatch) -> list[int]:
    calls = [0]
    walk = perturbed._equal_energy_flows

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(perturbed, "_equal_energy_flows", counted)
    return calls


def test_numeric_interval_falls_back_when_the_endpoint_walk_fails(monkeypatch):
    # a probe that calls every shift feasible ends each side at the bracket
    # end, whose full walk fails where the flow turns negative first: that
    # side is bisected again with full walks, to the reference's endpoints
    monkeypatch.setattr(perturbed, "_shift_probe", lambda *args: lambda *costs: True)
    calls = _counted_walks(monkeypatch)
    for n, a, i in ((3, 1.0, 1), (4, 2.0, 2), (4, 2.0, 4), (6, 3.0, 3)):
        net = unit_perturbed(n, a)
        calls[0] = 0
        interval = numeric_d_interval(net, i)
        assert calls[0] > 3
        assert (interval.lo, interval.hi) == _reference_d_interval(net, i), (n, a, i)


@pytest.mark.parametrize("n", [10, 500])
def test_numeric_interval_runs_three_walks(monkeypatch, n):
    # the bisection's probes are O(1): full walks run at d = 0 and at each
    # side's last feasible probe only, so an interval costs O(n), not O(70 n)
    calls = _counted_walks(monkeypatch)
    net = unit_perturbed(n, 2.0)
    for i in sorted({1, 2, n // 2, n - 1, n}):
        calls[0] = 0
        numeric_d_interval(net, i)
        assert calls[0] <= 3, (n, i)


def test_numeric_intervals_equal_the_one_node_calls():
    # nodes in any order, repeated or not, see the set-up as a one-node call
    # does: each node's moved costs are put back before the next; a node's
    # own template shift is replaced by every probe
    rng = np.random.default_rng(4242)
    for _ in range(20):
        n = int(rng.integers(1, 16))
        net = PerturbedNetwork(n, (0.0,) * n, unit_region_volumes(rng, n), random_series(rng))
        nodes = [int(i) for i in rng.integers(1, n + 1, size=n + 2)]
        together = numeric_d_intervals(net, nodes)
        assert together == [numeric_d_interval(net, i) for i in nodes], n
        i = nodes[0]
        shifts = [0.0] * n
        shifts[i - 1] = float(rng.uniform(-0.5, 0.5))
        moved = PerturbedNetwork(n, tuple(shifts), net.volumes, net.series)
        assert numeric_d_intervals(moved, [i]) == [together[0]], n
    assert numeric_d_intervals(net, []) == []


def test_numeric_intervals_check_every_node_first(monkeypatch):
    monkeypatch.setattr(perturbed, "_costs", None)  # no node may be solved
    net = unit_perturbed(4, 2.0, (0.0, 0.2, 0.0, 0.0))
    with pytest.raises(IndexOutOfRange):
        numeric_d_intervals(unit_perturbed(4, 2.0), [1, 5])
    with pytest.raises(ValueError, match="d_2"):
        numeric_d_intervals(net, [2, 3])


def test_numeric_interval_guards():
    with pytest.raises(ValueError):
        numeric_d_interval(unit_perturbed(3, 1.0, (0.0, 0.1, 0.0)), 1)
    bad = PerturbedNetwork(
        2, (0.0, 0.0), (1.0, 0.1), single_exponent_series(2.0)
    )
    with pytest.raises(NegativeFlow):
        numeric_d_interval(bad, 1)


def test_linear_cost_closed_form_examples():
    sol = closed_form_a1(Positions((0.0, 1.0, 2.0)), (1.0, 1.0))
    assert sol.flow.amount(1, 0) == pytest.approx(1.5, abs=1e-14)
    assert sol.flow.amount(2, 0) == pytest.approx(0.5, abs=1e-14)
    assert sol.flow.amount(2, 1) == pytest.approx(0.5, abs=1e-14)
    assert sol.common_energy == pytest.approx(1.5, abs=1e-14)


def test_linear_cost_closed_form_matches_system_solver():
    rng = np.random.default_rng(135791)
    found = 0
    while found < 60:
        n = int(rng.integers(1, 9))
        shifts = tuple(float(d) for d in rng.uniform(-0.1, 0.1, size=n))
        volumes = unit_region_volumes(rng, n)
        net = PerturbedNetwork(n, shifts, volumes, single_exponent_series(1.0))
        try:
            direct = closed_form_a1(net.positions(), volumes)
        except NegativeFlow:
            continue
        found += 1
        system = solve_equal_energy(net)
        for pair, value in system.flow.items():
            assert direct.flow.amount(*pair) == pytest.approx(value, abs=1e-10)
        # total energy identity: N * common = sum of x_i Q_i
        x = net.positions().x
        assert n * direct.common_energy == pytest.approx(
            math.fsum(x[i] * volumes[i - 1] for i in range(1, n + 1)), rel=1e-11
        )


def test_linear_cost_closed_form_satisfies_constraints():
    rng = np.random.default_rng(246802)
    found = 0
    while found < 40:
        n = int(rng.integers(2, 8))
        shifts = tuple(float(d) for d in rng.uniform(-0.1, 0.1, size=n))
        volumes = unit_region_volumes(rng, n)
        positions = Positions.from_shifts(shifts)
        try:
            sol = closed_form_a1(positions, volumes)
        except NegativeFlow:
            continue
        found += 1
        x = positions.x
        sent = [0.0] * (n + 1)
        for (i, j), value in sol.flow.items():
            sent[i] += value
            sent[j] -= value
            assert value >= 0.0
        for i in range(1, n + 1):
            assert sent[i] == pytest.approx(volumes[i - 1], abs=1e-10)
        energies = [
            sol.flow.amount(i, 0) * x[i]
            + (sol.flow.amount(i, i - 1) * (x[i] - x[i - 1]) if i >= 2 else 0.0)
            for i in range(1, n + 1)
        ]
        assert max(energies) - min(energies) < 1e-10


def test_energy_bounds_perturbed_example_and_containment():
    series = single_exponent_series(1.0)
    net = PerturbedNetwork(2, (0.5, 0.0), (1.0, 1.0), series)
    lower, upper = energy_bounds_perturbed(net)
    assert (lower, upper) == pytest.approx((1.25, 1.5), abs=1e-14)
    # the algebraic common energy sits at the lower end here
    assert node_energy_sn(net) == pytest.approx(1.25, rel=1e-12)
    rng = np.random.default_rng(864213)
    found = 0
    while found < 50:
        n = int(rng.integers(2, 8))
        shifts = tuple(float(d) for d in rng.uniform(-0.1, 0.1, size=n))
        net = PerturbedNetwork(n, shifts, unit_region_volumes(rng, n), random_series(rng))
        try:
            sol = solve_equal_energy(net)
        except NegativeFlow:
            continue
        found += 1
        lower, upper = energy_bounds_perturbed(net)
        assert lower - 1e-10 <= sol.common_energy < upper


def test_negative_flow_names_the_first_of_tied_minima():
    # on unit costs node i >= 2 spends q_{i,0} + q_{i,i-1} = 1, one of the
    # two being -1; the component named is the first -1 in the walk's order,
    # q_{1,0}, ..., q_{n,0}, then q_{n,n-1}, ..., q_{2,1}, not in key order
    n = 4
    direct, left = [0.0] + [1.0] * n, [0.0, 0.0] + [1.0] * (n - 1)
    order = [(i, 0) for i in range(1, n + 1)] + [(i, i - 1) for i in range(n, 1, -1)]
    for negative_direct, named in [
        ({2, 3, 4}, (2, 0)),
        ({3}, (3, 0)),
        ({4}, (4, 0)),
        (set(), (4, 3)),
    ]:
        sent = [0.0, 1.0] + [-1.0 if i in negative_direct else 2.0 for i in range(2, n + 1)]
        relays = [0.0, 0.0] + [2.0 if i in negative_direct else -1.0 for i in range(2, n + 1)]
        walked = perturbed._walk_order(sent, relays)
        assert walked == [(sent if j == 0 else relays)[i] for i, j in order]
        with pytest.raises(NegativeFlow) as info:
            perturbed._equal_energy_solution(sent, relays, 1.0, direct, left)
        assert info.value.component == named == order[walked.index(-1.0)]
        assert info.value.value == -1.0
        sol = perturbed._equal_energy_solution(sent, relays, 1.0, direct, left, check_flows=False)
        assert sol.node_energies == (1.0,) * n
        assert sol.flow.min_entry() == -1.0


def _outcome(call, *args) -> str:
    """The exact text of a result, or of the error raised with its component."""
    try:
        result = call(*args)
    except (ChainlifeError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "component", None),
                     getattr(exc, "value", None)))
    if isinstance(result, perturbed.EqualEnergySolution):
        return repr((result.flow.items(), result.node_energies, result.common_energy))
    return repr(result)


def _harsh_chain(rng: np.random.Generator) -> PerturbedNetwork:
    """A chain of 1-12 nodes with a 1-3-term series of exponents up to 40 or 400,
    volumes from 1e-3 to 1e3 (node 1 at 2^-1074 now and then), and, on
    half of them, shifts up to 0.3 or 0.9."""
    n = int(rng.integers(1, 13))
    k = int(rng.integers(1, 4))
    top = float(rng.choice([4.0, 8.0, 40.0, 400.0]))
    weights, exponents = rng.uniform(0.1, 1.0, k), rng.uniform(1.0, top, k)
    terms = [(float(w), float(a)) for w, a in zip(weights, exponents)]
    if rng.random() < 0.1:  # hand-built: a coefficient may be zero or negative
        series = CostSeries(tuple((w - 0.3, a) for w, a in terms))
    else:
        series = build_cost_series(terms, auto_normalize=True)
    if rng.random() < 0.5:
        volumes = [1.0] * n
    else:
        volumes = [float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, n)]
    if rng.random() < 0.1:
        volumes[0] = 5e-324
    if rng.random() < 0.5:
        return PerturbedNetwork(n, (0.0,) * n, tuple(volumes), series)
    reach = float(rng.choice([0.3, 0.9]))
    while True:
        shifts = tuple(float(d) for d in rng.uniform(-reach, reach, n))
        if all(k - shifts[k - 1] < k + 1 - shifts[k] for k in range(1, n)):
            return PerturbedNetwork(n, shifts, tuple(volumes), series)


def test_the_list_walk_matches_the_dict_walk():
    # the solve, the stability intervals and the sweeps give the results,
    # bit for bit, and the errors of the walk on tuple-keyed dicts with one
    # fsum per cost (tests/helpers.py) on random chains, shifted or not
    rng = np.random.default_rng(2020)
    seen = set()
    for _ in range(300):
        net = _harsh_chain(rng)
        n = net.n
        for check in (True, False):
            got = _outcome(solve_equal_energy, net, check)
            assert got == _outcome(reference_solve, net, check), (net, check)
            seen.add(got.split("'")[1] if got.startswith("('") else "solved")
        i = int(rng.integers(1, n + 1))
        shifts = [0.0] * n
        shifts[i - 1] = net.shifts[i - 1]
        one_moved = PerturbedNetwork(n, tuple(shifts), net.volumes, net.series)
        nodes = sorted({i, 1, n})
        for chain, asked in ((one_moved, [i]), (one_moved, nodes), (net, nodes)):
            assert _outcome(numeric_d_intervals, chain, asked) == _outcome(
                reference_intervals, chain, asked
            ), (chain, asked)
        q = net.volumes[i - 1]
        grids = {
            "Q": [q * f for f in (1e-6, 0.01, 0.5, 1.0, 2.0, 50.0, 1e6)],
            "d": [float(d) for d in np.linspace(-0.95, 0.95, 9)],
        }
        for kind, grid in grids.items():
            got = _outcome(sweep, net, kind, i, grid)
            assert got == _outcome(reference_sweep, net, kind, i, grid), (net, kind, i)
    # errors of every kind were met, not only solved chains
    assert seen == {"solved", "NegativeFlow", "SingularMatrix", "ChainlifeError"}


def _walked(net: PerturbedNetwork) -> list[float]:
    sent, relays, _ = perturbed._equal_energy_flows(net.volumes, *perturbed._costs(net))
    return perturbed._walk_order(sent, relays)


def test_a_sweep_keeps_the_sign_of_a_zero_minimum():
    # tiny volumes and steep costs: direct flows that would be negative
    # underflow to -0.0.  The smallest flow after the clamp is the first in
    # the walk's order at or below zero: -0.0 itself, or +0.0 where a flow
    # in [-1e-9, 0) comes first and is clamped
    series = single_exponent_series(40.0)
    volumes = (1e-309, 9.999999999999999e-307, 1e-308, 1e-308)
    net = PerturbedNetwork(4, (0.0, 0.5, 0.9, 0.5), volumes, series)
    rows = sweep(net, "Q", 1, [1e-309])
    assert repr(rows[0][2]) == "-0.0"
    assert repr(rows) == repr(reference_sweep(net, "Q", 1, [1e-309]))
    assert [repr(q) for q in _walked(net) if q <= 0.0] == ["-0.0"]
    volumes = (1e-306, 1e-305, 1e-304, 1e-305, 1e-306)
    net = PerturbedNetwork(5, (0.5, 0.0, 0.5, 0.9, 0.5), volumes, series)
    rows = sweep(net, "Q", 1, [1e-306])
    assert repr(rows[0][2]) == "0.0" and rows[0][1] is not None
    assert repr(rows) == repr(reference_sweep(net, "Q", 1, [1e-306]))
    walked = _walked(net)
    assert -FLOW_ZERO_TOL <= walked[1] < 0.0 and "-0.0" in map(repr, walked[2:])
    assert perturbed._clamped_min([1.0, 0.0, -0.0]) == 0.0
    assert repr(perturbed._clamped_min([1.0, -0.0, 0.0, -5e-10])) == "-0.0"
    assert repr(perturbed._clamped_min([-5e-10, -0.0])) == "0.0"
    assert perturbed._clamped_min([-2e-9, -0.0]) == -2e-9
