"""End-to-end acceptance checks with one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion regenerates its instances from fixed seeds, so the energy
bound containment check (criterion 11) sees exactly the same instances as
the criteria that define them.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from chainlife import (
    NegativeFlow,
    PerturbedNetwork,
    Positions,
    RegularNetwork,
    build_cost_series,
    closed_form_a1,
    energy_bounds_perturbed,
    flow_closed_form,
    harmonic_flow_a2,
    lifetime,
    node_energies,
    node_energy_closed_form,
    node_energy_recurrence,
    node_energy_sn,
    numeric_d_interval,
    q_i_max,
    q_n_min,
    raw_flows,
    single_exponent_series,
    solve_equal_energy,
    stability_bounds_d,
)
from chainlife.oracle import formulate, solve

from helpers import random_feasible_flow, random_series, unit_region_volumes


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label}: {detail}"


def _three_term_series(rng: np.random.Generator):
    weights = rng.uniform(0.2, 1.0, size=3)
    exponents = rng.uniform(1.0, 4.0, size=3)
    return build_cost_series(
        [(float(w), float(a)) for w, a in zip(weights, exponents)],
        auto_normalize=True,
    )


# --- instance families, regenerated identically for criterion 11 ----------

def _family_unit_chains():
    for n in range(2, 9):
        for a in (1.0, 1.5, 2.0, 3.0):
            yield RegularNetwork(n, (1.0,) * n, single_exponent_series(a))


def _family_volume_region():
    rng = np.random.default_rng(22021642)
    for n in range(3, 7):
        for _ in range(200):
            series = _three_term_series(rng)
            yield RegularNetwork(n, unit_region_volumes(rng, n), series)


def _family_long_random():
    rng = np.random.default_rng(24601)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        volumes = tuple(float(v) for v in rng.uniform(0.1, 3.0, size=n))
        yield RegularNetwork(n, volumes, random_series(rng))


def _family_single_shift():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        shifts = [0.0] * n
        shifts[int(rng.integers(0, n))] = float(rng.uniform(-0.25, 0.25))
        yield PerturbedNetwork(
            n, tuple(shifts), unit_region_volumes(rng, n), random_series(rng)
        )


def _family_boundary_volumes():
    for n in range(2, 7):
        for a in (1.0, 2.0):
            base = RegularNetwork(n, (1.0,) * n, single_exponent_series(a))
            at = list(base.volumes)
            at[-1] = q_n_min(base)
            yield RegularNetwork(n, tuple(at), base.series)
            for i in range(1, n):
                at = list(base.volumes)
                at[i - 1] = q_i_max(base, i)
                yield RegularNetwork(n, tuple(at), base.series)


def _family_shift_templates():
    for n in range(3, 9):
        for a in (1.0, 1.1, 2.0, 3.0):
            yield PerturbedNetwork(n, (0.0,) * n, (1.0,) * n, single_exponent_series(a))


def _family_linear_cost():
    rng = np.random.default_rng(27182)
    out = []
    while len(out) < 100:
        n = int(rng.integers(2, 9))
        shifts = tuple(float(d) for d in rng.uniform(-0.12, 0.12, size=n))
        volumes = unit_region_volumes(rng, n)
        net = PerturbedNetwork(n, shifts, volumes, single_exponent_series(1.0))
        try:
            sol = closed_form_a1(net.positions(), volumes)
        except NegativeFlow:
            continue
        out.append((net, sol))
    return out


# --- criteria --------------------------------------------------------------

def test_criterion_01_oracle_equivalence_unit_chains():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for net in _family_unit_chains():
        closed = flow_closed_form(net).common_energy
        lp = solve(formulate(net)).value
        worst = max(worst, abs(closed - lp))
        count += 1
    elapsed = time.perf_counter() - start
    _report(
        "1",
        worst <= 1e-7 and elapsed < 10.0,
        f"max gap {worst:.3e} over {count} unit chains in {elapsed:.2f} s",
    )


def test_criterion_02_oracle_equivalence_volume_region():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for net in _family_volume_region():
        closed = flow_closed_form(net).common_energy
        lp = solve(formulate(net)).value
        worst = max(worst, abs(closed - lp))
        count += 1
    elapsed = time.perf_counter() - start
    _report(
        "2",
        worst <= 1e-7 and elapsed < 60.0,
        f"max gap {worst:.3e} over {count} volume-region draws in {elapsed:.2f} s",
    )


def test_criterion_03_recurrence_equals_closed_form():
    worst = 0.0
    count = 0
    for net in _family_long_random():
        a = node_energy_recurrence(net)
        b = node_energy_closed_form(net)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        count += 1
    _report("3", worst <= 1e-12, f"max relative spread {worst:.3e} over {count} chains")


def test_criterion_04_harmonic_special_case():
    net = RegularNetwork(50, (1.0,) * 50, single_exponent_series(2.0))
    sol = flow_closed_form(net)
    worst = 0.0
    for i in range(2, 51):
        reference = (i - math.fsum(1.0 / k for k in range(1, i + 1))) / (i * (i - 1))
        worst = max(worst, abs(sol.flow.amount(i, 0) - reference))
        worst = max(worst, abs(harmonic_flow_a2(i, 50) - reference))
    _report("4", worst <= 1e-12, f"max deviation {worst:.3e} for N=50 direct flows")


def test_criterion_05_volume_boundary_roots():
    worst_root = 0.0
    crossings_ok = True
    for n in range(2, 7):
        for a in (1.0, 2.0):
            base = RegularNetwork(n, (1.0,) * n, single_exponent_series(a))
            floor = q_n_min(base)
            at = list(base.volumes)
            at[-1] = floor
            flows = raw_flows(RegularNetwork(n, tuple(at), base.series))
            worst_root = max(worst_root, abs(flows[(n, n - 1)]))
            at[-1] = floor * (1 - 1e-6)
            beyond = raw_flows(RegularNetwork(n, tuple(at), base.series))
            crossings_ok &= beyond[(n, n - 1)] < 0.0
            for i in range(1, n):
                ceiling = q_i_max(base, i)
                at = list(base.volumes)
                at[i - 1] = ceiling
                flows = raw_flows(RegularNetwork(n, tuple(at), base.series))
                worst_root = max(worst_root, abs(flows[(i + 1, i)]))
                at[i - 1] = ceiling * (1 + 1e-6)
                beyond = raw_flows(RegularNetwork(n, tuple(at), base.series))
                crossings_ok &= beyond[(i + 1, i)] < 0.0
    _report(
        "5",
        worst_root <= 1e-10 and crossings_ok,
        f"max boundary residual {worst_root:.3e}, crossings flip sign: {crossings_ok}",
    )


# The endpoint is where node 2's direct flow q_{2,0} reaches zero.  With
# D_1 = (1 - d)^a, L_2 = (1 + d)^a and q_{2,1} = D_1 / (L_2 - D_1) it is the
# root in (0, 1) of q_{2,1} L_2 = 1 + (2 - q_{2,1}) (3^a - 1); for a = 1 that
# root is (sqrt(156) - 12) / 2.
@pytest.mark.parametrize(
    "a,expected",
    [(1.0, 0.245), (1.1, 0.2186), (2.0, 0.1080)],
    ids=["a=1", "a=1.1", "a=2"],
)
def test_criterion_06_reported_shift_endpoints(a, expected):
    net = PerturbedNetwork(3, (0.0,) * 3, (1.0,) * 3, single_exponent_series(a))
    endpoint = numeric_d_interval(net, 1).hi
    _report(
        f"6 [a={a:g}]",
        abs(endpoint - expected) <= 0.005,
        f"right endpoint {endpoint:.6f}, expected {expected} +/- 0.005",
    )


def test_criterion_07_exact_envelope_values():
    ok = abs(stability_bounds_d(2, 1)[1] - 1 / 3) <= 1e-12
    for n in range(2, 11):
        ok &= stability_bounds_d(n, n) == (-1.0, 1.0)
    _report(
        "7",
        ok,
        f"dR(2,1)={stability_bounds_d(2, 1)[1]:.15f}, far-node range (-1,1) for N=2..10",
    )


def test_criterion_08_envelope_containment():
    start = time.perf_counter()
    worst_out = 0.0
    worst_eq = 0.0
    checked = 0
    for n in range(3, 9):
        for i in range(1, n + 1):
            lo_env, hi_env = stability_bounds_d(n, i)
            for a in (1.0, 1.1, 2.0, 3.0):
                net = PerturbedNetwork(
                    n, (0.0,) * n, (1.0,) * n, single_exponent_series(a)
                )
                interval = numeric_d_interval(net, i)
                worst_out = max(
                    worst_out, lo_env - interval.lo, interval.hi - hi_env
                )
                if a == 1.0:
                    worst_eq = max(
                        worst_eq,
                        abs(interval.lo - lo_env),
                        abs(interval.hi - hi_env),
                    )
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "8",
        worst_out <= 1e-6 and worst_eq <= 1e-6,
        f"max overshoot {worst_out:.3e}, max a=1 endpoint gap {worst_eq:.3e}, "
        f"{checked} intervals in {elapsed:.1f} s",
    )


def test_criterion_09_common_energy_ratio_form():
    worst = 0.0
    for net in _family_single_shift():
        sol = solve_equal_energy(net, check_flows=False)
        ratio = node_energy_sn(net)
        worst = max(worst, abs(ratio - sol.common_energy) / abs(sol.common_energy))
    _report("9", worst <= 1e-8, f"max relative gap {worst:.3e} over 100 single shifts")


def test_criterion_10_linear_cost_closed_form():
    worst_flow = 0.0
    worst_residual = 0.0
    for net, sol in _family_linear_cost():
        system = solve_equal_energy(net)
        for pair, value in system.flow.items():
            worst_flow = max(worst_flow, abs(sol.flow.amount(*pair) - value))
        sent = [0.0] * (net.n + 1)
        for (i, j), value in sol.flow.items():
            worst_residual = max(worst_residual, -min(value, 0.0))
            sent[i] += value
            sent[j] -= value
        for i in range(1, net.n + 1):
            worst_residual = max(
                worst_residual, abs(sent[i] - net.volumes[i - 1])
            )
        energies = node_energies(sol.flow, net.positions(), net.series)
        worst_residual = max(worst_residual, float(np.ptp(energies)))
    _report(
        "10",
        worst_flow <= 1e-10 and worst_residual <= 1e-10,
        f"max flow gap {worst_flow:.3e}, max constraint residual {worst_residual:.3e}",
    )


def test_criterion_11_energy_bounds_containment():
    checked = 0
    violations = 0
    worst_slack = -math.inf
    harmonic_chain = RegularNetwork(50, (1.0,) * 50, single_exponent_series(2.0))
    regular_pool = (
        list(_family_unit_chains())
        + list(_family_volume_region())
        + list(_family_long_random())
        + list(_family_boundary_volumes())
        + [harmonic_chain]
    )
    for net in regular_pool:
        try:
            energy = flow_closed_form(net).common_energy
        except NegativeFlow:
            continue
        lower, upper = energy_bounds_perturbed(net)
        checked += 1
        if not (lower - 1e-9 <= energy < upper):
            violations += 1
        worst_slack = max(worst_slack, lower - energy)
    for net in list(_family_single_shift()) + list(_family_shift_templates()):
        try:
            sol = solve_equal_energy(net)
        except NegativeFlow:
            continue
        lower, upper = energy_bounds_perturbed(net)
        checked += 1
        if not (lower - 1e-9 <= sol.common_energy < upper):
            violations += 1
        worst_slack = max(worst_slack, lower - sol.common_energy)
    for net, sol in _family_linear_cost():
        lower, upper = energy_bounds_perturbed(net)
        checked += 1
        if not (lower - 1e-9 <= sol.common_energy < upper):
            violations += 1
        worst_slack = max(worst_slack, lower - sol.common_energy)
    _report(
        "11",
        violations == 0,
        f"{checked} solutions inside their energy interval, "
        f"worst lower-bound slack {worst_slack:.3e}",
    )


def test_criterion_12_lifetime_dominance():
    rng = np.random.default_rng(55555)
    worst_margin = math.inf
    flows_checked = 0
    for n in range(2, 6):
        for a in (1.0, 2.0):
            net = RegularNetwork(n, (1.0,) * n, single_exponent_series(a))
            batteries = [1.0] * n
            best = lifetime(
                flow_closed_form(net).flow, net.positions(), net.series, batteries
            ).lifetime
            for _ in range(1000):
                flow = random_feasible_flow(rng, n, net.volumes)
                other = lifetime(flow, net.positions(), net.series, batteries).lifetime
                worst_margin = min(worst_margin, best - other)
                flows_checked += 1
    _report(
        "12",
        worst_margin >= -1e-12,
        f"equal-energy lifetime beats {flows_checked} random flows, "
        f"worst margin {worst_margin:.3e}",
    )
