"""Shared generators for the test suite, and the dict-keyed walk kept as a reference."""
from __future__ import annotations

import math

import numpy as np

from chainlife import (
    EqualEnergySolution,
    FlowMatrix,
    IndexOutOfRange,
    NegativeFlow,
    PerturbedNetwork,
    SingularMatrix,
    StabilityInterval,
    build_cost_series,
    is_equal_energy,
    perturbed,
    single_exponent_series,
    transmission_cost,
)
from chainlife.cost import CostSeries
from chainlife.perturbed import BRACKET_MARGIN
from chainlife.validate import EQUAL_ENERGY_TOL, FLOW_ZERO_TOL


def random_series(rng: np.random.Generator, max_terms: int = 3) -> CostSeries:
    """Valid cost series with 1..max_terms exponents in [1, 4]."""
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.uniform(0.2, 1.0, size=k)
    exponents = rng.uniform(1.0, 4.0, size=k)
    return build_cost_series(
        [(float(w), float(a)) for w, a in zip(weights, exponents)],
        auto_normalize=True,
    )


def unit_region_volumes(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """Draw from the always-feasible box: each volume in [1, 1.5), total under 1.5 n."""
    while True:
        q = 1.0 + rng.uniform(0.0, 0.5, size=n)
        if q.sum() < 1.5 * n - 1e-9:
            return tuple(float(v) for v in q)


def random_positive_volumes(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(0.1, 3.0, size=n))


def random_feasible_flow(rng: np.random.Generator, n: int, volumes) -> FlowMatrix:
    """Random conservative flow toward the collector.

    Each node forwards its generated plus received data, split with random
    weights over all strictly closer receivers, so conservation holds by
    construction and no loops can form.
    """
    carry = [0.0] * (n + 1)
    entries: dict[tuple[int, int], float] = {}
    for i in range(n, 0, -1):
        load = float(volumes[i - 1]) + carry[i]
        weights = rng.random(i) + 1e-3
        weights /= weights.sum()
        for j in range(i):
            amount = load * float(weights[j])
            if amount > 0.0:
                entries[(i, j)] = entries.get((i, j), 0.0) + amount
                carry[j] += amount
    return FlowMatrix(n, entries)


def small_exponents() -> tuple[float, ...]:
    return (1.0, 1.5, 2.0, 3.0)


def series_for(a: float) -> CostSeries:
    return single_exponent_series(a)


# ---------------------------------------------------------------------------
# The equal-energy walk on tuple-keyed dicts, costed one fsum at a time, as
# chainlife.perturbed computed it before its walk moved to flat lists.  The
# probe windows and the bisection (_probe_sums, _shift_probe, _bisect) are
# shared; everything that costs, walks, checks or picks a minimum is here.


def reference_costs(net: PerturbedNetwork) -> tuple[list[float], list[float]]:
    x = net.positions().x
    direct, left = [0.0] * (net.n + 1), [0.0] * (net.n + 1)
    gap = hop = None
    for i in range(1, net.n + 1):
        direct[i] = transmission_cost(net.series, x[i], 0.0)
        if x[i] - x[i - 1] != gap:
            gap = x[i] - x[i - 1]
            hop = transmission_cost(net.series, x[i], x[i - 1])
        left[i] = hop
    return direct, left


def reference_walk(volumes, direct, left) -> tuple[dict[tuple[int, int], float], float]:
    n = len(volumes)
    a = b = 0.0
    try:
        for k in range(1, n + 1):
            shrink = 1.0 - left[k] / direct[k]
            a = a * shrink - float(volumes[k - 1])
            b = b * shrink + 1.0 / direct[k]
    except ZeroDivisionError:
        raise SingularMatrix("a zero or infinite hop cost makes the system singular") from None
    energy = -a / b
    q: dict[tuple[int, int], float] = {}
    relay = 0.0
    for i in range(1, n + 1):
        q[(i, 0)] = (energy - relay * left[i]) / direct[i]
        relay += q[(i, 0)] - float(volumes[i - 1])
    relay = 0.0
    for i in range(n, 1, -1):
        relay += float(volumes[i - 1]) - q[(i, 0)]
        q[(i, i - 1)] = relay
    q[(1, 0)] = float(volumes[0]) + relay
    return q, energy


def reference_energies(q, direct, left) -> list[float]:
    energies = [
        q[(i, 0)] * direct[i] + (q[(i, i - 1)] * left[i] if i >= 2 else 0.0)
        for i in range(1, len(direct))
    ]
    if not is_equal_energy(energies, EQUAL_ENERGY_TOL):
        spread = max(energies) - min(energies)
        raise SingularMatrix(f"energy spread {spread:.3e} after solve")
    return energies


def reference_solve(net: PerturbedNetwork, check_flows: bool = True) -> EqualEnergySolution:
    direct, left = reference_costs(net)
    q, energy = reference_walk(net.volumes, direct, left)
    energies = reference_energies(q, direct, left)
    if check_flows:
        lowest = min(q.values())
        if lowest < -FLOW_ZERO_TOL:
            raise NegativeFlow(next(key for key, value in q.items() if value == lowest), lowest)
    return EqualEnergySolution(FlowMatrix(net.n, q), tuple(energies), energy)


def _reference_move(series, x, i, d, direct, left):
    xi = i - d
    direct[i] = transmission_cost(series, xi, 0.0)
    left[i] = transmission_cost(series, xi, x[i - 1])
    if i + 1 == len(x):
        return direct[i], left[i], None
    left[i + 1] = transmission_cost(series, x[i + 1], xi)
    return direct[i], left[i], left[i + 1]


def reference_intervals(net: PerturbedNetwork, nodes) -> list[StabilityInterval]:
    shifted = [k for k, d in enumerate(net.shifts, start=1) if d != 0.0]
    for i in nodes:
        if not 1 <= i <= net.n:
            raise IndexOutOfRange(f"node {i} outside [1, {net.n}]")
        for k in shifted:
            if k != i:
                raise ValueError(f"template shift d_{k} = {net.shifts[k - 1]} must be zero")
    if not nodes:
        return []
    template = PerturbedNetwork(net.n, (0.0,) * net.n, net.volumes, net.series)
    direct, left = reference_costs(template)
    x, series, volumes = template.positions().x, net.series, net.volumes

    def walk(i):
        try:
            q, _ = reference_walk(volumes, direct, left)
            reference_energies(q, direct, left)
        except SingularMatrix:
            return {(i, 0): -math.inf}
        return q

    q = walk(nodes[0])
    worst = min(q, key=q.__getitem__)
    if not q[worst] > 0.0:
        raise NegativeFlow(worst, q[worst], "solved flow not positive at d = 0")
    sums = perturbed._probe_sums(volumes, direct, left, min(nodes), max(nodes))

    def interval(i):
        probe = perturbed._shift_probe(sums, i)

        def fast(d):
            return probe(*_reference_move(series, x, i, d, direct, left))

        def full(d):
            _reference_move(series, x, i, d, direct, left)
            return min(walk(i).values()) > 0.0

        def boundary(end, limit):
            good, edge = perturbed._bisect(fast, end)
            if not full(good):
                good, edge = perturbed._bisect(full, end)
            return limit if edge is None else edge

        return StabilityInterval(
            boundary(-1.0 + BRACKET_MARGIN, -1.0), boundary(1.0 - BRACKET_MARGIN, 1.0)
        )

    intervals = []
    for i in nodes:
        at_zero = direct[i], left[i : i + 2]
        intervals.append(interval(i))
        direct[i], left[i : i + 2] = at_zero
    return intervals


def reference_sweep(net: PerturbedNetwork, kind: str, index: int, grid):
    if kind == "Q" and any(v <= 0 for v in grid):
        raise ValueError("volume grid values must be positive")
    if kind == "d" and any(abs(v) >= 1 for v in grid):
        raise ValueError("shift grid values must stay inside (-1, 1)")
    direct, left = reference_costs(net)
    x = net.positions().x
    volumes = list(net.volumes)
    rows = []
    for value in grid:
        if kind == "Q":
            volumes[index - 1] = value
        else:
            moved = index - float(value)
            right = x[index + 1] if index < net.n else math.inf
            if not x[index - 1] < moved < right:
                k = index if not x[index - 1] < moved else index + 1
                raise ValueError(
                    f"d{index} = {value:g}: coordinates must increase strictly (index {k})"
                )
            _reference_move(net.series, x, index, value, direct, left)
        q, energy = reference_walk(volumes, direct, left)
        reference_energies(q, direct, left)
        # FlowMatrix's clamp, then the smallest entry in the walk's order
        min_flow = min(0.0 if -FLOW_ZERO_TOL <= v < 0.0 else v for v in q.values())
        rows.append((value, energy if min_flow >= -FLOW_ZERO_TOL else None, min_flow))
    return rows
