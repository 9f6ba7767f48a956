"""Equal-energy routing for the unit-spaced chain.

With node i at coordinate i and every node able to reach the collector
directly, the minimal worst-case energy is attained by a flow in which each
node splits its traffic between the collector and its left neighbour so
that all nodes spend exactly the same energy per round.  This module holds
the linear-time solve of that split, which shifted chains share, and the
boundaries of the volume region where it stays feasible; the paper's closed
forms for the common energy stay here as references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cost import CostSeries, Positions, unit_hop_costs
from .errors import DegenerateCoefficient, IndexOutOfRange, NegativeFlow, SingularMatrix
from .validate import FLOW_ZERO_TOL, FlowMatrix

Q_CONSTRAINT_TOL = 1e-12
EQUAL_ENERGY_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class RegularNetwork:
    """Unit-spaced chain of n nodes with per-node data volumes and a cost series."""

    n: int
    volumes: tuple[float, ...]
    series: CostSeries

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        if len(self.volumes) != self.n:
            raise ValueError("volume vector length must match the node count")
        for k, q in enumerate(self.volumes, start=1):
            if not q > 0.0:
                raise ValueError(f"volume Q_{k} = {q} must be positive")

    def positions(self) -> Positions:
        return Positions.regular(self.n)

    def hop_costs(self) -> list[float]:
        """Costs of hops of integer length 0..n; entry 1 is 1 by normalization."""
        return unit_hop_costs(self.series, self.n)


@dataclass(frozen=True)
class EqualEnergySolution:
    """A feasible flow whose node energies all equal ``common_energy``."""

    flow: FlowMatrix
    node_energies: tuple[float, ...]
    common_energy: float


def _closed_form_energy(volumes: Sequence[float], hops: Sequence[float], e1: float = 1.0) -> float:
    # telescoped value of the common energy: Q_m + sum_j Q_{j-1} prod_{r=j}^{m}(1 - e1/E_r)
    m = len(volumes)
    if m == 0:
        return 0.0
    total = float(volumes[-1])
    suffix = 1.0
    for j in range(m, 1, -1):
        suffix *= 1.0 - e1 / hops[j]
        total += float(volumes[j - 2]) * suffix
    return total


def _equal_energy_flows(
    volumes: Sequence[float], direct: Sequence[float], left: Sequence[float]
) -> tuple[dict[tuple[int, int], float], float]:
    """Signed equal-energy flows on the chain support and their common energy E.

    direct[i] and left[i] are node i's costs to reach the collector and node
    i - 1 (index 0 unused).  Walking outward from node 1, the relay
    q_{i+1,i} = a + b E picks up E / D_i - Q_i and is scaled by the
    contracting factor 1 - L_i / D_i; the far end q_{n+1,n} = 0 fixes E, and
    a second walk evaluates the direct flows at that E.  Entries may be
    negative outside the feasible region.
    """
    n = len(volumes)
    a = b = 0.0
    try:
        for i in range(1, n + 1):
            shrink = 1.0 - left[i] / direct[i]
            a = a * shrink - float(volumes[i - 1])
            b = b * shrink + 1.0 / direct[i]
        energy = -a / b
    except ZeroDivisionError:
        raise SingularMatrix("a zero or infinite hop cost makes the system singular") from None
    q: dict[tuple[int, int], float] = {}
    relay = 0.0
    for i in range(1, n + 1):
        q[(i, 0)] = (energy - relay * left[i]) / direct[i]
        relay += q[(i, 0)] - float(volumes[i - 1])
    # the relays again, summed from the far end where they are small, so
    # that each keeps its relative precision; node 1 sends on all it holds
    relay = 0.0
    for i in range(n, 1, -1):
        relay += float(volumes[i - 1]) - q[(i, 0)]
        q[(i, i - 1)] = relay
    q[(1, 0)] = float(volumes[0]) + relay
    return q, energy


def _equal_energy_solution(
    q: dict[tuple[int, int], float],
    common: float,
    direct: Sequence[float],
    left: Sequence[float],
    check_flows: bool = True,
) -> EqualEnergySolution:
    """Node energies and the flow, after the energy-spread and negative-flow checks.

    SingularMatrix signals node energies that disagree or are not finite;
    NegativeFlow, raised only with ``check_flows``, names the most negative
    component.
    """
    energies = [
        q[(i, 0)] * direct[i] + (q[(i, i - 1)] * left[i] if i >= 2 else 0.0)
        for i in range(1, len(direct))
    ]
    peak = max(energies)
    spread = peak - min(energies)
    if not spread <= EQUAL_ENERGY_RESIDUAL_TOL * max(1.0, abs(peak)):
        raise SingularMatrix(f"energy spread {spread:.3e} after solve")
    if check_flows:
        worst = min(q, key=lambda key: q[key])
        if q[worst] < -FLOW_ZERO_TOL:
            raise NegativeFlow(worst, q[worst])
    return EqualEnergySolution(FlowMatrix(len(direct) - 1, q), tuple(energies), common)


def _chain_costs(net: RegularNetwork) -> tuple[list[float], list[float]]:
    # direct costs are the hop costs; every left hop has unit length
    hops = net.hop_costs()
    return hops, [hops[1]] * len(hops)


def node_energy_recurrence(net: RegularNetwork) -> float:
    """Common energy by peeling one node at a time off the far end."""
    hops = net.hop_costs()
    e = float(net.volumes[0])
    for k in range(2, net.n + 1):
        e = float(net.volumes[k - 1]) + (1.0 - 1.0 / hops[k]) * e
    return e


def node_energy_closed_form(net: RegularNetwork) -> float:
    """Common energy as an explicit volume-weighted product sum."""
    return _closed_form_energy(net.volumes, net.hop_costs())


def raw_flows(net: RegularNetwork) -> dict[tuple[int, int], float]:
    """Flow components without feasibility checks; diagnostic use only."""
    return _equal_energy_flows(net.volumes, *_chain_costs(net))[0]


def flow_closed_form(net: RegularNetwork) -> EqualEnergySolution:
    """Equal-energy flow for a feasible volume vector.

    Raises NegativeFlow naming the most negative component when the volumes
    lie outside the feasibility region described by q_n_min and q_i_max.
    """
    direct, left = _chain_costs(net)
    q, energy = _equal_energy_flows(net.volumes, direct, left)
    return _equal_energy_solution(q, energy, direct, left)


def harmonic_flow_a2(i: int, n: int) -> float:
    """Direct-to-collector share of node i for quadratic cost and unit volumes.

    Equals (i - H_i) / (i (i - 1)) with H_i the i-th harmonic number.
    """
    if not 2 <= i <= n:
        raise IndexOutOfRange(f"node {i} outside [2, {n}]")
    harmonic = math.fsum(1.0 / k for k in range(1, i + 1))
    return (i - harmonic) / (i * (i - 1))


def check_q_constraints(net: RegularNetwork) -> bool:
    """Feasibility of the volume vector for the equal-energy construction.

    Requires Q_1 >= 1 and each later volume to exceed its own direct flow,
    which the prefix network already forces, so that every node adds to the
    relay stream toward the collector.  Strict inequalities are tested with
    a 1e-12 slack.
    """
    if net.volumes[0] < 1.0 - Q_CONSTRAINT_TOL:
        return False
    q = raw_flows(net)
    return all(
        net.volumes[i - 1] > q[(i, 0)] - Q_CONSTRAINT_TOL for i in range(2, net.n + 1)
    )


def q_n_min(net: RegularNetwork) -> float:
    """Smallest feasible volume of the farthest node, other volumes fixed.

    At this value the farthest node stops relaying: q_{N,N-1} = 0.
    """
    if net.n < 2:
        return 0.0
    hops = net.hop_costs()
    return _closed_form_energy(net.volumes[: net.n - 1], hops) / hops[net.n]


def q_i_max(net: RegularNetwork, i: int) -> float:
    """Largest feasible volume of node i < N, other volumes fixed.

    The receiving-side flow q_{i+1,i} is affine in Q_i, so the boundary is
    located exactly from two evaluations.  DegenerateCoefficient signals a
    vanishing slope (no finite boundary).
    """
    if not 1 <= i <= net.n - 1:
        raise IndexOutOfRange(f"node {i} outside [1, {net.n - 1}]")
    direct, left = _chain_costs(net)

    def component(value: float) -> float:
        volumes = list(net.volumes)
        volumes[i - 1] = value
        return _equal_energy_flows(volumes, direct, left)[0][(i + 1, i)]

    at_zero = component(0.0)
    slope = component(1.0) - at_zero
    scale = max(1.0, abs(at_zero))
    if abs(slope) <= 1e-14 * scale:
        raise DegenerateCoefficient(f"q[{i + 1},{i}] does not depend on Q_{i}")
    return -at_zero / slope


def stability_region_Q_check(net: RegularNetwork) -> bool:
    """Membership in the uniform volume region around Q = 1.

    The region requires every volume at least 1 and a total below 1.5 N; any
    valid cost series keeps the equal-energy solution optimal inside it.
    """
    if net.n < 3:
        raise ValueError("the uniform volume region is defined for three or more nodes")
    total = math.fsum(net.volumes)
    return all(q >= 1.0 for q in net.volumes) and total < 1.5 * net.n


def energy_bounds_regular(net: RegularNetwork) -> tuple[float, float]:
    """Interval [lower, upper) that must contain the common energy.

    The lower end is the per-node share of the total hop-count workload and
    is attained for single-term cost with exponent 1; the upper end is the
    total volume and corresponds to everyone relaying through node 1.
    """
    lower = math.fsum((j + 1) * q for j, q in enumerate(net.volumes)) / net.n
    upper = math.fsum(net.volumes)
    return lower, upper
