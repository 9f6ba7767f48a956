"""The regular chain: node i at coordinate i, every shift zero.

With every node able to reach the collector directly, the minimal worst-case
energy is attained by a flow in which each node splits its traffic between
the collector and its left neighbour so that all nodes spend exactly the
same energy per round.  That split is the one linear-time solve of
chainlife.perturbed; this module holds the boundaries of the volume region
where it stays feasible, and the paper's closed forms for the common energy
of the regular chain, kept as references that the tests check against the
solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cost import CostSeries, unit_hop_costs
from .errors import DegenerateCoefficient, IndexOutOfRange
from .perturbed import (
    PerturbedNetwork,
    _costs,
    _equal_energy_flows,
    _relay_sums,
    energy_bounds_perturbed,
    solve_equal_energy,
)

Q_CONSTRAINT_TOL = 1e-12


def RegularNetwork(n: int, volumes: tuple[float, ...], series: CostSeries) -> PerturbedNetwork:
    """Unit-spaced chain of n nodes: the chain whose shifts are all zero."""
    return PerturbedNetwork(n, (0.0,) * n, volumes, series)


# the regular chain has no solve or bounds of its own
flow_closed_form = solve_equal_energy
energy_bounds_regular = energy_bounds_perturbed


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


def node_energy_recurrence(net: PerturbedNetwork) -> float:
    """Common energy of a regular chain by peeling one node at a time off the far end."""
    hops = unit_hop_costs(net.series, net.n)
    e = float(net.volumes[0])
    for k in range(2, net.n + 1):
        e = float(net.volumes[k - 1]) + (1.0 - 1.0 / hops[k]) * e
    return e


def node_energy_closed_form(net: PerturbedNetwork) -> float:
    """Common energy of a regular chain as an explicit volume-weighted product sum."""
    return _closed_form_energy(net.volumes, unit_hop_costs(net.series, net.n))


def raw_flows(net: PerturbedNetwork) -> dict[tuple[int, int], float]:
    """Flow components without feasibility checks; diagnostic use only."""
    return _equal_energy_flows(net.volumes, *_costs(net))[0]


def harmonic_flow_a2(i: int, n: int) -> float:
    """Direct-to-collector share of node i for quadratic cost and unit volumes.

    Equals (i - H_i) / (i (i - 1)) with H_i the i-th harmonic number.
    """
    if not 2 <= i <= n:
        raise IndexOutOfRange(f"node {i} outside [2, {n}]")
    harmonic = math.fsum(1.0 / k for k in range(1, i + 1))
    return (i - harmonic) / (i * (i - 1))


def check_q_constraints(net: PerturbedNetwork) -> bool:
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


@dataclass(frozen=True)
class VolumeLimits:
    """Every node's volume limit with the other volumes fixed.

    values[i - 1] is Q_i^max for i < N, the volume at which node i + 1 stops
    relaying into node i, and Q_N^min for i = N, the volume at which node N
    stops relaying.  Every finite limit is kept; None marks one that is not.
    """

    values: tuple[float | None, ...]

    def bound(self, i: int) -> float:
        """Node i's limit; DegenerateCoefficient where it is not finite."""
        value = self.values[i - 1]
        if value is None:
            j = min(i + 1, len(self.values))
            raise DegenerateCoefficient(f"q[{j},{j - 1}] does not depend on Q_{i}")
        return value


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def volume_limits(net: PerturbedNetwork) -> VolumeLimits:
    """Q_i^max of every node i < N and Q_N^min, from one costing and the relay sums.

    Every flow is affine in each volume.  From perturbed._relay_sums,
    E = -a_N / b_N; as a_N = -sum_k Q_k P_k with P_k = prod_{m>k} s_m, E
    grows by P_i / b_N per unit of Q_i.  The backward sums c_i + e_i E of
    the relay q_{i+1,i} are free of Q_i, so its slope in Q_i is
    e_i P_i / b_N, and Q_i^max = Q_i - q_{i+1,i} / slope.  At Q_N^min node N
    sends all it holds directly, so nodes 1..N-1 form a chain of their own
    and Q_N^min = E_{N-1} / D_N with E_{N-1} = -a_{N-1} / b_{N-1}.  Neither
    form subtracts nearly equal numbers while Q_i <= Q_i^max; far above it
    the first cancels.  A limit is kept exactly when it is finite: a zero
    slope, or one so small that the root overflows, leaves None.
    """
    n = net.n
    if n == 1:
        return VolumeLimits((0.0,))
    direct, left = _costs(net)
    volumes = [float(q) for q in net.volumes]
    a, b, c, e = _relay_sums(volumes, direct, left, 0, n + 1)
    values: list[float | None] = [None] * n
    values[n - 1] = _finite(-a[n - 1] / b[n - 1] / direct[n])
    energy = -a[n] / b[n]
    suffix = 1.0
    for i in range(n - 1, 0, -1):
        suffix *= 1.0 - left[i + 1] / direct[i + 1]
        relay, slope = c[i] + e[i] * energy, e[i] * suffix / b[n]
        if slope != 0.0:
            values[i - 1] = _finite(volumes[i - 1] - relay / slope)
    return VolumeLimits(tuple(values))


def q_n_min(net: PerturbedNetwork) -> float:
    """Smallest feasible volume of the farthest node, other volumes fixed.

    At this value the farthest node stops relaying: q_{N,N-1} = 0.  Costs
    as much as volume_limits, which serves every node at once.
    """
    return volume_limits(net).bound(net.n)


def q_i_max(net: PerturbedNetwork, i: int) -> float:
    """Largest feasible volume of node i < N, other volumes fixed.

    At this value node i + 1 stops relaying into node i: q_{i+1,i} = 0.
    DegenerateCoefficient signals that the root is not finite.
    Costs as much as volume_limits, which serves every node at once.
    """
    if not 1 <= i <= net.n - 1:
        raise IndexOutOfRange(f"node {i} outside [1, {net.n - 1}]")
    return volume_limits(net).bound(i)


def stability_region_Q_check(net: PerturbedNetwork) -> bool:
    """Membership in the uniform volume region around Q = 1.

    The region requires every volume at least 1 and a total below 1.5 N; any
    valid cost series keeps the equal-energy solution optimal inside it.
    """
    if net.n < 3:
        raise ValueError("the uniform volume region is defined for three or more nodes")
    total = math.fsum(net.volumes)
    return all(q >= 1.0 for q in net.volumes) and total < 1.5 * net.n
