"""The regular chain: node i at coordinate i, every shift zero.

With every node able to reach the collector directly, the minimal worst-case
energy is attained by a flow in which each node splits its traffic between
the collector and its left neighbour so that all nodes spend exactly the
same energy per round.  That split is the one linear-time solve of
chainlife.perturbed; this module holds the boundaries of the volume region
where it stays feasible, read off PerturbedNetwork.costs and its relay
sums (.forward_sums, and .backward_sums for the limits), and the paper's
closed forms for the common energy of the regular chain, kept as
references that the tests check against the solve.
"""
from __future__ import annotations

import math
from typing import Sequence

from .cost import CostSeries, unit_hop_costs
from .errors import DegenerateCoefficient, IndexOutOfRange
from .perturbed import PerturbedNetwork, _direct_flows, _equal_energy_flows, solve_equal_energy

Q_CONSTRAINT_TOL = 1e-12


def RegularNetwork(n: int, volumes: tuple[float, ...], series: CostSeries) -> PerturbedNetwork:
    """Unit-spaced chain of n nodes: the chain whose shifts are all zero."""
    return PerturbedNetwork(n, (0.0,) * n, volumes, series)


# the regular chain has no solve of its own
flow_closed_form = solve_equal_energy


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
    """Flow components without feasibility checks, in the walk's order; diagnostic use only."""
    sent, relays, _ = _equal_energy_flows(net.volumes, *net.costs, net.forward_sums)
    flows = {(i, 0): sent[i] for i in range(1, net.n + 1)}
    flows.update(((i, i - 1), relays[i]) for i in range(net.n, 1, -1))
    return flows


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

    Requires Q_1 >= 1 and each later volume Q_i to exceed its own direct
    flow q_{i,0} of the equal-energy split, so that every node adds to the
    relay stream toward the collector.  A split whose flows are all positive
    need not meet it: on n = 3 with cost s**2 and volumes (2, 0.25, 1) every
    flow is positive, but Q_2 = 0.25 < q_{2,0} = 0.5.  Strict inequalities
    are tested with a 1e-12 slack.  The direct flows are the solve's, from
    the chain's outward relay sums net.forward_sums, which volume_limits
    reads too; the backward walk is not needed.
    """
    if net.volumes[0] < 1.0 - Q_CONSTRAINT_TOL:
        return False
    a, b = net.forward_sums
    sent = _direct_flows(net.volumes, *net.costs, -a[net.n] / b[net.n])
    return all(q > flow - Q_CONSTRAINT_TOL for q, flow in zip(net.volumes[1:], sent[2:]))


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def volume_limits(net: PerturbedNetwork) -> tuple[float | None, ...]:
    """Q_i^max of every node i < N and Q_N^min, from the chain's costing and both relay walks.

    Entry i - 1 is node i's limit with the other volumes fixed, None where
    it is not finite (a zero slope or an overflow).  Every flow is affine
    in each volume.  From net.forward_sums, E = -a_N / b_N with
    -a_N = sum_k Q_k P_k and P_k = prod_{m>k} s_m, and the backward sums
    c_i + e_i E of the relay q_{i+1,i} (net.backward_sums) are free of
    Q_i.  So that relay vanishes at
    Q_i^max = -(c_i b_N + e_i (H_i + T_i)) / (e_i P_i), where
    H_i = -a_{i-1} P_{i-1} sums Q_j P_j over j < i and T_i over j > i.  At
    Q_N^min node N sends all it holds directly, so nodes 1..N-1 form a
    chain of their own and Q_N^min = E_{N-1} / D_N with
    E_{N-1} = -a_{N-1} / b_{N-1}.  Neither form contains the volume it
    solves for, so neither cancels however far that volume is from it.
    """
    n = net.n
    if n == 1:
        return (0.0,)
    direct = net.costs[0]
    volumes = [float(q) for q in net.volumes]
    a, b = net.forward_sums
    c, e, s = net.backward_sums
    values: list[float | None] = [None] * n
    values[n - 1] = _finite(-a[n - 1] / b[n - 1] / direct[n])
    suffix, tail = 1.0, 0.0  # P_i and T_i, from i = N down
    for i in range(n - 1, 0, -1):
        tail += volumes[i] * suffix
        suffix *= s[i + 1]
        slope = e[i] * suffix
        if slope != 0.0:
            intercept = c[i] * b[n] + e[i] * (tail - a[i - 1] * suffix * s[i])
            values[i - 1] = _finite(-intercept / slope)
    return tuple(values)


def _limit(net: PerturbedNetwork, i: int, name: str) -> float:
    value = volume_limits(net)[i - 1]
    if value is None:
        raise DegenerateCoefficient(f"the volume limit {name} of this chain is not finite")
    return value


def q_n_min(net: PerturbedNetwork) -> float:
    """Smallest feasible volume of the farthest node, other volumes fixed.

    At this value the farthest node stops relaying: q_{N,N-1} = 0.
    DegenerateCoefficient signals that the limit is not finite.  Costs as
    much as volume_limits, which serves every node at once.
    """
    return _limit(net, net.n, f"Q_{net.n}^min")


def q_i_max(net: PerturbedNetwork, i: int) -> float:
    """Largest feasible volume of node i < N, other volumes fixed.

    At this value node i + 1 stops relaying into node i: q_{i+1,i} = 0.
    DegenerateCoefficient signals that the limit is not finite.  Costs as
    much as volume_limits, which serves every node at once.
    """
    if not 1 <= i <= net.n - 1:
        raise IndexOutOfRange(f"node {i} outside [1, {net.n - 1}]")
    return _limit(net, i, f"Q_{i}^max")


def stability_region_Q_check(net: PerturbedNetwork) -> bool:
    """Membership in the uniform volume region around Q = 1.

    The region requires every volume at least 1 and a total below 1.5 N; any
    valid cost series keeps the equal-energy solution optimal inside it.
    """
    if net.n < 3:
        raise ValueError("the uniform volume region is defined for three or more nodes")
    bound = 1.5 * net.n
    # a volume of 1.5 N or more fails the total too; below it the fsum stays finite
    return all(1.0 <= q < bound for q in net.volumes) and math.fsum(net.volumes) < bound
