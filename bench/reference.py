"""Independent reference model of the equal-energy chain, used by the checker.

Nothing here imports chainlife.  Node i sits at x_i (x_0 = 0 is the
collector), sends q_{i,0} straight to the collector and q_{i,i-1} to its left
neighbour, and spends q_{i,0} D_i + q_{i,i-1} L_i per round, with D_i the cost
of reaching the collector and L_i the cost of the left hop.  Every flow is
affine in the common energy E, so one sweep from node n down to node 1 solves
the balance equations in O(n): node 1 finally fixes E.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Terms = Sequence[tuple[float, float]]

BISECTION_TOL = 1e-10
BRACKET_MARGIN = 1e-6


def cost(terms: Terms, s: float) -> float:
    """Energy per unit of data sent over distance s."""
    s = abs(s)
    if s == 0.0:
        return 0.0
    return sum(lam * s**a for lam, a in terms)


def positions(n: int, shifts: Sequence[float] | None = None) -> list[float]:
    if shifts is None:
        return [float(k) for k in range(n + 1)]
    return [0.0] + [k - float(d) for k, d in enumerate(shifts, start=1)]


@dataclass(frozen=True)
class ChainSolution:
    energy: float
    flows: dict[tuple[int, int], float]

    @property
    def min_flow(self) -> float:
        return min(self.flows.values())


def peel(x: Sequence[float], volumes: Sequence[float], terms: Terms) -> ChainSolution:
    """Equal-energy flows on the chain support; entries may be negative."""
    n = len(volumes)
    direct = [cost(terms, x[i]) for i in range(n + 1)]
    left = [0.0] + [cost(terms, x[i] - x[i - 1]) for i in range(1, n + 1)]
    # T_i = ta + tb * E is node i's total outflow; q_{i,i-1} = la_i + lb_i * E
    ta, tb = float(volumes[n - 1]), 0.0
    la = [0.0] * (n + 1)
    lb = [0.0] * (n + 1)
    for i in range(n, 1, -1):
        den = left[i] - direct[i]
        la[i] = -direct[i] * ta / den
        lb[i] = (1.0 - direct[i] * tb) / den
        ta, tb = float(volumes[i - 2]) + la[i], lb[i]
    energy = direct[1] * ta / (1.0 - direct[1] * tb)
    flows: dict[tuple[int, int], float] = {}
    total = float(volumes[n - 1])
    for i in range(n, 1, -1):
        relay = la[i] + lb[i] * energy
        flows[(i, i - 1)] = relay
        flows[(i, 0)] = total - relay
        total = float(volumes[i - 2]) + relay
    flows[(1, 0)] = total
    return ChainSolution(energy, flows)


def solve(n: int, volumes: Sequence[float], terms: Terms,
          shifts: Sequence[float] | None = None) -> ChainSolution:
    return peel(positions(n, shifts), volumes, terms)


def volume_bound(n: int, volumes: Sequence[float], terms: Terms, i: int) -> float:
    """Volume of node i at which the flow node i receives (q_{i+1,i}) or, for
    i = n, the flow node n relays (q_{n,n-1}) reaches zero.  Both flows are
    affine in Q_i, so two solves locate the root exactly."""
    pair = (n, n - 1) if i == n else (i + 1, i)
    x = positions(n)

    def component(value: float) -> float:
        q = list(volumes)
        q[i - 1] = value
        return peel(x, q, terms).flows[pair]

    at_zero = component(0.0)
    return -at_zero / (component(1.0) - at_zero)


def shift_interval(n: int, terms: Terms, i: int) -> tuple[float, float]:
    """Shifts of node i (all others zero, unit volumes) that keep every flow
    positive, by bisection from 0 to the bracket ends at -1 and 1."""
    ones = [1.0] * n

    def min_flow(d: float) -> float:
        shifts = [0.0] * n
        shifts[i - 1] = d
        return peel(positions(n, shifts), ones, terms).min_flow

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

    return (boundary(-1.0 + BRACKET_MARGIN, -1.0), boundary(1.0 - BRACKET_MARGIN, 1.0))


def grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid lo, lo + step, ..., hi as the sweep command documents it."""
    values = []
    k = 0
    while lo + k * step <= hi + step * 1e-9:
        values.append(min(lo + k * step, hi))
        k += 1
    return values
