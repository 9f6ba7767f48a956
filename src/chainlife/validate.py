"""Feasibility, equal-energy, and lifetime checks for flow matrices.

These checks are deliberately independent of how a flow was produced, so the
closed-form solvers and the linear-program fallback can be validated through
the same code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .cost import CostSeries, Positions, transmission_cost

if TYPE_CHECKING:
    import numpy as np

FLOW_ZERO_TOL = 1e-9
EQUAL_ENERGY_TOL = 1e-9


class FlowMatrix:
    """Sparse directed flow q[i, j]: data sent by node i to node j (0 = collector).

    Entries with i == j or j as the sender collector are rejected outright.
    Tiny negative amounts (above -1e-9) are rounding noise from the solvers
    and are clamped to zero; larger negative values are kept so that the
    validators can report them.  Entries are kept sorted by (i, j), the
    order of items() and of min_entry's ties.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], float]):
        if n < 1:
            raise ValueError("need at least one node")
        clean: dict[tuple[int, int], float] = {}
        for (i, j), value in entries.items():
            if not (1 <= i <= n) or not (0 <= j <= n):
                raise ValueError(f"flow index ({i},{j}) outside the network")
            if i == j:
                raise ValueError(f"self-edge ({i},{i}) is not a transmission")
            value = float(value)
            if -FLOW_ZERO_TOL <= value < 0.0:
                value = 0.0
            clean[(i, j)] = value
        self.n = n
        self._entries = dict(sorted(clean.items()))

    @classmethod
    def _of_chain(cls, sent: Sequence[float], relays: Sequence[float]) -> FlowMatrix:
        """The flow of a chain walk, with the clamp but without the index checks.

        sent[i] is q_{i,0} for i = 1..n and relays[i] is q_{i,i-1} for
        i = 2..n (lower indices unused), floats that the walk computed.
        Those keys are in range by construction and are entered in sorted
        order.
        """
        n = len(sent) - 1
        low = -FLOW_ZERO_TOL
        entries = {(1, 0): 0.0 if low <= sent[1] < 0.0 else sent[1]}
        for i in range(2, n + 1):
            q, r = sent[i], relays[i]
            entries[(i, 0)] = 0.0 if low <= q < 0.0 else q
            entries[(i, i - 1)] = 0.0 if low <= r < 0.0 else r
        flow = cls.__new__(cls)
        flow.n = n
        flow._entries = entries
        return flow

    def amount(self, i: int, j: int) -> float:
        return self._entries.get((i, j), 0.0)

    def items(self) -> list[tuple[tuple[int, int], float]]:
        return list(self._entries.items())

    def min_entry(self) -> float:
        if not self._entries:
            return 0.0
        return min(self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover
        body = ", ".join(f"q[{i},{j}]={v:.6g}" for (i, j), v in self.items())
        return f"FlowMatrix(n={self.n}, {body})"


def check_conservation(flow: FlowMatrix, volumes: Sequence[float]) -> np.ndarray:
    """Per-node residual of (sent out) - (received) - (generated).

    A flow is conservative when the largest residual magnitude is at most
    1e-9 * max(1, max volume).
    """
    import numpy as np

    n = flow.n
    if len(volumes) != n:
        raise ValueError("volume vector length must match the node count")
    residual = np.array([-float(q) for q in volumes])
    for (i, j), value in flow.items():
        residual[i - 1] += value
        if j >= 1:
            residual[j - 1] -= value
    return residual


def conservation_ok(flow: FlowMatrix, volumes: Sequence[float], tol: float = FLOW_ZERO_TOL) -> bool:
    import numpy as np

    res = check_conservation(flow, volumes)
    scale = max(1.0, max(float(q) for q in volumes))
    return bool(np.max(np.abs(res)) <= tol * scale)


def node_energies(flow: FlowMatrix, positions: Positions, series: CostSeries) -> np.ndarray:
    """Energy each node spends transmitting its outgoing flow."""
    import numpy as np

    if positions.n != flow.n:
        raise ValueError("positions and flow disagree on the node count")
    x = positions.x
    energy = np.zeros(flow.n)
    for (i, j), value in flow.items():
        energy[i - 1] += value * transmission_cost(series, x[i], x[j])
    return energy


def is_equal_energy(energies: Sequence[float], tol: float = EQUAL_ENERGY_TOL) -> bool:
    """True when all node energies agree within tol relative to max(1, |peak|), as in the solve."""
    peak = max(energies)
    return bool(peak - min(energies) <= tol * max(1.0, abs(peak)))


def check_no_loop(flow: FlowMatrix, tol: float = FLOW_ZERO_TOL) -> bool:
    """True when no pair of nodes sends data in both directions."""
    for (i, j), value in flow.items():
        if j >= 1 and value > tol and flow.amount(j, i) > tol:
            return False
    return True


@dataclass(frozen=True)
class LifetimeReport:
    per_node_energy: tuple[float, ...]
    lifetime: float
    bottleneck: int | None


def lifetime(
    flow: FlowMatrix,
    positions: Positions,
    series: CostSeries,
    initial_energies: Sequence[float],
) -> LifetimeReport:
    """Rounds survivable by the weakest node: min over i of E0_i / E_i.

    Nodes spending no energy never die; when every node spends nothing the
    lifetime is unbounded and the bottleneck is undefined.
    """
    if len(initial_energies) != flow.n:
        raise ValueError("initial energy vector length must match the node count")
    spent = node_energies(flow, positions, series)
    best = math.inf
    bottleneck: int | None = None
    for k, e in enumerate(spent):
        if e <= 0.0:
            continue
        rounds = float(initial_energies[k]) / float(e)
        if rounds < best:
            best = rounds
            bottleneck = k + 1
    return LifetimeReport(tuple(float(v) for v in spent), best, bottleneck)


def validation_report(
    flow: FlowMatrix,
    positions: Positions,
    series: CostSeries,
    volumes: Sequence[float],
    initial_energies: Sequence[float] | None = None,
) -> dict:
    """Bundle of the checks in document form (uniform unit batteries by default)."""
    import numpy as np

    if initial_energies is None:
        initial_energies = [1.0] * flow.n
    res = check_conservation(flow, volumes)
    report = lifetime(flow, positions, series, initial_energies)
    return {
        "conservation_max_residual": float(np.max(np.abs(res))),
        "equal_energy": is_equal_energy(report.per_node_energy),
        "no_loop": check_no_loop(flow),
        "lifetime": report.lifetime,
        "bottleneck": report.bottleneck,
    }
