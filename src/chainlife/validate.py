"""Feasibility, equal-energy, and lifetime checks for flow matrices.

These checks are deliberately independent of how a flow was produced, so the
closed-form solvers and the linear-program fallback can be validated through
the same code path.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING, Mapping, Sequence

from .cost import CostSeries, Positions, transmission_cost

if TYPE_CHECKING:
    import numpy as np

FLOW_ZERO_TOL = 1e-9
EQUAL_ENERGY_TOL = 1e-9


class FlowMatrix:
    """Sparse directed flow q[i, j]: data sent by node i to node j (0 = collector).

    Indices are integers (anything operator.index takes, stored as int);
    entries with i == j or j as the sender collector are rejected outright.
    Tiny negative amounts (above -1e-9) are rounding noise from the solvers
    and are clamped to zero; larger negative values are kept so that the
    validators can report them.  The entries are kept as three columns,
    senders, receivers and amounts, sorted by (i, j): the order of items(),
    of columns() and of min_entry's ties.  amount() bisects the columns.
    """

    __slots__ = ("n", "_senders", "_receivers", "_amounts")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], float]):
        if n < 1:
            raise ValueError("need at least one node")
        clean: dict[tuple[int, int], float] = {}
        for (i, j), value in entries.items():
            try:
                i, j = index(i), index(j)
            except TypeError:
                raise ValueError(f"flow index ({i},{j}) is not a pair of integers") from None
            if not (1 <= i <= n) or not (0 <= j <= n):
                raise ValueError(f"flow index ({i},{j}) outside the network")
            if i == j:
                raise ValueError(f"self-edge ({i},{i}) is not a transmission")
            value = float(value)
            if -FLOW_ZERO_TOL <= value < 0.0:
                value = 0.0
            clean[(i, j)] = value
        keys = sorted(clean)
        self.n = n
        self._senders = tuple(i for i, _ in keys)
        self._receivers = tuple(j for _, j in keys)
        self._amounts = tuple(map(clean.__getitem__, keys))

    @classmethod
    def _of_chain(cls, sent: Sequence[float], relays: Sequence[float]) -> FlowMatrix:
        """The flow of a chain walk, with the clamp but without the index checks.

        sent[i] is q_{i,0} for i = 1..n and relays[i] is q_{i,i-1} for
        i = 2..n (lower indices unused), floats that the walk computed.
        The columns are assembled by slices in the sorted key order (1, 0),
        (2, 0), (2, 1), ..., (n, 0), (n, n - 1); the clamp keeps a -0.0
        and a NaN.
        """
        n = len(sent) - 1
        size = 2 * n - 1
        senders, receivers, amounts = [0] * size, [0] * size, [0.0] * size
        # entry 0 is (1, 0); node i >= 2 has (i, 0) at 2i - 3 and (i, i - 1) at 2i - 2;
        # both index columns take their ints from one list, so each is made once
        nodes = list(range(n + 1))
        senders[0::2] = nodes[1:]
        senders[1::2] = nodes[2:]
        receivers[2::2] = nodes[1:n]
        amounts[0] = sent[1]
        amounts[1::2] = sent[2:]
        amounts[2::2] = relays[2:]
        low = -FLOW_ZERO_TOL
        amounts = [0.0 if low <= q < 0.0 else q for q in amounts]
        flow = cls.__new__(cls)
        flow.n = n
        flow._senders, flow._receivers = tuple(senders), tuple(receivers)
        flow._amounts = tuple(amounts)
        return flow

    def amount(self, i: int, j: int) -> float:
        senders, receivers = self._senders, self._receivers
        first = bisect_left(senders, i)
        k = bisect_left(receivers, j, first, bisect_right(senders, i, first))
        if k < len(senders) and senders[k] == i and receivers[k] == j:
            return self._amounts[k]
        return 0.0

    def items(self) -> list[tuple[tuple[int, int], float]]:
        return list(zip(zip(self._senders, self._receivers), self._amounts))

    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """Senders, receivers and amounts of the entries, each in items() order."""
        return self._senders, self._receivers, self._amounts

    def min_entry(self) -> float:
        return min(self._amounts, default=0.0)

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
