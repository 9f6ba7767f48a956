"""The sensor chain: node positions, the equal-energy solve, and shift stability.

Node i sits at x_i = i - d_i with d_i in (-1, 1); a positive shift moves the
node toward the collector, and the regular, unit-spaced chain is d = 0.  The
equal-energy flow solves the conservation and pairwise energy-equality
balance equations in one linear-time walk along the chain; the dense system
of those rows is still assembled, as a test reference and for condition
estimates.  The stability question is how far a single node may move before
that flow stops being feasible, and hence stops solving the minimax energy
problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cost import CostSeries, Positions, transmission_cost
from .errors import IndexOutOfRange, NegativeFlow, NoSignChange, SingularMatrix
from .validate import EQUAL_ENERGY_TOL, FLOW_ZERO_TOL, FlowMatrix

BISECTION_TOL = 1e-10
BRACKET_MARGIN = 1e-6


@dataclass(frozen=True)
class PerturbedNetwork:
    """Chain of n nodes at x_i = i - shifts[i-1], with volumes and a cost series.

    Every chain has this type; zero shifts give the regular chain.
    """

    n: int
    shifts: tuple[float, ...]
    volumes: tuple[float, ...]
    series: CostSeries
    _positions: Positions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        if len(self.shifts) != self.n or len(self.volumes) != self.n:
            raise ValueError("shift and volume vectors must match the node count")
        object.__setattr__(self, "_positions", Positions.from_shifts(self.shifts))
        for k, q in enumerate(self.volumes, start=1):
            if not q > 0.0:
                raise ValueError(f"volume Q_{k} = {q} must be positive")

    def positions(self) -> Positions:
        return self._positions


@dataclass(frozen=True)
class EqualEnergySolution:
    """A feasible flow whose node energies all equal ``common_energy``."""

    flow: FlowMatrix
    node_energies: tuple[float, ...]
    common_energy: float


@dataclass(frozen=True, eq=False)
class SystemMatrix:
    """Dense routing system M q = rhs with its variable ordering.

    ordering[k] is the (sender, receiver) pair of unknown k; the layout is
    q_{N,0}, ..., q_{1,0} followed by q_{2,1}, ..., q_{N,N-1}.
    """

    m: np.ndarray
    rhs: np.ndarray
    ordering: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StabilityInterval:
    """Open interval of single-node shifts keeping the solved flow feasible."""

    lo: float
    hi: float


def _costs(net: PerturbedNetwork) -> tuple[list[float], list[float]]:
    """Node i's costs to the collector, direct[i], and to node i - 1, left[i].

    Index 0 is unused.  A gap x_i - x_{i-1} equal to the one before reuses
    its cost, so a regular chain pays n + 1 cost evaluations.
    """
    x = net.positions().x
    series = net.series
    direct = [0.0] * (net.n + 1)
    left = [0.0] * (net.n + 1)
    gap = hop = None
    for i in range(1, net.n + 1):
        direct[i] = transmission_cost(series, x[i], 0.0)
        if x[i] - x[i - 1] != gap:
            gap = x[i] - x[i - 1]
            hop = transmission_cost(series, x[i], x[i - 1])
        left[i] = hop
    return direct, left


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
    if not spread <= EQUAL_ENERGY_TOL * max(1.0, abs(peak)):
        raise SingularMatrix(f"energy spread {spread:.3e} after solve")
    if check_flows:
        worst = min(q, key=lambda key: q[key])
        if q[worst] < -FLOW_ZERO_TOL:
            raise NegativeFlow(worst, q[worst])
    return EqualEnergySolution(FlowMatrix(len(direct) - 1, q), tuple(energies), common)


def assemble_system(net: PerturbedNetwork) -> SystemMatrix:
    """Conservation rows plus energy-equality rows for the 2N-1 unknown flows."""
    n = net.n
    direct, left = _costs(net)
    size = 2 * n - 1
    ordering = tuple((m, 0) for m in range(n, 0, -1)) + tuple(
        (m, m - 1) for m in range(2, n + 1)
    )
    col_direct = {m: n - m for m in range(1, n + 1)}
    col_left = {m: n + m - 2 for m in range(2, n + 1)}
    matrix = np.zeros((size, size))
    rhs = np.zeros(size)
    for m in range(1, n + 1):
        row = n - m
        matrix[row, col_direct[m]] = 1.0
        if m >= 2:
            matrix[row, col_left[m]] += 1.0
        if m + 1 <= n:
            matrix[row, col_left[m + 1]] -= 1.0
        rhs[row] = net.volumes[m - 1]
    for i in range(1, n):
        row = n + i - 1
        matrix[row, col_direct[i]] += direct[i]
        if i >= 2:
            matrix[row, col_left[i]] += left[i]
        matrix[row, col_direct[i + 1]] -= direct[i + 1]
        matrix[row, col_left[i + 1]] -= left[i + 1]
    return SystemMatrix(matrix, rhs, ordering)


def system_determinant(net: PerturbedNetwork) -> float:
    """Determinant of the routing system matrix."""
    return float(np.linalg.det(assemble_system(net).m))


def _solve_raw(net: PerturbedNetwork, check_flows: bool = False) -> EqualEnergySolution:
    direct, left = _costs(net)
    q, energy = _equal_energy_flows(net.volumes, direct, left)
    return _equal_energy_solution(q, energy, direct, left, check_flows)


def solve_equal_energy(net: PerturbedNetwork, check_flows: bool = True) -> EqualEnergySolution:
    """Solve the balance equations and package the equal-energy flow.

    The one solve for every chain, regular or shifted.  Outside the stability
    region the system still has a unique solution but
    some component is negative and the flow no longer solves the minimax
    problem.  With ``check_flows`` set (the default) that situation raises
    NegativeFlow; disabling the check returns the signed solution for
    boundary exploration.
    """
    try:
        return _solve_raw(net, check_flows)
    except SingularMatrix as exc:
        cond = float(np.linalg.cond(assemble_system(net).m, 1))
        raise SingularMatrix(f"{exc} (1-norm condition estimate {cond:.3e})") from None


def node_energy_sn(net: PerturbedNetwork) -> float:
    """Common energy as a cost-product sum divided by the system determinant.

    The whole bracket, including the farthest node's term, is divided by
    det M; the regression suite pins this grouping against solve_equal_energy.
    """
    direct, left = _costs(net)
    n = net.n
    if n == 1:
        return float(net.volumes[0]) * direct[1]
    det = system_determinant(net)
    total = 0.0
    for k in range(1, n):
        term = float(net.volumes[k - 1])
        for i in range(1, k + 1):
            term *= direct[i]
        for i in range(k + 1, n + 1):
            term *= direct[i] - left[i]
        total += term
    last = float(net.volumes[n - 1])
    for i in range(1, n + 1):
        last *= direct[i]
    return (total + last) / det


def stability_bounds_d(n: int, i: int) -> tuple[float, float]:
    """Envelope (dL, dR) of allowed single-node shifts for unit volumes.

    Derived for single-term cost with exponent 1; for any other valid series
    the true stability interval is contained in this envelope.  End nodes can
    always use the full (-1, 1) range on their outward side.
    """
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"node {i} outside [1, {n}]")
    if i == 1 or i == n:
        lo = -1.0
    elif i < (n * n + n + 2) / (2 * n):
        lo = -0.25 * (math.sqrt(n * (8 * i + n * (n + 1 - i) ** 2)) - n * (n + 1 - i))
    else:
        lo = -1.0
    if i == n:
        hi = 1.0
    elif i == n - 1:
        # the receiving-flow quadratic degenerates to a line here; its root
        # is inside (0, 1) only for very short chains
        root = n * (n - 1) / (2.0 * (n + 1))
        hi = root if root < 1.0 else 1.0
    elif i == 1:
        hi = (math.sqrt(n * (n**3 + 2 * n * n + 5 * n - 8)) - n - n * n) / (2 * n - 4)
    elif i < (n * n - n - 2 + math.sqrt(4 - 12 * n + 37 * n * n + 6 * n**3 + n**4)) / (4 * n):
        hi = (
            math.sqrt(n * (8 * i * (1 + i) * (n - 1 - i) + n * (3 - i * i + n + i * n) ** 2))
            - n * n * (1 + i)
            + n * (i * i - 3)
        ) / (4 * (n - 1 - i))
    else:
        hi = 1.0
    return lo, hi


def flow_quadratics_a1(n: int, i: int, d: float) -> tuple[float, float]:
    """The two flow components whose roots in d bound the shift of node i.

    Valid for exponent-1 cost and unit volumes.  Returns (q_{i,0}, q_{i+1,0})
    as explicit rational functions of the shift; the stability interval of
    node i < N is exactly where both stay positive.
    """
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"node {i} outside [1, {n - 1}]")
    if not -1.0 < d < 1.0:
        raise ValueError(f"shift {d} outside (-1, 1)")
    if i == 1:
        # the shifted node's own direct flow; x_0 = 0 is fixed, so this
        # branch has no root inside (-1, 1)
        qi0 = (n * (n + 1) - 2.0 * d) / (2.0 * n * (1.0 - d))
    else:
        qi0 = (i * n + (n + 1 - i) * n * d - 2.0 * d * d) / (2.0 * n * (i - d))
    qip10 = (
        i * (i + 1) * n - (n * (i + 1) - i * i + 3) * n * d - 2.0 * (n - 1 - i) * d * d
    ) / (2.0 * (i + 1) * n * (i - d))
    return qi0, qip10


def numeric_d_interval(
    net: PerturbedNetwork, i: int, tol: float = BISECTION_TOL
) -> StabilityInterval:
    """Shift interval of node i inside which every solved flow stays positive.

    All other shifts must be zero; the interval is located by bisection on
    the smallest flow component of the solved system, to ``tol`` in d.  When
    no component changes sign before the bracket end the boundary is the
    geometric limit -1 or 1.
    """
    if not 1 <= i <= net.n:
        raise IndexOutOfRange(f"node {i} outside [1, {net.n}]")
    for k, d in enumerate(net.shifts, start=1):
        if k != i and d != 0.0:
            raise ValueError(f"template shift d_{k} = {d} must be zero")

    def min_flow(d: float) -> float:
        shifts = [0.0] * net.n
        shifts[i - 1] = d
        probe = PerturbedNetwork(net.n, tuple(shifts), net.volumes, net.series)
        try:
            return _solve_raw(probe).flow.min_entry()
        except SingularMatrix:  # an ill-conditioned probe counts as infeasible
            return -math.inf

    if not min_flow(0.0) > 0.0:
        raise NegativeFlow((i, 0), min_flow(0.0), "solved flow not positive at d = 0")

    def boundary(end: float) -> float:
        if min_flow(end) > 0.0:
            raise NoSignChange(f"flow stays positive through d = {end:.6g}")
        good, bad = 0.0, end
        while abs(bad - good) > tol:
            mid = 0.5 * (good + bad)
            if min_flow(mid) > 0.0:
                good = mid
            else:
                bad = mid
        return 0.5 * (good + bad)

    try:
        lo = boundary(-1.0 + BRACKET_MARGIN)
    except NoSignChange:
        lo = -1.0
    try:
        hi = boundary(1.0 - BRACKET_MARGIN)
    except NoSignChange:
        hi = 1.0
    return StabilityInterval(lo, hi)


def closed_form_a1(positions: Positions, volumes: Sequence[float]) -> EqualEnergySolution:
    """Exact equal-energy flow for exponent-1 cost at arbitrary positions.

    For cost equal to distance the system solution collapses to weighted
    coordinate sums; the common energy is the position-weighted mean volume.
    Raises NegativeFlow outside the feasibility region.
    """
    n = positions.n
    if len(volumes) != n:
        raise ValueError("volume vector length must match the node count")
    x = positions.x
    weighted = [x[j] * float(volumes[j - 1]) for j in range(1, n + 1)]
    total = math.fsum(weighted)
    q: dict[tuple[int, int], float] = {(1, 0): total / (n * x[1])}
    prefix = 0.0
    for i in range(2, n + 1):
        prefix += weighted[i - 2]
        q[(i, 0)] = (
            n * (x[i] - x[i - 1]) * prefix + (i * x[i - 1] - (i - 1) * x[i]) * total
        ) / (n * x[i] * x[i - 1])
        suffix = total - prefix
        q[(i, i - 1)] = ((i - 1) * suffix - (n - i + 1) * prefix) / (n * x[i - 1])
    left = [0.0] + [x[i] - x[i - 1] for i in range(1, n + 1)]
    return _equal_energy_solution(q, total / n, list(x), left)


def energy_bounds_perturbed(net: PerturbedNetwork) -> tuple[float, float]:
    """Interval [lower, upper) that must contain the common energy.

    The lower end charges every volume the chain of hop costs it crosses,
    averaged over the nodes; the upper end is the worst single-hop relay load.
    On a regular chain every hop costs 1, so the interval is the per-node
    share of the hop-count workload up to the total volume, the relay load
    of node 1; the lower end is attained for exponent-1 cost.
    """
    _, left = _costs(net)
    n = net.n
    hop_prefix = 0.0
    lower = 0.0
    for i in range(1, n + 1):
        hop_prefix += left[i]
        lower += float(net.volumes[i - 1]) * hop_prefix
    lower /= n
    suffix = 0.0
    upper = 0.0
    for i in range(n, 0, -1):
        suffix += float(net.volumes[i - 1])
        upper = max(upper, left[i] * suffix)
    return lower, upper
