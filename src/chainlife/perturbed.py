"""The sensor chain: node positions, the equal-energy solve, and shift stability.

Node i sits at x_i = i - d_i with d_i in (-1, 1); a positive shift moves the
node toward the collector, and the regular, unit-spaced chain is d = 0.  The
equal-energy flow solves the conservation and pairwise energy-equality
balance equations in one linear-time walk along the chain; the dense system
of those rows is assembled only as a test reference.  The walk works on
flat lists, the costs D_i and L_i indexed by node and the flows it returns
(see _equal_energy_flows), and costs a chain through one cost_function
built per chain; a FlowMatrix is built only for a returned solution.  The
stability question is how far a single node may move before that flow
stops being feasible, and hence stops solving the minimax energy problem.
A chain costs itself and sums each relay walk, outward from the collector
and back from the far end, once on first use (PerturbedNetwork.costs,
.forward_sums and .backward_sums), for every pass to read: the solve
reads the outward sums alone.  A move of one node changes only the three
costs it touches, so a stability probe is O(1) once the two walks have
summed up the rest of the chain; a sweep costs the chain once into lists
of its own and reruns only the outward walk (_forward_sums) and the
solve per grid point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from .cost import CostSeries, Positions, cost_function
from .cost import transmission_cost  # noqa: F401  bench/spans.py traces it by this name
from .errors import ChainlifeError, IndexOutOfRange, NegativeFlow, SingularMatrix
from .validate import EQUAL_ENERGY_TOL, FLOW_ZERO_TOL, FlowMatrix, is_equal_energy

if TYPE_CHECKING:
    import numpy as np

BISECTION_TOL = 1e-10
BRACKET_MARGIN = 1e-6
_SINGULAR_HOP = "a zero or infinite hop cost makes the system singular"

# a chain's costing as _costs returns it: D_i and L_i by node
Costs = tuple[list[float], list[float]]


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

    @cached_property
    def costs(self) -> Costs:
        """The chain's costing, _costs(self), computed on first use; its readers write nothing."""
        return _costs(self)

    @cached_property
    def forward_sums(self) -> tuple[list[float], list[float]]:
        """The outward relay sums a and b of the chain's costing; see _forward_sums."""
        return _forward_sums(self.volumes, *self.costs)

    @cached_property
    def backward_sums(self) -> tuple[list[float], list[float], list[float]]:
        """The relay q_{k+1,k} as c[k] + e[k] E walking back from the far end, and s[k].

        With s_k = 1 - L_k / D_k, the walk from the far end's zero relay
        gives c_{k-1} = (c_k + Q_k) / s_k and e_{k-1} = (e_k - 1 / D_k) / s_k
        for k = n..2; c and e are zero from n on and s[k] is zero for k < 2.
        A zero division, from a zero hop cost or from s_k = 0, raises
        SingularMatrix.
        """
        (direct, left), volumes, n = self.costs, self.volumes, self.n
        c, e, s = [0.0] * (n + 2), [0.0] * (n + 2), [0.0] * (n + 1)
        try:
            for k in range(n, 1, -1):
                s[k] = shrink = 1.0 - left[k] / direct[k]
                c[k - 1] = (c[k] + float(volumes[k - 1])) / shrink
                e[k - 1] = (e[k] - 1.0 / direct[k]) / shrink
        except ZeroDivisionError:
            raise SingularMatrix(_SINGULAR_HOP) from None
        return c, e, s

    def with_volumes(self, volumes: tuple[float, ...]) -> PerturbedNetwork:
        """This chain with other volumes, sharing its costing, which no volume enters."""
        net = PerturbedNetwork(self.n, self.shifts, volumes, self.series)
        net.__dict__["costs"] = self.costs  # where cached_property keeps its value
        return net


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


def _costs(net: PerturbedNetwork) -> Costs:
    """Node i's costs to the collector, direct[i], and to node i - 1, left[i].

    Index 0 is unused.  A gap x_i - x_{i-1} equal to the one before reuses
    its cost, so a regular chain pays n + 1 cost evaluations.
    """
    x = net.positions().x
    cost = cost_function(net.series)
    direct = [0.0] * (net.n + 1)
    left = [0.0] * (net.n + 1)
    gap = hop = None
    for i in range(1, net.n + 1):
        direct[i] = cost(x[i], 0.0)
        if x[i] - x[i - 1] != gap:
            gap = x[i] - x[i - 1]
            hop = cost(x[i], x[i - 1])
        left[i] = hop
    return direct, left


def _forward_sums(
    volumes: Sequence[float], direct: Sequence[float], left: Sequence[float]
) -> tuple[list[float], list[float]]:
    """The relay q_{k+1,k} as a[k] + b[k] E walking outward over nodes 1..k, for k = 0..n.

    With s_k = 1 - L_k / D_k, a_k = a_{k-1} s_k - Q_k and
    b_k = b_{k-1} s_k + 1 / D_k from a_0 = b_0 = 0.  A zero division, from
    a zero hop cost, raises SingularMatrix.
    """
    n = len(volumes)
    a, b = [0.0] * (n + 1), [0.0] * (n + 1)
    try:
        for k in range(1, n + 1):
            shrink = 1.0 - left[k] / direct[k]
            a[k] = a[k - 1] * shrink - float(volumes[k - 1])
            b[k] = b[k - 1] * shrink + 1.0 / direct[k]
    except ZeroDivisionError:
        raise SingularMatrix(_SINGULAR_HOP) from None
    return a, b


def _equal_energy_flows(
    volumes: Sequence[float],
    direct: Sequence[float],
    left: Sequence[float],
    forward: tuple[list[float], list[float]],
) -> tuple[list[float], list[float], float]:
    """Signed equal-energy flows on the chain support and their common energy E.

    direct[i] and left[i] are node i's costs to reach the collector and node
    i - 1 (index 0 unused), and ``forward`` their outward relay sums a, b
    (see _forward_sums).  These reach the far end, where
    q_{n+1,n} = a_n + b_n E = 0 fixes E, and a second walk evaluates the
    direct flows at that E.  Returns sent, relays and E:
    sent[i] = q_{i,0} for i = 1..n and relays[i] = q_{i,i-1} for i = 2..n,
    the lower indices unused and zero.  Entries may be negative outside the
    feasible region.  The walk's order, direct flows 1..n and then relays
    n..2 (see _walk_order), decides which of tied flows is named.
    """
    n = len(volumes)
    a, b = forward
    energy = -a[n] / b[n]  # b_n >= 1 / D_n > 0, or NaN, for a nonnegative cost
    sent = _direct_flows(volumes, direct, left, energy)
    # the relays again, summed from the far end where they are small, so
    # that each keeps its relative precision; node 1 sends on all it holds
    relays = [0.0] * (n + 1)
    relay = 0.0
    for i in range(n, 1, -1):
        relay += float(volumes[i - 1]) - sent[i]
        relays[i] = relay
    sent[1] = float(volumes[0]) + relay
    return sent, relays, energy


def _direct_flows(
    volumes: Sequence[float], direct: Sequence[float], left: Sequence[float], energy: float
) -> list[float]:
    """sent[i] = q_{i,0} = (E - q_{i,i-1} L_i) / D_i for i = 1..n at common energy E.

    One walk outward from node 1, summing the relay q_{i,i-1} as it goes;
    index 0 is unused and zero.
    """
    sent = [0.0] * (len(volumes) + 1)
    relay = 0.0
    for i in range(1, len(volumes) + 1):
        sent[i] = flow = (energy - relay * left[i]) / direct[i]
        relay += flow - float(volumes[i - 1])
    return sent


def _walk_order(sent: list[float], relays: list[float]) -> list[float]:
    """A walk's flows in its order: q_{1,0}, ..., q_{n,0}, then q_{n,n-1}, ..., q_{2,1}."""
    return sent[1:] + relays[:1:-1]


def _walk_key(k: int, n: int) -> tuple[int, int]:
    """The (sender, receiver) of entry k of _walk_order on an n-node chain."""
    return (k + 1, 0) if k < n else (2 * n - k, 2 * n - k - 1)


def _checked_energies(
    sent: list[float], relays: list[float], direct: Sequence[float], left: Sequence[float]
) -> list[float]:
    """Node energies of a walk's flows; SingularMatrix when they disagree or are not finite."""
    energies = [sent[1] * direct[1] + 0.0]  # node 1 has no relay term; + 0.0 as for the others
    energies += [
        q * d + r * h for q, d, r, h in zip(sent[2:], direct[2:], relays[2:], left[2:])
    ]
    if not is_equal_energy(energies, EQUAL_ENERGY_TOL):
        spread = max(energies) - min(energies)
        raise SingularMatrix(f"energy spread {spread:.3e} after solve")
    return energies


def _equal_energy_solution(
    sent: list[float],
    relays: list[float],
    common: float,
    direct: Sequence[float],
    left: Sequence[float],
    check_flows: bool = True,
) -> EqualEnergySolution:
    """Node energies and the flow, after the energy-spread and negative-flow checks.

    SingularMatrix signals node energies that disagree or are not finite;
    NegativeFlow, raised only with ``check_flows``, names the most negative
    component, the first in the walk's order among ties.
    """
    energies = _checked_energies(sent, relays, direct, left)
    if check_flows:
        flows = _walk_order(sent, relays)
        lowest = min(flows)
        if lowest < -FLOW_ZERO_TOL:
            raise NegativeFlow(_walk_key(flows.index(lowest), len(sent) - 1), lowest)
    return EqualEnergySolution(FlowMatrix._of_chain(sent, relays), tuple(energies), common)


def assemble_system(net: PerturbedNetwork) -> SystemMatrix:
    """Conservation rows plus energy-equality rows for the 2N-1 unknown flows."""
    import numpy as np

    n = net.n
    direct, left = net.costs
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
    import numpy as np

    return float(np.linalg.det(assemble_system(net).m))


def solve_equal_energy(net: PerturbedNetwork, check_flows: bool = True) -> EqualEnergySolution:
    """Solve the balance equations and package the equal-energy flow.

    The one solve for every chain, regular or shifted: the chain's costing
    and outward relay sums (net.costs, net.forward_sums), the linear-time
    walk, then the energy-spread check.  A zero or infinite hop cost, or
    node energies that disagree after the walk, raise SingularMatrix.  Outside the stability region the system still
    has a unique solution but some component is negative and the flow no
    longer solves the minimax problem.  With ``check_flows`` set (the
    default) that situation raises NegativeFlow; disabling the check
    returns the signed solution for boundary exploration.
    """
    direct, left = net.costs
    sent, relays, energy = _equal_energy_flows(net.volumes, direct, left, net.forward_sums)
    return _equal_energy_solution(sent, relays, energy, direct, left, check_flows)


def node_energy_sn(net: PerturbedNetwork) -> float:
    """Common energy as a cost-product sum divided by the system determinant.

    The whole bracket, including the farthest node's term, is divided by
    det M; the regression suite pins this grouping against solve_equal_energy.
    """
    direct, left = net.costs
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


def _move_node(
    cost: Callable[[float, float], float], x: Sequence[float], i: int, d: float
) -> tuple[float, float, float | None]:
    """D_i, L_i and L_{i+1} of chain x with node i moved to i - d.

    ``cost`` is the chain's cost_function; L_{i+1} is None for the last
    node.  The coordinate is built as Positions.from_shifts builds it, so
    each cost equals, bit for bit, the one the moved chain's own costing
    computes.
    """
    xi = i - d
    return cost(xi, 0.0), cost(xi, x[i - 1]), None if i + 1 == len(x) else cost(x[i + 1], xi)


_OPEN = (-math.inf, math.inf)


def _narrow(window: tuple[float, float], *terms: tuple[float, float]) -> tuple[float, float]:
    """The window on E with alpha + beta E > 0 added for each (alpha, beta) term.

    beta > 0 raises lo to -alpha / beta, beta < 0 lowers hi to it, and
    beta = 0 with alpha <= 0 sets lo to +inf: no E makes that term positive.
    max keeps lo over a NaN root, so lo is never NaN and stays +inf once set.
    """
    lo, hi = window
    for al, be in terms:
        if be > 0.0:
            lo = max(lo, -al / be)
        elif be < 0.0:
            hi = min(hi, -al / be)
        elif be == 0.0 and not al > 0.0:
            lo = math.inf
    return lo, hi


def _shift_probes(
    net: PerturbedNetwork, first: int, last: int, cost: Callable[[float, float], float]
) -> Callable[[int], Callable[[float], bool]]:
    """probe(i): an O(1) test of whether the walk's flows stay positive with node i shifted by d.

    ``net`` is the unshifted chain, whose relay sums at d = 0
    (net.forward_sums and net.backward_sums) bound windows on E, built once
    for nodes first..last: head[k], for k < ``last``, is the open window
    (lo, hi) inside which every flow component that the forward walk over
    nodes 1..k fixes is positive (empty, with lo = +inf, if no E makes one
    positive); tail[k], for k > ``first``, is the window of the components
    fixed on nodes k..n by the backward walk.  Entries past n are open
    windows; each node adds to them its direct flow and the relay it
    leaves.  So a one-node set-up builds that node's windows and no more.

    A move of node i changes only D_i, L_i and L_{i+1}.  The relay
    q_{i,i-1} = a + b E comes from the forward walk over nodes 1..i-1, and
    q_{i+2,i+1} = c + e E from the backward walk over nodes n..i+2.  Every
    flow component but q_{i,0}, q_{i+1,0} and q_{i+1,i} is therefore affine
    in E with fixed coefficients, and their positivity is one open window
    lo < E < hi, the head window before node i met with the tail window
    after node i + 1.  probe(i) returns feasible(d), which costs node i
    moved to i - d with _move_node on the cost function ``cost``, solves
    for E and checks the window and the three remaining components; a zero
    division, or a moved cost beyond the float range, fails it.
    """
    n, volumes, x = net.n, net.volumes, net.positions().x
    direct, left = net.costs
    a, b = net.forward_sums
    c, e, _ = net.backward_sums
    head, tail = [_OPEN] * last, [_OPEN] * (n + 3)
    for k in range(1, last):
        flow = (-a[k - 1] * left[k] / direct[k], (1.0 - b[k - 1] * left[k]) / direct[k])
        head[k] = _narrow(head[k - 1], flow, (a[k], b[k]))
    for k in range(n, first + 1, -1):
        flow = (-c[k - 1] * left[k] / direct[k], (1.0 - e[k - 1] * left[k]) / direct[k])
        tail[k] = _narrow(tail[k + 1], flow, (c[k - 1], e[k - 1]))

    def probe(i: int) -> Callable[[float], bool]:
        a_i, b_i, c_i, e_i = a[i - 1], b[i - 1], c[i + 1], e[i + 1]
        (head_lo, head_hi), (tail_lo, tail_hi) = head[i - 1], tail[i + 2]
        lo, hi = max(head_lo, tail_lo), min(head_hi, tail_hi)
        volume = float(volumes[i - 1])
        if i < n:
            next_volume, next_direct = float(volumes[i]), direct[i + 1]

        def feasible(d: float) -> bool:
            try:
                d_i, l_i, l_next = _move_node(cost, x, i, d)
                shrink = 1.0 - l_i / d_i
                ra = a_i * shrink - volume  # r_i = q_{i+1,i} = ra + rb E
                rb = b_i * shrink + 1.0 / d_i
                if i == n:
                    energy = -ra / rb
                else:
                    s_next = 1.0 - l_next / next_direct
                    energy = (c_i + next_volume - s_next * ra) / (
                        s_next * rb + 1.0 / next_direct - e_i
                    )
                if not (lo < energy < hi and (energy - (a_i + b_i * energy) * l_i) / d_i > 0.0):
                    return False
                if i == n:
                    return True
                relay = ra + rb * energy
                return relay > 0.0 and (energy - relay * l_next) / next_direct > 0.0
            except (ZeroDivisionError, ChainlifeError):
                return False

        return feasible

    return probe


def _bisect(feasible: Callable[[float], bool], end: float) -> tuple[float, float | None]:
    """The last feasible probe on [0, end] and the final bracket's midpoint.

    The midpoint is None when ``end`` itself is feasible.  The probes halve
    the bracket from 0 until it is no wider than BISECTION_TOL.
    """
    if feasible(end):
        return end, None
    good, bad = 0.0, end
    while abs(bad - good) > BISECTION_TOL:
        mid = 0.5 * (good + bad)
        if feasible(mid):
            good = mid
        else:
            bad = mid
    return good, 0.5 * (good + bad)


def numeric_d_intervals(net: PerturbedNetwork, nodes: Sequence[int]) -> list[StabilityInterval]:
    """Shift interval of each node in ``nodes`` inside which every solved flow stays positive.

    For each node all other shifts must be zero; the interval is located by
    bisection on the sign of the smallest flow component of the solved
    system, to BISECTION_TOL in d.  When no component changes sign before
    the bracket end the boundary is the geometric limit -1 or 1.  Every node
    is checked before any is solved.

    The set-up is shared by all nodes: the unshifted chain is costed once,
    walked once at d = 0, where NegativeFlow names the most negative
    component, and summed once from each end (its forward_sums and
    backward_sums; see _shift_probes).  A probe at shift d then recomputes
    only D_i, L_i and L_{i+1}, the costs node i's move touches, in O(1),
    and changes no list of the set-up.  The
    probe alone decides every shift: the d = 0 walk, with its energy-spread
    check, is the only walk, so all nodes cost O(n) plus O(1) per probe.
    """
    shifted = [k for k, d in enumerate(net.shifts, start=1) if d != 0.0]
    for i in nodes:
        if not 1 <= i <= net.n:
            raise IndexOutOfRange(f"node {i} outside [1, {net.n}]")
        for k in shifted:
            if k != i:
                raise ValueError(f"template shift d_{k} = {net.shifts[k - 1]} must be zero")
    if not nodes:
        return []
    # every probe replaces node i's own shift, so the set-up is the unshifted chain's
    template = PerturbedNetwork(net.n, (0.0,) * net.n, net.volumes, net.series)
    direct, left = template.costs
    try:
        sent, relays, _ = _equal_energy_flows(net.volumes, direct, left, template.forward_sums)
        _checked_energies(sent, relays, direct, left)
    except SingularMatrix:  # an ill-conditioned walk counts as infeasible
        raise NegativeFlow((nodes[0], 0), -math.inf, "solved flow not positive at d = 0") from None
    # signed: FlowMatrix's clamp of [-1e-9, 0) to 0 cannot change a > 0 test
    flows = _walk_order(sent, relays)
    lowest = min(flows)
    if not lowest > 0.0:
        worst = _walk_key(flows.index(lowest), net.n)
        raise NegativeFlow(worst, lowest, "solved flow not positive at d = 0")
    probes = _shift_probes(template, min(nodes), max(nodes), cost_function(net.series))
    intervals = []
    for i in nodes:
        feasible = probes(i)
        lo = _bisect(feasible, -1.0 + BRACKET_MARGIN)[1]
        hi = _bisect(feasible, 1.0 - BRACKET_MARGIN)[1]
        intervals.append(StabilityInterval(-1.0 if lo is None else lo, 1.0 if hi is None else hi))
    return intervals


def numeric_d_interval(net: PerturbedNetwork, i: int) -> StabilityInterval:
    """Shift interval of node i alone; see numeric_d_intervals."""
    return numeric_d_intervals(net, [i])[0]


def sweep(
    net: PerturbedNetwork, kind: str, index: int, grid: Sequence[float]
) -> list[tuple[float, float | None, float]]:
    """(value, common energy, smallest flow) with Q_index or d_index set to each value.

    ``kind`` is "Q" or "d" and index is a node in 1..n.  The chain is costed
    once, into lists of the sweep's own that it writes, not net.costs: a
    volume point reruns only the outward relay sums and the walk, and a
    shift point recosts D_index, L_index and L_index+1 first.  Each point
    runs the energy-spread check and reads its smallest flow after
    FlowMatrix's clamp, the first of tied flows in the walk's order, so
    that a zero keeps its sign (see _clamped_min); no FlowMatrix is built.  The energy is None where that
    flow is below -FLOW_ZERO_TOL.  A volume that is not positive, a shift
    outside (-1, 1) or one that moves the node past a neighbour raise
    ValueError; node energies that disagree raise SingularMatrix.
    """
    if kind == "Q" and any(v <= 0 for v in grid):
        raise ValueError("volume grid values must be positive")
    if kind == "d" and any(abs(v) >= 1 for v in grid):
        raise ValueError("shift grid values must stay inside (-1, 1)")
    direct, left = _costs(net)
    x, cost = net.positions().x, cost_function(net.series)
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
            direct[index], left[index], hop = _move_node(cost, x, index, value)
            if hop is not None:
                left[index + 1] = hop
        forward = _forward_sums(volumes, direct, left)
        sent, relays, energy = _equal_energy_flows(volumes, direct, left, forward)
        _checked_energies(sent, relays, direct, left)
        min_flow = _clamped_min(_walk_order(sent, relays))
        rows.append((value, energy if min_flow >= -FLOW_ZERO_TOL else None, min_flow))
    return rows


def _clamped_min(flows: list[float]) -> float:
    """min of the flows after FlowMatrix's clamp of [-FLOW_ZERO_TOL, 0) to 0.0.

    The clamp keeps the order, so only a zero minimum needs the clamped
    flows: it is the first flow in [-FLOW_ZERO_TOL, 0], itself if a signed
    zero and 0.0 otherwise.
    """
    lowest = min(flows)
    if not -FLOW_ZERO_TOL <= lowest <= 0.0:
        return lowest
    first = next(q for q in flows if -FLOW_ZERO_TOL <= q <= 0.0)
    return first if first == 0.0 else 0.0


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
    sent, relays = [0.0] * (n + 1), [0.0] * (n + 1)
    sent[1] = total / (n * x[1])
    prefix = 0.0
    for i in range(2, n + 1):
        prefix += weighted[i - 2]
        sent[i] = (
            n * (x[i] - x[i - 1]) * prefix + (i * x[i - 1] - (i - 1) * x[i]) * total
        ) / (n * x[i] * x[i - 1])
        suffix = total - prefix
        relays[i] = ((i - 1) * suffix - (n - i + 1) * prefix) / (n * x[i - 1])
    left = [0.0] + [x[i] - x[i - 1] for i in range(1, n + 1)]
    return _equal_energy_solution(sent, relays, total / n, list(x), left)


def energy_bounds_perturbed(net: PerturbedNetwork) -> tuple[float, float]:
    """Interval [lower, upper) that must contain the common energy.

    The lower end charges every volume the chain of hop costs it crosses,
    averaged over the nodes; the upper end is the worst single-hop relay load.
    On a regular chain every hop costs 1, so the interval is the per-node
    share of the hop-count workload up to the total volume, the relay load
    of node 1; the lower end is attained for exponent-1 cost.
    """
    _, left = net.costs
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
