"""Minimax-energy linear program: a dual certificate and a checked LP solve.

The closed-form solvers claim to minimize the worst per-node energy.  This
module states that claim as a linear program over every directed arc, held as
its arc-cost matrix, with t bounding every node's energy.  Any dual-feasible point
bounds the optimum from below, so a bound equal to a feasible flow's worst
energy, with no violated arc, is a proof of optimality; :func:`check_dual`
judges a dual point that way.  :func:`certifier` builds the point in closed
form on the chain support and proves it on every arc, once per chain inside
the volume region: the point and its arc checks involve the costs alone, so
only the bound changes with the volumes.  The arc costs c_ij come from one
place, _arc_rows, a block of rows at a time, for :func:`formulate` and
:func:`certifier` alike.  On a regular chain they are the n + 1 costs D_k
of the chain's own costing, c_ij = D_{|i-j|}, so the certifier checks the
arcs in O(n) memory per block, with no LP matrix: through ``chainlife
verify``, a unit suite with cost s^2 peaks at 9.6 MB traced at n = 2000
(196 MB with the matrix), 12.8 MB in 0.22 s at n = 10^4 and 21 MB at
n = 30,000, where it runs in 0.45 s under a 3 GiB address-space cap
(2-core AMD EPYC, Python 3.11.7).  On a shifted chain each arc is costed
with the chain's cost function, n^2 calls.  :func:`certify` judges the
same point on an instance's matrix, bit for bit.

Outside the region there is no split to certify.  :func:`solve` hands the LP
to HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018), shipped with scipy,
and returns its optimum only once the flow, its worst energy and HiGHS's own
duals pass the same checks.  It uses HiGHS's interior-point solver (Schork
and Gondzio, Math. Prog. Comp. 12, 2020) with crossover to a vertex: where
one node's arc costs span five orders of magnitude, the dual simplex's flow
can miss its own optimum by a relative 1e-7, and the check refuses it.
HiGHS takes the O(n^2) matrix of :func:`formulate`, so only the rows
outside the region build one (6.7 GiB per dense n x n array at n = 30,000).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cost import cost_function
from .cost import transmission_cost  # noqa: F401  bench/spans.py traces it by this name
from .errors import NumericalStall
from .validate import FlowMatrix, check_conservation

if TYPE_CHECKING:
    from typing import Callable, Sequence

    import numpy as np

DEFAULT_VERIFY_TOL = 1e-7
# bytes of one block of arc slacks; the arc check holds about two blocks at once
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class LpInstance:
    """The LP of one chain: volumes, and costs[i, j] on each arc of ``arcs(len(volumes))``."""

    volumes: tuple[float, ...]
    costs: np.ndarray


def arcs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of every arc (i, j), i in 1..n, j in 0..n, j != i, row by row."""
    import numpy as np

    tails, heads = np.nonzero(~np.eye(n + 1, dtype=bool)[1:])
    return tails + 1, heads


@dataclass(frozen=True)
class LpSolution:
    value: float
    flow: FlowMatrix
    iterations: int


@dataclass(frozen=True)
class Certificate:
    """A dual point of the LP, judged on every admissible arc.

    ``bound`` is its dual objective, a lower bound on the LP optimum when
    ``slack`` (the largest dual constraint violation, found on ``arc``) is
    not positive.
    """

    bound: float
    slack: float
    arc: tuple[int, int]

    def proves(self, value: float) -> bool:
        """Whether slack <= DEFAULT_VERIFY_TOL and |value - bound| <= it times max(1, |value|)."""
        tol = DEFAULT_VERIFY_TOL
        return self.slack <= tol and abs(value - self.bound) <= tol * max(1.0, abs(value))


def formulate(net) -> LpInstance:
    """Build the LP of a chain: row 0 of zeros over the arc costs of _arc_rows."""
    import numpy as np

    costs = np.vstack((np.zeros(net.n + 1), _arc_rows(net)(1, net.n + 1)))
    return LpInstance(tuple(float(q) for q in net.volumes), costs)


def _arc_rows(net) -> Callable[[int, int], np.ndarray]:
    """The chain's arc costs as rows(lo, hi): c_ij for tails i = lo..hi-1 and heads j = 0..n.

    On a regular chain c_ij = D_{|i-j|}, read from the n + 1 costs of the
    chain's own costing (net.costs), and a block of rows is a strided view
    of them.  On a shifted chain each arc of the block is costed with the
    chain's cost_function, which is transmission_cost bit for bit.
    """
    import numpy as np

    if any(net.shifts):
        x, cost = net.positions().x, cost_function(net.series)
        return lambda lo, hi: np.array([[cost(x[i], xj) for xj in x] for i in range(lo, hi)])
    from numpy.lib.stride_tricks import as_strided

    n, d = net.n, np.array(net.costs[0])  # d[k] = C(k), the cost of distance k; d[0] = 0
    mirror = np.concatenate((d[:0:-1], d))  # mirror[n + k] = d[|k|] for k = -n..n
    stride = mirror.itemsize

    def rows(lo: int, hi: int) -> np.ndarray:
        # row i, d[|i - j|] over j = 0..n, is mirror[n - i:2n + 1 - i]: a view
        # of rows lo..hi-1 that starts one entry earlier on each row
        return as_strided(mirror[n - lo:], (hi - lo, n + 1), (-stride, stride), writeable=False)

    return rows


def certifier(net) -> Callable[[Sequence[float]], Certificate]:
    """The optimality certificate of a chain's equal-energy split, for any volumes.

    The dual of  min t  subject to conservation, node energy <= t and
    flows >= 0  is  max sum_i Q_i pi_i  over potentials pi (pi_0 = 0) and
    energy multipliers mu >= 0 with sum mu = 1, subject to
    pi_i - pi_j <= mu_i c_ij  on every admissible arc (i, j).  Complementary
    slackness on the chain-support arcs (i, 0) and (i, i-1) gives
    pi_i = mu_i D_i and pi_i - pi_{i-1} = mu_i L_i, with D_i = c_{i,0} and
    L_i = c_{i,i-1}, hence pi_i = pi_{i-1} D_i / (D_i - L_i) from pi_1 = D_1.
    The recursion runs on the potentials, which stay moderate where the
    multipliers mu_i = pi_i / D_i would underflow at large exponents.

    Neither the point nor its feasibility involves Q: only the objective
    does.  So the point, its scaling and its worst arc are found once per
    chain, and the returned function prices each volume vector's bound in
    O(n); this is the volume region U(Q^0) in dual form.  By weak duality
    (Chang and Tassiulas, IEEE/ACM ToN 12(4), 2004) the bound is at most the
    LP optimum when the worst slack is not positive, at any node positions,
    so a bound equal to a feasible flow's worst energy proves that flow
    optimal.  When some hop to the left neighbour costs at least the direct
    arc (a cost series that is not superadditive), no nonnegative multiplier
    exists: every certificate reports infinite slack on that hop and bound 0.

    D and L are the chain's own (net.costs), and the arcs are judged on
    _arc_rows(net) a block of rows at a time, with no LP matrix.  The
    certificate is :func:`certify`'s on ``formulate(net)``, bit for bit.
    """
    import numpy as np

    direct, left = net.costs
    return _certifier(np.array(direct[1:]), np.array(left[2:]), _arc_rows(net))


def certify(inst: LpInstance) -> Certificate:
    """The certificate of one instance: :func:`certifier`'s point, judged on its cost matrix."""
    costs = inst.costs
    prove = _certifier(costs[1:, 0], costs.diagonal(-1)[1:], lambda lo, hi: costs[lo:hi])
    return prove(inst.volumes)


def _certifier(
    direct: np.ndarray, hops: np.ndarray, rows: Callable[[int, int], np.ndarray]
) -> Callable[[Sequence[float]], Certificate]:
    """certifier's point from D_1..D_n and L_2..L_n, judged on the arc costs ``rows`` gives."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        growth = direct[1:] / (direct[1:] - hops)
        pi = np.concatenate(([0.0], direct[0] * np.cumprod(np.concatenate(([1.0], growth)))))
        mu = np.concatenate(([0.0, 1.0], pi[2:] / direct[1:]))
    broken = np.flatnonzero(~(np.isfinite(pi) & np.isfinite(mu) & (mu >= 0.0)))
    if broken.size:
        i = int(broken[0])
        refuted = Certificate(0.0, math.inf, (i, i - 1))
        return lambda volumes: refuted
    potentials, slack, arc = _judge(rows, pi, mu)
    return lambda volumes: Certificate(float(np.dot(volumes, potentials)), slack, arc)


def _judge(
    rows: Callable[[int, int], np.ndarray], pi: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, float, tuple[int, int]]:
    """The scaled potentials of nodes 1..n, the worst arc slack and its arc; see check_dual.

    rows(lo, hi) holds the costs c_ij of the tails i = lo..hi-1, one row per
    tail and a column per head j = 0..n.  The slacks are judged one block of
    rows at a time, of at most _BLOCK_BYTES, and the blocks merged as one
    argmax over every row would: the first NaN, else the first largest slack
    in row-major order.
    """
    import numpy as np

    total = mu.sum()
    pi = pi / total
    mu = mu / total
    n = pi.size - 1
    step = max(1, _BLOCK_BYTES // (8 * (n + 1)))
    worst, arc = -math.inf, (1, 0)  # argmax's pick where every slack is -inf
    for lo in range(1, n + 1, step):
        hi = min(lo + step, n + 1)
        slack = pi[lo:hi, None] - pi
        slack -= mu[lo:hi, None] * rows(lo, hi)
        np.fill_diagonal(slack[:, lo:], -math.inf)  # no arc (i, i)
        i, j = np.unravel_index(np.argmax(slack), slack.shape)
        value = float(slack[i, j])
        if math.isnan(value):
            return pi[1:], value, (lo + int(i), int(j))
        if value > worst:  # a tie keeps the earlier block's arc
            worst, arc = value, (lo + int(i), int(j))
    return pi[1:], worst, arc


def check_dual(inst: LpInstance, pi: np.ndarray, mu: np.ndarray) -> Certificate:
    """Judge a dual point of the LP on every admissible arc.

    ``pi`` holds the node potentials and ``mu`` the nonnegative energy
    multipliers, both indexed by node with 0 for the collector.  The point
    is first scaled so that sum mu = 1, the dual constraint of the free
    epigraph variable t.  The bound is sum_i Q_i pi_i, and the slack of arc
    (i, j) is pi_i - pi_j - mu_i c_ij, judged on the cost matrix with its diagonal
    (no arc) at -inf; the certificate reports the first worst arc, row by row.
    """
    import numpy as np

    potentials, slack, arc = _judge(lambda lo, hi: inst.costs[lo:hi], pi, mu)
    return Certificate(float(np.dot(inst.volumes, potentials)), slack, arc)


def solve(inst: LpInstance) -> LpSolution:
    """Minimize the worst node energy with HiGHS; returns the optimum, flow and iterations.

    The optimum is returned only when three checks pass within
    DEFAULT_VERIFY_TOL: the flow conserves every node's data and is
    nonnegative (relative to the largest volume), its worst node energy
    equals the optimum, and HiGHS's duals, judged by :func:`check_dual`,
    violate no arc and bound the optimum from below with no gap (relative
    to the optimum).  Anything else, a solver status other than optimal
    included, raises NumericalStall.  scipy is imported here, so a run that
    never meets this LP does not load it.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    n, tol = len(inst.volumes), DEFAULT_VERIFY_TOL
    tails, heads = arcs(n)
    m = tails.size
    arc_costs = inst.costs[tails, heads]
    # columns: one flow per arc, then t; rows: conservation, then energy - t <= 0.
    # Sparse, because dense rows over all n^2 arcs would hold n^3 entries.
    col = np.arange(m)
    inner = heads >= 1
    a_eq = coo_array(
        (np.r_[np.ones(m), -np.ones(inner.sum())],
         (np.r_[tails, heads[inner]] - 1, np.r_[col, col[inner]])),
        shape=(n, m + 1),
    )
    a_ub = coo_array(
        (np.r_[arc_costs, -np.ones(n)], (np.r_[tails - 1, np.arange(n)], np.r_[col, [m] * n])),
        shape=(n, m + 1),
    )
    c = np.zeros(m + 1)
    c[m] = 1.0
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=inst.volumes,
        bounds=[(0, None)] * m + [(None, None)],
        method="highs-ipm",
    )
    if result.status != 0:
        raise NumericalStall(f"HiGHS found no LP optimum: {result.message}")
    value = float(result.fun)
    x = result.x[:m]
    sent = np.flatnonzero(x > 0.0)
    flow = FlowMatrix(n, {(int(tails[k]), int(heads[k])): float(x[k]) for k in sent})
    residual = float(np.max(np.abs(check_conservation(flow, inst.volumes))))
    lowest = float(np.min(x))
    volume_scale = max(1.0, max(inst.volumes))
    if not (residual <= tol * volume_scale and lowest >= -tol * volume_scale):
        raise NumericalStall(
            f"the LP flow is infeasible: conservation residual {residual:.6g}, "
            f"lowest entry {lowest:.6g}"
        )
    scale = max(1.0, abs(value))
    worst = float(np.max(np.bincount(tails - 1, np.maximum(x, 0.0) * arc_costs, n)))
    if not abs(worst - value) <= tol * scale:
        raise NumericalStall(
            f"the LP flow's worst node energy {worst:.12g} is not its optimum {value:.12g}"
        )
    # HiGHS's marginals are +pi on conservation rows and -mu on energy rows;
    # clipping mu at 0 can only raise the arc slacks
    pi = np.concatenate(([0.0], result.eqlin.marginals))
    mu = np.concatenate(([0.0], np.maximum(-result.ineqlin.marginals, 0.0)))
    cert = check_dual(inst, pi, mu)
    if not cert.proves(value):
        raise NumericalStall(
            f"the LP duals do not prove the optimum {value:.12g}: arc {cert.arc} has "
            f"dual slack {cert.slack:.6g}, bound {cert.bound:.12g}"
        )
    return LpSolution(value, flow, int(result.nit))
