"""Minimax-energy linear program: a dual certificate and a checked LP solve.

The closed-form solvers claim to minimize the worst per-node energy.  This
module states that claim as a plain linear program over all directed flows
(epigraph variable t bounding every node's energy).  Any dual-feasible point
bounds the optimum from below, so a bound equal to a feasible flow's worst
energy, with no violated arc, is a proof of optimality; :func:`check_dual`
judges a dual point that way.  :func:`certify` builds the point in closed
form on the chain support, an O(n^2) proof that ``chainlife verify`` runs
inside the volume region.

Outside the region there is no split to certify.  :func:`solve` hands the LP
to HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018), shipped with scipy,
and returns its optimum only once the flow, its worst energy and HiGHS's own
duals pass the same checks.  It uses HiGHS's interior-point solver (Schork
and Gondzio, Math. Prog. Comp. 12, 2020) with crossover to a vertex: where
one node's arc costs span five orders of magnitude, the dual simplex's flow
can miss its own optimum by a relative 1e-7, and the check refuses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost import transmission_cost
from .errors import NumericalStall
from .validate import FlowMatrix, check_conservation

DEFAULT_VERIFY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class LpInstance:
    """One minimax routing problem: volumes, admissible arcs, and arc costs."""

    n: int
    volumes: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]
    costs: np.ndarray


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


def chain_support_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Restricted arc set: direct to collector plus the left-neighbour hop."""
    pairs = [(i, 0) for i in range(1, n + 1)]
    pairs += [(i, i - 1) for i in range(2, n + 1)]
    return tuple(sorted(pairs))


def formulate(net, pairs: Sequence[tuple[int, int]] | None = None) -> LpInstance:
    """Build the LP for a chain.

    ``pairs`` restricts the admissible arcs (direct-to-collector arcs are
    always required so the problem stays feasible).  Each distinct distance
    is costed once; a regular chain has n of them.
    """
    n = net.n
    x = net.positions().x
    costs = np.zeros((n + 1, n + 1))
    by_distance: dict[float, float] = {}
    for i in range(1, n + 1):
        for j in range(0, n + 1):
            if i != j:
                s = abs(x[i] - x[j])
                if s not in by_distance:
                    by_distance[s] = transmission_cost(net.series, x[i], x[j])
                costs[i, j] = by_distance[s]
    if pairs is None:
        chosen = [(i, j) for i in range(1, n + 1) for j in range(0, n + 1) if j != i]
    else:
        chosen = [(int(i), int(j)) for i, j in pairs]
        for i, j in chosen:
            if not (1 <= i <= n) or not (0 <= j <= n) or i == j:
                raise ValueError(f"arc ({i},{j}) outside the network")
        if len(set(chosen)) != len(chosen):
            raise ValueError("duplicate arcs in the restriction")
        missing = [i for i in range(1, n + 1) if (i, 0) not in chosen]
        if missing:
            raise ValueError(f"direct arcs to the collector missing for nodes {missing}")
    return LpInstance(n, tuple(float(q) for q in net.volumes), tuple(chosen), costs)


def certify(inst: LpInstance) -> Certificate:
    """Optimality certificate for the equal-energy split, from LP duality.

    The dual of  min t  subject to conservation, node energy <= t and
    flows >= 0  is  max sum_i Q_i pi_i  over potentials pi (pi_0 = 0) and
    energy multipliers mu >= 0 with sum mu = 1, subject to
    pi_i - pi_j <= mu_i c_ij  on every admissible arc (i, j).  Complementary
    slackness on the chain-support arcs (i, 0) and (i, i-1) gives
    pi_i = mu_i D_i and pi_i - pi_{i-1} = mu_i L_i, with D_i = c_{i,0} and
    L_i = c_{i,i-1}, hence pi_i = pi_{i-1} D_i / (D_i - L_i) from pi_1 = D_1.
    The recursion runs on the potentials, which stay moderate where the
    multipliers mu_i = pi_i / D_i would underflow at large exponents.

    By weak duality (Chang and Tassiulas, IEEE/ACM ToN 12(4), 2004) the
    bound is at most the LP optimum when the worst slack is not positive,
    so a bound equal to a feasible flow's worst energy proves that flow
    optimal.  When some hop to the left neighbour costs at least the direct
    arc (a cost series that is not superadditive), no nonnegative multiplier
    exists: the certificate reports infinite slack on that hop and bound 0.
    """
    n, costs = inst.n, inst.costs
    direct = costs[1:, 0]
    hop = np.arange(2, n + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        growth = direct[1:] / (direct[1:] - costs[hop, hop - 1])
        pi = np.concatenate(([0.0], direct[0] * np.cumprod(np.concatenate(([1.0], growth)))))
        mu = np.concatenate(([0.0, 1.0], pi[2:] / direct[1:]))
    broken = np.flatnonzero(~(np.isfinite(pi) & np.isfinite(mu) & (mu >= 0.0)))
    if broken.size:
        i = int(broken[0])
        return Certificate(0.0, math.inf, (i, i - 1))
    return check_dual(inst, pi, mu)


def check_dual(inst: LpInstance, pi: np.ndarray, mu: np.ndarray) -> Certificate:
    """Judge a dual point of the LP on every admissible arc.

    ``pi`` holds the node potentials and ``mu`` the nonnegative energy
    multipliers, both indexed by node with 0 for the collector.  The point
    is first scaled so that sum mu = 1, the dual constraint of the free
    epigraph variable t.  The bound is sum_i Q_i pi_i, and the slack of arc
    (i, j) is pi_i - pi_j - mu_i c_ij; the certificate reports the worst.
    """
    total = mu.sum()
    pi = pi / total
    mu = mu / total
    tails, heads = np.array(inst.pairs).T
    slack = pi[tails] - pi[heads] - mu[tails] * inst.costs[tails, heads]
    worst = int(np.argmax(slack))
    bound = float(np.dot(inst.volumes, pi[1:]))
    return Certificate(bound, float(slack[worst]), inst.pairs[worst])


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
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    n, arcs, tol = inst.n, len(inst.pairs), DEFAULT_VERIFY_TOL
    tails, heads = np.array(inst.pairs).T
    arc_costs = inst.costs[tails, heads]
    # columns: one flow per arc, then t; rows: conservation, then energy - t <= 0.
    # Sparse, because dense rows over all n^2 arcs would hold n^3 entries.
    col = np.arange(arcs)
    inner = heads >= 1
    a_eq = coo_array(
        (np.r_[np.ones(arcs), -np.ones(inner.sum())],
         (np.r_[tails, heads[inner]] - 1, np.r_[col, col[inner]])),
        shape=(n, arcs + 1),
    )
    a_ub = coo_array(
        (np.r_[arc_costs, -np.ones(n)], (np.r_[tails - 1, np.arange(n)], np.r_[col, [arcs] * n])),
        shape=(n, arcs + 1),
    )
    c = np.zeros(arcs + 1)
    c[arcs] = 1.0
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=inst.volumes,
        bounds=[(0, None)] * arcs + [(None, None)],
        method="highs-ipm",
    )
    if result.status != 0:
        raise NumericalStall(f"HiGHS found no LP optimum: {result.message}")
    value = float(result.fun)
    x = result.x[:arcs]
    flow = FlowMatrix(n, {pair: float(v) for pair, v in zip(inst.pairs, x) if v > 0.0})
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
    if not (cert.slack <= tol and abs(cert.bound - value) <= tol * scale):
        raise NumericalStall(
            f"the LP duals do not prove the optimum {value:.12g}: arc {cert.arc} has "
            f"dual slack {cert.slack:.6g}, bound {cert.bound:.12g}"
        )
    return LpSolution(value, flow, int(result.nit))
