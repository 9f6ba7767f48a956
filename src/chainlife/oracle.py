"""Minimax-energy linear program: a dual certificate and an independent simplex.

The closed-form solvers claim to minimize the worst per-node energy.  This
module states that claim as a plain linear program over all directed flows
(epigraph variable t bounding every node's energy).  :func:`certify` proves
a claimed optimum per instance: on the chain support the LP dual has a
closed form, and any dual-feasible point bounds the optimum from below, so a
bound equal to the claimed energy with no violated arc is a proof.  That is
an O(n^2) check, and it is what ``chainlife verify`` runs.

:func:`solve` is a self-contained dense simplex that reuses nothing from the
closed forms, so agreement between the two routes is meaningful evidence;
the tests use it as the cross-check.  It is deliberately boring: bounded
tableau, Bland's rule for both the entering and the leaving choice, fixed
pivot tolerance.  That trades speed for determinism and for immunity to
cycling, which is the right trade at the small sizes it serves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .cost import transmission_cost
from .errors import NumericalStall
from .validate import FlowMatrix, check_conservation

PIVOT_TOL = 1e-11
DEFAULT_VERIFY_TOL = 1e-7
FLOW_FEAS_TOL = 1e-9


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
    """Dual point built from the chain support, judged on every admissible arc.

    ``bound`` is its dual objective, a lower bound on the LP optimum when
    ``slack`` (the largest dual constraint violation, found on ``arc``) is
    not positive.
    """

    bound: float
    slack: float
    arc: tuple[int, int]


class VerdictStatus(Enum):
    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    max_energy: float
    optimum: float | None
    gap: float | None


def chain_support_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Restricted arc set: direct to collector plus the left-neighbour hop."""
    pairs = [(i, 0) for i in range(1, n + 1)]
    pairs += [(i, i - 1) for i in range(2, n + 1)]
    return tuple(sorted(pairs))


def formulate(
    net,
    pairs: Sequence[tuple[int, int]] | None = None,
    order: Sequence[int] | None = None,
) -> LpInstance:
    """Build the LP for a regular or perturbed network.

    ``pairs`` restricts the admissible arcs (direct-to-collector arcs are
    always required so the problem stays feasible); ``order`` permutes the
    variable layout, which must not change the optimum and is exercised by
    the test suite.
    """
    n = net.n
    x = net.positions().x
    costs = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        for j in range(0, n + 1):
            if i != j:
                costs[i, j] = transmission_cost(net.series, x[i], x[j])
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
    if order is not None:
        if sorted(order) != list(range(len(chosen))):
            raise ValueError("order must be a permutation of the arc indices")
        chosen = [chosen[k] for k in order]
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
    total = mu.sum()
    pi /= total
    mu /= total
    tails, heads = np.array(inst.pairs).T
    slack = pi[tails] - pi[heads] - mu[tails] * costs[tails, heads]
    worst = int(np.argmax(slack))
    bound = float(np.dot(inst.volumes, pi[1:]))
    return Certificate(bound, float(slack[worst]), inst.pairs[worst])


def _tableau(inst: LpInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    # equality form: conservation rows, then energy rows with slack variables
    # turning  (node energy) <= t  into  (node energy) - t + s_i = 0
    n = inst.n
    arcs = len(inst.pairs)
    nvar = arcs + 1 + n
    t_col = arcs
    a = np.zeros((2 * n, nvar))
    b = np.zeros(2 * n)
    for k, (i, j) in enumerate(inst.pairs):
        a[i - 1, k] += 1.0
        if j >= 1:
            a[j - 1, k] -= 1.0
        a[n + i - 1, k] = inst.costs[i, j]
    for i in range(1, n + 1):
        a[n + i - 1, t_col] = -1.0
        a[n + i - 1, arcs + 1 + i - 1] = 1.0
        b[i - 1] = inst.volumes[i - 1]
    c = np.zeros(nvar)
    c[t_col] = 1.0
    return a, b, c, t_col


def solve(inst: LpInstance, tol: float = PIVOT_TOL) -> LpSolution:
    """Minimize the worst node energy; returns the optimum, flow, and pivot count.

    Starts from the direct-routing vertex (every node sends straight to the
    collector), which is always feasible.  Raises NumericalStall if the pivot
    budget is exhausted or feasibility degrades beyond repair.
    """
    n = inst.n
    a, b, c, t_col = _tableau(inst)
    nvar = a.shape[1]
    arcs = t_col
    direct_col = {pair: k for k, pair in enumerate(inst.pairs) if pair[1] == 0}
    direct_energy = [inst.volumes[i - 1] * inst.costs[i, 0] for i in range(1, n + 1)]
    tight = int(np.argmax(direct_energy))
    basis = [direct_col[(i, 0)] for i in range(1, n + 1)]
    basis.append(t_col)
    basis += [arcs + 1 + k for k in range(n) if k != tight]
    try:
        binv_a = np.linalg.solve(a[:, basis], a)
        binv_b = np.linalg.solve(a[:, basis], b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalStall("starting basis is singular") from exc
    if np.min(binv_b) < -FLOW_FEAS_TOL:
        raise NumericalStall("starting vertex infeasible")
    tableau = np.hstack([binv_a, binv_b[:, None]])
    reduced = c - c[basis] @ binv_a

    iterations = 0
    budget = 1000 + 50 * nvar
    margin = 1e-12
    basis = np.array(basis)
    while True:
        improving = np.flatnonzero(reduced < -tol)
        if improving.size == 0:
            break
        entering = int(improving[0])
        column = tableau[:, entering]
        eligible = np.flatnonzero(column > tol)
        if eligible.size == 0:
            raise NumericalStall("objective unbounded below, which the model forbids")
        ratios = tableau[eligible, -1] / column[eligible]
        # Bland's tie window: scanning rows in order, a ratio replaces the
        # running best only when it undercuts it by the relative margin
        start = 0
        while True:
            best = ratios[start]
            lower = np.flatnonzero(ratios[start:] < best - margin * max(1.0, abs(best)))
            if lower.size == 0:
                break
            start += int(lower[0])
        tied = eligible[ratios <= best + margin * max(1.0, abs(best))]
        leaving = int(tied[np.argmin(basis[tied])])
        tableau[leaving] /= tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        touched = np.flatnonzero(factors)
        tableau[touched] -= np.outer(factors[touched], tableau[leaving])
        reduced = reduced - reduced[entering] * tableau[leaving, :-1]
        basis[leaving] = entering
        iterations += 1
        if iterations > budget:
            raise NumericalStall(f"no optimum after {iterations} pivots")

    values = np.zeros(nvar)
    values[basis] = tableau[:, -1]
    if np.min(values) < -FLOW_FEAS_TOL:
        raise NumericalStall("final vertex lost feasibility")
    amounts = {
        pair: float(values[k]) for k, pair in enumerate(inst.pairs) if values[k] > 0.0
    }
    return LpSolution(float(values[t_col]), FlowMatrix(n, amounts), iterations)


def verify_candidate(
    inst: LpInstance,
    candidate: FlowMatrix | Mapping[tuple[int, int], float],
    tol: float = DEFAULT_VERIFY_TOL,
) -> Verdict:
    """Judge a candidate flow against the LP optimum.

    Infeasible when conservation or nonnegativity fails beyond tol; otherwise
    optimal when its worst node energy is within tol of the LP value, and
    suboptimal with the gap reported otherwise.
    """
    if not isinstance(candidate, FlowMatrix):
        candidate = FlowMatrix(inst.n, dict(candidate))
    residual = check_conservation(candidate, inst.volumes)
    energy = np.zeros(inst.n)
    lowest = 0.0
    for (i, j), value in candidate.items():
        energy[i - 1] += value * inst.costs[i, j]
        lowest = min(lowest, value)
    max_energy = float(np.max(energy)) if inst.n else 0.0
    scale = max(1.0, max(inst.volumes))
    if float(np.max(np.abs(residual))) > tol * scale or lowest < -tol:
        return Verdict(VerdictStatus.INFEASIBLE, max_energy, None, None)
    optimum = solve(inst).value
    gap = max_energy - optimum
    status = VerdictStatus.OPTIMAL if gap <= tol else VerdictStatus.SUBOPTIMAL
    return Verdict(status, max_energy, optimum, gap)
