"""Transmission-cost model for nodes on a line.

The energy to send one unit of data over distance ``s`` is a finite power
series ``sum_k lam_k * s**a_k``.  :func:`build_cost_series` checks what it
accepts: finite coefficients lam_k >= 0, finite exponents a_k >= 1, and
sum_k lam_k = 1, so that a unit hop costs exactly 1.  It checks nothing
about optimality.  Such a cost is convex with c(0) = 0, hence superadditive,
yet that does not make the equal-energy split optimal: with cost
0.9 s + 0.1 s^3 on three unit-spaced nodes at unit volumes the split spends
271/117 per node, while a flow that relays node 3 through node 1 spends
99/43.  Whether a chain's split is optimal is decided per chain by the dual
certificate of :func:`chainlife.oracle.certifier`, which refutes that split
on arc (3, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ChainlifeError, ExponentBelowOne, NegativeCoefficient, NotNormalized

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class CostSeries:
    """Finite power series defining the per-unit transmission cost.

    ``terms`` holds (coefficient, exponent) pairs.  Instances produced by
    :func:`build_cost_series` are validated; constructing directly bypasses
    validation and is only useful for negative tests.
    """

    terms: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Positions:
    """Node coordinates on the half-line; index 0 is the collector at the origin."""

    x: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) < 2:
            raise ValueError("need the collector and at least one node")
        if self.x[0] != 0.0:
            raise ValueError("collector must sit at the origin")
        for k in range(1, len(self.x)):
            if not self.x[k] > self.x[k - 1]:
                raise ValueError(f"coordinates must increase strictly (index {k})")

    @property
    def n(self) -> int:
        return len(self.x) - 1

    @classmethod
    def regular(cls, n: int) -> "Positions":
        """Unit-spaced chain: node i at coordinate i."""
        if n < 1:
            raise ValueError("need at least one node")
        return cls(tuple(map(float, range(n + 1))))

    @classmethod
    def from_shifts(cls, shifts: Sequence[float]) -> "Positions":
        """Chain with node i at i - shifts[i-1]; positive shifts move toward the collector."""
        if shifts and not any(shifts):  # i - 0.0 is i: the regular chain, no shift to check
            return cls.regular(len(shifts))
        for k, d in enumerate(shifts, start=1):
            if not -1.0 < d < 1.0:
                raise ValueError(f"shift d_{k} = {d} outside (-1, 1)")
        return cls((0.0,) + tuple((k + 1) - float(d) for k, d in enumerate(shifts)))


def build_cost_series(
    terms: Iterable[tuple[float, float]], auto_normalize: bool = False
) -> CostSeries:
    """Validate (coefficient, exponent) pairs and return a usable series.

    Raises NegativeCoefficient or ExponentBelowOne for out-of-domain or
    non-finite terms.  When the coefficients do not sum to 1 within 1e-12 the
    series is rescaled if ``auto_normalize`` is set, otherwise NotNormalized
    is raised.
    """
    pairs = [(float(lam), float(a)) for lam, a in terms]
    if not pairs:
        raise NotNormalized("cost series needs at least one term")
    for k, (lam, a) in enumerate(pairs):
        # written so that NaN fails the comparison
        if not 0.0 <= lam < math.inf:
            raise NegativeCoefficient(f"coefficient {lam} at term {k} is negative or not finite")
        if not 1.0 <= a < math.inf:
            raise ExponentBelowOne(f"exponent {a} at term {k} is below 1 or not finite")
    try:
        total = math.fsum(lam for lam, _ in pairs)
    except OverflowError:
        raise NotNormalized("coefficients sum past the float range, expected 1") from None
    if abs(total - 1.0) > NORMALIZATION_TOL:
        if not auto_normalize:
            raise NotNormalized(f"coefficients sum to {total!r}, expected 1")
        if total <= 0.0:
            raise NotNormalized("cannot rescale a series whose coefficients sum to zero")
        pairs = [(lam / total, a) for lam, a in pairs]
    return CostSeries(tuple(pairs))


def single_exponent_series(a: float) -> CostSeries:
    """Series with one term of weight 1: cost(s) = s**a."""
    return build_cost_series([(1.0, a)])


def transmission_cost(series: CostSeries, xi: float, xj: float) -> float:
    """Energy per unit of data sent between coordinates xi and xj.

    The distance power is evaluated only for positive distance; a zero
    distance costs nothing regardless of exponents.  A cost beyond the float
    range raises ChainlifeError.
    """
    s = abs(xi - xj)
    if s == 0.0:
        return 0.0
    try:
        return math.fsum(lam * s**a for lam, a in series.terms)
    except (OverflowError, ValueError):  # ValueError: fsum of inf and -inf
        raise ChainlifeError(
            f"transmission cost over distance {s:.6g} exceeds the float range"
        ) from None


def cost_function(series: CostSeries) -> Callable[[float, float], float]:
    """transmission_cost(series, xi, xj) as a function of (xi, xj), bit for bit.

    Built once for the many costs of one chain.  With one or two terms the
    cost is lam1 * s**a1 + lam2 * s**a2: the fsum of two floats is their
    correctly rounded sum, which is what + returns, and a one-term series
    gets the second term (0.0, 1.0), whose +0.0 leaves a positive float as
    it is.  A series of no term or of three or more, and every result that
    is not a positive finite float (a zero distance, an overflow, a NaN, a
    hand-built series with a negative coefficient), go through
    transmission_cost.
    """
    terms, inf = series.terms, math.inf
    if not 0 < len(terms) < 3:
        return lambda xi, xj: transmission_cost(series, xi, xj)
    (l1, a1), (l2, a2) = terms if len(terms) == 2 else (*terms, (0.0, 1.0))

    def cost(xi: float, xj: float) -> float:
        s = abs(xi - xj)
        try:
            c = l1 * s**a1 + l2 * s**a2
        except OverflowError:
            c = inf
        return c if 0.0 < c < inf else transmission_cost(series, xi, xj)

    return cost


def unit_hop_costs(series: CostSeries, n: int) -> list[float]:
    """Costs of integer-length hops: entry r is the cost of distance r, entry 0 is 0."""
    return [transmission_cost(series, 0.0, float(r)) for r in range(n + 1)]


def series_to_terms(series: CostSeries) -> list[dict[str, float]]:
    """Serialize as a list of {"lambda": ..., "exponent": ...} objects."""
    return [{"lambda": lam, "exponent": a} for lam, a in series.terms]
