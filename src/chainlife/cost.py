"""Superadditive transmission-cost model for nodes on a line.

The energy to send one unit of data over distance ``s`` is a finite power
series ``sum_k lam_k * s**a_k`` with nonnegative coefficients, exponents
``a_k >= 1``, and ``sum_k lam_k = 1``.  Under those constraints the cost of a
unit hop is exactly 1 and the cost is superadditive on ordered collinear
triples: splitting a transmission at an intermediate node never costs more
than the long hop.  Both facts are what make multi-hop routing toward a single
collector worthwhile, and both are validated here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ChainlifeError, ExponentBelowOne, NegativeCoefficient, NotNormalized

NORMALIZATION_TOL = 1e-12
SUPERADDITIVITY_TOL = 1e-12


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
        return cls(tuple(float(k) for k in range(n + 1)))

    @classmethod
    def from_shifts(cls, shifts: Sequence[float]) -> "Positions":
        """Chain with node i at i - shifts[i-1]; positive shifts move toward the collector."""
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
    total = math.fsum(lam for lam, _ in pairs)
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
    except OverflowError:
        raise ChainlifeError(
            f"transmission cost over distance {s:.6g} exceeds the float range"
        ) from None


def cost_function(series: CostSeries) -> Callable[[float, float], float]:
    """transmission_cost(series, xi, xj) as a function of (xi, xj), bit for bit.

    Built once for the many costs of one chain.  With one or two terms the
    cost is lam1 * s**a1 (+ lam2 * s**a2): one float is its own fsum, and
    the fsum of two floats is their correctly rounded sum, which is what +
    returns.  Series of three or more terms, and every result that is not
    a positive finite float (a zero distance, an overflow, a hand-built
    series with a negative coefficient), go through transmission_cost.
    """
    terms, inf = series.terms, math.inf
    if len(terms) == 1:
        ((l1, a1),) = terms

        def cost(xi: float, xj: float) -> float:
            s = abs(xi - xj)
            try:
                c = l1 * s**a1
            except OverflowError:
                c = inf
            return c if 0.0 < c < inf else transmission_cost(series, xi, xj)

    elif len(terms) == 2:
        (l1, a1), (l2, a2) = terms

        def cost(xi: float, xj: float) -> float:
            s = abs(xi - xj)
            try:
                c = l1 * s**a1 + l2 * s**a2
            except OverflowError:
                c = inf
            return c if 0.0 < c < inf else transmission_cost(series, xi, xj)

    else:

        def cost(xi: float, xj: float) -> float:
            return transmission_cost(series, xi, xj)

    return cost


def unit_hop_costs(series: CostSeries, n: int) -> list[float]:
    """Costs of integer-length hops: entry r is the cost of distance r, entry 0 is 0."""
    return [transmission_cost(series, 0.0, float(r)) for r in range(n + 1)]


class SuperadditivityViolation(NamedTuple):
    i: int
    j: int
    k: int
    excess: float


def check_superadditivity(
    series: CostSeries, positions: Positions, tol: float = SUPERADDITIVITY_TOL
) -> list[SuperadditivityViolation]:
    """Enumerate ordered triples where splitting a hop costs more than the long hop.

    Returns an empty list for every series accepted by build_cost_series; a
    nonempty result means the series was constructed with validation bypassed.
    """
    x = positions.x
    m = len(x)
    out: list[SuperadditivityViolation] = []
    for i in range(m):
        for j in range(i + 1, m):
            left = transmission_cost(series, x[i], x[j])
            for k in range(j + 1, m):
                excess = left + transmission_cost(series, x[j], x[k]) - transmission_cost(
                    series, x[i], x[k]
                )
                if excess > tol:
                    out.append(SuperadditivityViolation(i, j, k, excess))
    return out


def series_to_terms(series: CostSeries) -> list[dict[str, float]]:
    """Serialize as a list of {"lambda": ..., "exponent": ...} objects."""
    return [{"lambda": lam, "exponent": a} for lam, a in series.terms]
