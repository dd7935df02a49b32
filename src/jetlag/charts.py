"""Chart bookkeeping for jet bundles and the canonical coordinate maps.

Charts carry a structural space tag so that handing a point on the wrong
space is detectable even when dimensions agree.  Roster order is canonical
and fixes downstream CSV layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import max_level
from .errors import ArityMismatchError, ChartMismatchError, LevelOverflowError
from .expr import Expr, coerce, substitute
from .symbols import Symbol, acc, aux, dp, dq, p, pa, pm, pq, q


@dataclass(frozen=True)
class ChartSpec:
    """Named chart: space tag, dimensions, ordered coordinate roster.

    positions/momenta single out the cotangent pairing when the space has
    one; they are empty for purely tangent-type charts.
    """

    space: str
    dim: int
    order: int
    roster: tuple
    positions: tuple = ()
    momenta: tuple = ()

    def __post_init__(self):
        if len(set(self.roster)) != len(self.roster):
            raise ChartMismatchError(f"duplicate symbols in roster for {self.space}")
        expected = _EXPECTED_SIZE.get(self.space)
        if expected is not None and len(self.roster) != expected(self.dim, self.order):
            raise ChartMismatchError(
                f"{self.space} with n={self.dim}, k={self.order} needs "
                f"{expected(self.dim, self.order)} coordinates, got {len(self.roster)}"
            )

    def index(self, symbol: Symbol) -> int:
        return self.roster.index(symbol)


_EXPECTED_SIZE = {
    "T^kQ": lambda n, k: n * (k + 1),
    "TT^(k-1)Q": lambda n, k: 2 * n * k,
    "T*T^(k-1)Q": lambda n, k: 2 * n * k,
    "TT*T^(k-1)Q": lambda n, k: 4 * n * k,
    "T*T*T^(k-1)Q": lambda n, k: 4 * n * k,
    "T*TT^(k-1)Q": lambda n, k: 4 * n * k,
    "AQ": lambda n, k: 2 * n,
    "TAQ": lambda n, k: 4 * n,
    "T*AQ": lambda n, k: 4 * n,
    "AQxM": lambda n, k: 3 * n,
    "T(AQxM)": lambda n, k: 6 * n,
    "T*(AQxM)": lambda n, k: 6 * n,
}


@dataclass(frozen=True)
class Point:
    chart: ChartSpec
    values: dict = field(compare=False)

    def __post_init__(self):
        missing = [s for s in self.chart.roster if s not in self.values]
        extra = [s for s in self.values if s not in self.chart.roster]
        if missing or extra:
            raise ChartMismatchError(
                f"point does not bind the {self.chart.space} roster exactly "
                f"(missing {missing}, extra {extra})"
            )

    def tuple(self):
        return tuple(self.values[s] for s in self.chart.roster)


def _block(maker, n, levels):
    return tuple(maker(a, k) for k in levels for a in range(1, n + 1))


def chart_tkq(n: int, k: int) -> ChartSpec:
    return ChartSpec("T^kQ", n, k, _block(q, n, range(k + 1)))


def chart_tangent(n: int, k: int) -> ChartSpec:
    """TT^(k-1)Q with base jets and dotted fibers."""
    base = _block(q, n, range(k))
    fiber = _block(dq, n, range(k))
    return ChartSpec("TT^(k-1)Q", n, k, base + fiber)


def chart_cotangent(n: int, k: int) -> ChartSpec:
    """T*T^(k-1)Q in Darboux coordinates."""
    pos = _block(q, n, range(k))
    mom = _block(p, n, range(k))
    return ChartSpec("T*T^(k-1)Q", n, k, pos + mom, positions=pos, momenta=mom)


def chart_ttstar(n: int, k: int) -> ChartSpec:
    pos = _block(q, n, range(k))
    mom = _block(p, n, range(k))
    vel = _block(dq, n, range(k)) + _block(dp, n, range(k))
    return ChartSpec("TT*T^(k-1)Q", n, k, pos + mom + vel, positions=pos, momenta=mom)


def chart_tstar_tstar(n: int, k: int) -> ChartSpec:
    # base (q, p); covector slots reuse the dotted names in roster order
    pos = _block(q, n, range(k))
    mom = _block(p, n, range(k))
    cov = _block(dq, n, range(k)) + _block(dp, n, range(k))
    return ChartSpec("T*T*T^(k-1)Q", n, k, pos + mom + cov)


def chart_tstar_t(n: int, k: int) -> ChartSpec:
    # base (q, qdot); covector slots in roster order
    base = _block(q, n, range(k)) + _block(dq, n, range(k))
    cov = _block(dp, n, range(k)) + _block(p, n, range(k))
    return ChartSpec("T*TT^(k-1)Q", n, k, base + cov)


def chart_taq(n: int) -> ChartSpec:
    base = _block(q, n, (0,)) + _block(acc, n, (0,))
    fiber = _block(q, n, (1,)) + _block(acc, n, (1,))
    return ChartSpec("TAQ", n, 2, base + fiber)


def chart_tstar_aq(n: int) -> ChartSpec:
    pos = _block(q, n, (0,)) + _block(acc, n, (0,))
    mom = tuple(pq(a) for a in range(1, n + 1)) + tuple(pa(a) for a in range(1, n + 1))
    return ChartSpec("T*AQ", n, 2, pos + mom, positions=pos, momenta=mom)


def chart_tstar_aqm(n: int) -> ChartSpec:
    pos = _block(q, n, (0,)) + _block(acc, n, (0,)) + _block(aux, n, (0,))
    mom = (
        tuple(pq(a) for a in range(1, n + 1))
        + tuple(pa(a) for a in range(1, n + 1))
        + tuple(pm(a) for a in range(1, n + 1))
    )
    return ChartSpec("T*(AQxM)", n, 2, pos + mom, positions=pos, momenta=mom)


def _require(point: Point, space: str):
    if point.chart.space != space:
        raise ChartMismatchError(f"expected a point on {space}, got {point.chart.space}")


# ---------------------------------------------------------------------------
# canonical maps
# ---------------------------------------------------------------------------


def iterated_tangent_embed(point: Point) -> Point:
    """T^kQ -> TT^(k-1)Q: (q_0..q_k) -> (q_0..q_(k-1); q_1..q_k)."""
    _require(point, "T^kQ")
    n, k = point.chart.dim, point.chart.order
    target = chart_tangent(n, k)
    values = {}
    for lvl in range(k):
        for a in range(1, n + 1):
            values[q(a, lvl)] = point.values[q(a, lvl)]
            values[dq(a, lvl)] = point.values[q(a, lvl + 1)]
    return Point(target, values)


def tulczyjew_flat(point: Point) -> Point:
    """TT*T^(k-1)Q -> T*T*T^(k-1)Q: (q, p, qdot, pdot) -> (q, p, pdot, -qdot)."""
    _require(point, "TT*T^(k-1)Q")
    n, k = point.chart.dim, point.chart.order
    target = chart_tstar_tstar(n, k)
    values = {}
    for lvl in range(k):
        for a in range(1, n + 1):
            values[q(a, lvl)] = point.values[q(a, lvl)]
            values[p(a, lvl)] = point.values[p(a, lvl)]
            values[dq(a, lvl)] = point.values[dp(a, lvl)]
            values[dp(a, lvl)] = -point.values[dq(a, lvl)]
    return Point(target, values)


def tulczyjew_flat_inverse(point: Point) -> Point:
    _require(point, "T*T*T^(k-1)Q")
    n, k = point.chart.dim, point.chart.order
    target = chart_ttstar(n, k)
    values = {}
    for lvl in range(k):
        for a in range(1, n + 1):
            values[q(a, lvl)] = point.values[q(a, lvl)]
            values[p(a, lvl)] = point.values[p(a, lvl)]
            values[dq(a, lvl)] = -point.values[dp(a, lvl)]
            values[dp(a, lvl)] = point.values[dq(a, lvl)]
    return Point(target, values)


def tulczyjew_xi(point: Point) -> Point:
    """TT*T^(k-1)Q -> T*TT^(k-1)Q: (q, p, qdot, pdot) -> (q, qdot, pdot, p)."""
    _require(point, "TT*T^(k-1)Q")
    n, k = point.chart.dim, point.chart.order
    target = chart_tstar_t(n, k)
    values = {}
    for lvl in range(k):
        for a in range(1, n + 1):
            values[q(a, lvl)] = point.values[q(a, lvl)]
            values[dq(a, lvl)] = point.values[dq(a, lvl)]
            values[dp(a, lvl)] = point.values[dp(a, lvl)]
            values[p(a, lvl)] = point.values[p(a, lvl)]
    return Point(target, values)


def tulczyjew_xi_inverse(point: Point) -> Point:
    _require(point, "T*TT^(k-1)Q")
    n, k = point.chart.dim, point.chart.order
    target = chart_ttstar(n, k)
    values = dict(point.values)
    return Point(target, values)


def acceleration_iso(point: Point) -> Point:
    """TAQ -> T^3Q: (q0, a0; q1, a1) -> (q0, q1; a0, a1)."""
    _require(point, "TAQ")
    n = point.chart.dim
    target = chart_tkq(n, 3)
    values = {}
    for a in range(1, n + 1):
        values[q(a, 0)] = point.values[q(a, 0)]
        values[q(a, 1)] = point.values[q(a, 1)]
        values[q(a, 2)] = point.values[acc(a, 0)]
        values[q(a, 3)] = point.values[acc(a, 1)]
    return Point(target, values)


def acceleration_iso_inverse(point: Point) -> Point:
    _require(point, "T^kQ")
    if point.chart.order != 3:
        raise ChartMismatchError("acceleration isomorphism inverts from T^3Q only")
    n = point.chart.dim
    target = chart_taq(n)
    values = {}
    for a in range(1, n + 1):
        values[q(a, 0)] = point.values[q(a, 0)]
        values[q(a, 1)] = point.values[q(a, 1)]
        values[acc(a, 0)] = point.values[q(a, 2)]
        values[acc(a, 1)] = point.values[q(a, 3)]
    return Point(target, values)


def pullback_to_acceleration_chart(e: Expr, n: int, top: int = 3) -> Expr:
    """Rename jet levels (q2, q3) -> (a0, a1) per the acceleration isomorphism."""
    mapping = {}
    for a in range(1, n + 1):
        mapping[q(a, 2)] = acc(a, 0)
        if top >= 3:
            mapping[q(a, 3)] = acc(a, 1)
    return substitute(e, mapping)


def semispray_type1(F, n: int, k: int) -> dict:
    """Holonomic vector field table on T^kQ: q_(i) feeds q_(i+1), top gets F.

    F lists one forcing expression per component, over jet levels <= k.
    """
    F = [coerce(f) for f in F]
    if len(F) != n:
        raise ArityMismatchError(f"need {n} forcing components, got {len(F)}")
    for f in F:
        if max_level(f) > k:
            raise LevelOverflowError(f"forcing term uses level above {k}: {f}")
    table = {}
    for lvl in range(k):
        for a in range(1, n + 1):
            table[q(a, lvl)] = q(a, lvl + 1)
    for a in range(1, n + 1):
        table[q(a, k)] = F[a - 1]
    return table
