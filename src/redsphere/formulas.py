"""Closed-form scalar functions for reduced spherical polygons.

Every reduced spherically convex polygon of thickness w < pi/2 decomposes
into right triangles hanging off its "spokes" (vertex -> opposite side).
With lam = tan(w), each spoke crossing at angle phi pins a parameter
x = tan(distance from crossing point to the foot), and the two maps

    arm_length(x)    = arccos((1 + lam*x) / sqrt(1 + lam^2))
    crossing_angle(x) = arccos(x*(1 + lam*x) / (lam - x))

give the half-side arm and the crossing angle of that triangle.  The
perimeter of any reduced polygon is 2 * sum(arm_length(x_i)).

Domain endpoints are excluded: calls at an endpoint raise DomainError;
limit values appear only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import DomainError

__all__ = [
    "RegularMetrics",
    "x_limit",
    "regular_triangle_half_angle",
    "arm_length",
    "arm_lengths",
    "crossing_angle",
    "crossing_angle_inv",
    "crossing_angles_inv",
    "arm_from_angle",
    "regular_metrics",
    "covering_radius_bound",
    "diameter_bound",
    "diameter_bound_coarse",
]

HALF_PI = 0.5 * math.pi


def _clamp(t: float) -> float:
    """t clipped to [-1, 1] by branches, without min and max calls; NaN gives 1.0."""
    return 1.0 if not t < 1.0 else (-1.0 if t < -1.0 else t)


def _check_thickness(thickness: float) -> None:
    if not 0.0 < thickness < HALF_PI:
        raise DomainError(f"thickness={thickness!r} outside (0, pi/2)")


@lru_cache(maxsize=32, typed=True)
def _lam_terms(lam: float) -> tuple[float, float, float, float]:
    """x_limit(lam), sqrt(1 + lam^2), 4 lam^2 and 2 lam, rounded as the
    formulas round them; raises DomainError for lam <= 0.  Cached, typed, so
    that an int or numpy lam gets terms of its own type."""
    if lam <= 0.0:
        raise DomainError(f"lam={lam!r} must be positive")
    root = math.sqrt(1.0 + lam * lam)
    return (root - 1.0) / lam, root, 4.0 * lam * lam, 2.0 * lam


def x_limit(lam: float) -> float:
    """Right end of the open x-domain: (sqrt(1 + lam^2) - 1) / lam."""
    return _lam_terms(lam)[0]


def regular_triangle_half_angle(thickness: float) -> float:
    """Half the vertex angle of the regular reduced triangle of this thickness.

    arcsin((-cos w + sqrt(cos^2 w + 8)) / 4); increases from pi/6 to pi/4
    as the thickness sweeps (0, pi/2).
    """
    _check_thickness(thickness)
    cw = math.cos(thickness)
    return math.asin(_clamp((-cw + math.sqrt(cw * cw + 8.0)) / 4.0))


def arm_length(x: float, lam: float) -> float:
    """Half-side arm arccos((1 + lam*x) / sqrt(1 + lam^2)).

    Defined for x in [0, x_limit(lam)); equals the thickness at x = 0 and
    falls to 0 at the excluded right endpoint.
    """
    return arm_lengths((x,), lam)[0]


def arm_lengths(xs: Iterable[float], lam: float) -> list[float]:
    """arm_length of every x of xs at one lam, with x_limit(lam) and
    sqrt(1 + lam^2) computed once per lam; raises DomainError as arm_length
    does."""
    limit, root, _, _ = _lam_terms(lam)
    out = []
    for x in xs:
        if not 0.0 <= x < limit:
            raise DomainError(f"x={x!r} outside [0, x_limit={limit!r})")
        # _clamp inline: t > 0 on the domain, so only the clip at 1 can act.
        t = (1.0 + lam * x) / root
        out.append(math.acos(t if t < 1.0 else 1.0))
    return out


def crossing_angle(x: float, lam: float) -> float:
    """Crossing angle arccos(x*(1 + lam*x) / (lam - x)) on (0, x_limit(lam)).

    Decreases from pi/2 to 0 as x runs over the open domain.
    """
    if not 0.0 < x < x_limit(lam):
        raise DomainError(f"x={x!r} outside (0, x_limit={x_limit(lam)!r})")
    return math.acos(_clamp(x * (1.0 + lam * x) / (lam - x)))


def crossing_angle_inv(phi: float, lam: float) -> float:
    """Inverse of crossing_angle: the x with crossing_angle(x) = phi.

    (-(1 + cos phi) + sqrt((1 + cos phi)^2 + 4 lam^2 cos phi)) / (2 lam)
    for phi in (0, pi/2).
    """
    return crossing_angles_inv((phi,), lam)[0]


def crossing_angles_inv(phis: Iterable[float], lam: float) -> list[float]:
    """crossing_angle_inv of every phi of phis at one lam, with 4 lam^2 and
    2 lam computed once per lam; raises DomainError as crossing_angle_inv
    does, for lam first."""
    _, _, four_lam2, two_lam = _lam_terms(lam)
    out = []
    for phi in phis:
        if not 0.0 < phi < HALF_PI:
            raise DomainError(f"phi={phi!r} outside (0, pi/2)")
        cp = math.cos(phi)
        s = 1.0 + cp
        out.append((-s + math.sqrt(s * s + four_lam2 * cp)) / two_lam)
    return out


def arm_from_angle(phi: float, lam: float) -> float:
    """Half-side arm as a function of the crossing angle.

    arm_length(crossing_angle_inv(phi)); increasing and convex on (0, pi/2).
    """
    return arm_lengths((crossing_angle_inv(phi, lam),), lam)[0]


@dataclass(frozen=True)
class RegularMetrics:
    """Closed-form measurements of the regular reduced n-gon."""

    n: int
    thickness: float
    side: float
    perimeter: float
    inradius: float
    circumradius: float
    phi: float
    y: float

    def __post_init__(self) -> None:
        if abs(self.inradius + self.circumradius - self.thickness) > 1e-10:
            raise DomainError("inradius + circumradius must equal the thickness")


@lru_cache(maxsize=32, typed=True)
def regular_metrics(n: int, thickness: float) -> RegularMetrics:
    """Side, perimeter, inradius and circumradius of the regular reduced n-gon.

    n must be an odd integer >= 3.  The crossing angle of the regular
    polygon is phi = pi/n; its spoke parameter y = crossing_angle_inv(phi)
    yields side = 2*arm_length(y), inradius = arctan(y), and
    circumradius = arctan((lam - y) / (1 + lam*y)).  Cached, typed, so that
    n=5.0 and n=True still raise; the frozen result is shared by callers.
    """
    if not (isinstance(n, int) and n >= 3 and n % 2 == 1):
        raise DomainError(f"n={n!r} must be an odd integer >= 3")
    _check_thickness(thickness)
    lam = math.tan(thickness)
    phi = math.pi / n
    y = crossing_angle_inv(phi, lam)
    half = arm_length(y, lam)
    side = 2.0 * half
    return RegularMetrics(
        n=n,
        thickness=thickness,
        side=side,
        perimeter=n * side,
        inradius=math.atan(y),
        circumradius=math.atan((lam - y) / (1.0 + lam * y)),
        phi=phi,
        y=y,
    )


def covering_radius_bound(thickness: float) -> float:
    """Radius of the smallest cap covering any reduced polygon of this thickness.

    arcsin((2/sqrt(3)) * sqrt(1 - 1/(4 sin^2 g))) with g the regular-triangle
    half angle; attained by the regular triangle's circumscribed cap.
    """
    g = regular_triangle_half_angle(thickness)
    s = math.sin(g)
    return math.asin(_clamp((2.0 / math.sqrt(3.0)) * math.sqrt(max(0.0, 1.0 - 1.0 / (4.0 * s * s)))))


def diameter_bound(thickness: float) -> float:
    """Sharp diameter bound 2*arccos(1/(2 sin g)) for reduced polygons.

    Attained exactly by the regular triangle (its side, and also its
    diameter, equals this value).
    """
    g = regular_triangle_half_angle(thickness)
    return 2.0 * math.acos(_clamp(1.0 / (2.0 * math.sin(g))))


def diameter_bound_coarse(thickness: float) -> float:
    """Older, weaker diameter bound arccos(cos w sqrt(1 - (sqrt(2)/2) sin w)).

    Defined on (0, pi/2]; equals pi/2 at thickness pi/2 and stays strictly
    above diameter_bound everywhere below.
    """
    if not 0.0 < thickness <= HALF_PI:
        raise DomainError(f"thickness={thickness!r} outside (0, pi/2]")
    return math.acos(_clamp(math.cos(thickness) * math.sqrt(1.0 - 0.5 * math.sqrt(2.0) * math.sin(thickness))))
