"""Closed-form scalar maps: frozen values, limits, domains, identities.

Expected decimals were frozen from a 40-digit evaluation of the same
closed forms; the cross-check against the printed covering-radius table
holds them to six decimals independently.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redsphere import (
    DomainError,
    RegularMetrics,
    arm_from_angle,
    arm_length,
    arm_lengths,
    covering_radius_bound,
    crossing_angle,
    crossing_angle_inv,
    crossing_angles_inv,
    diameter_bound,
    diameter_bound_coarse,
    regular_metrics,
    regular_triangle_half_angle,
    x_limit,
)
from redsphere.formulas import _clamp
from redsphere.verify import LAMBDA_GRID, OMEGA_GRID

QUARTER_PI = 0.25 * math.pi
# The lambdas the claims read: tan of the reference thicknesses, then the lemma grid.
CLAIM_LAMBDAS = [math.tan(w) for w in OMEGA_GRID] + list(LAMBDA_GRID)

# Frozen 40-digit oracle evaluations, rounded to double precision.
GAMMA_QUARTER_PI = 0.5848715549190445
ARM_AT_02_LAM1 = 0.5575988266995366
CROSSING_AT_02_LAM1 = 1.2661036727794991
COVER_RADII = {
    math.pi / 8: 0.2603043631368207,
    math.pi / 6: 0.3455234274089941,
    math.pi / 4: 0.5116696441138283,
    math.pi / 3: 0.6700201614625866,
}
# Six-decimal reference the covering radii must reproduce at 1e-5.
COVER_REFERENCE = {
    math.pi / 8: 0.260304,
    math.pi / 6: 0.345523,
    math.pi / 4: 0.511669,
    math.pi / 3: 0.670020,
}


class TestTriangleHalfAngle:
    def test_frozen_value(self):
        assert regular_triangle_half_angle(QUARTER_PI) == pytest.approx(
            GAMMA_QUARTER_PI, abs=1e-15)

    def test_thin_limit(self):
        assert regular_triangle_half_angle(1e-9) == pytest.approx(
            math.pi / 6, abs=1e-9)

    def test_thick_limit(self):
        assert regular_triangle_half_angle(0.5 * math.pi - 1e-9) == pytest.approx(
            math.pi / 4, abs=1e-9)

    def test_domain_endpoints_raise(self):
        for bad in (0.0, 0.5 * math.pi, -0.1, 2.0):
            with pytest.raises(DomainError):
                regular_triangle_half_angle(bad)

    def test_monotone_increasing(self):
        grid = [1e-4 + k * (0.5 * math.pi - 2e-4) / 400 for k in range(401)]
        values = [regular_triangle_half_angle(w) for w in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestArmLength:
    def test_at_zero_returns_thickness(self):
        for lam in (0.3, 1.0, 5.0):
            omega = math.atan(lam)
            assert arm_length(0.0, lam) == pytest.approx(omega, abs=1e-15)

    def test_frozen_value(self):
        assert arm_length(0.2, 1.0) == pytest.approx(ARM_AT_02_LAM1, abs=1e-15)

    def test_vanishes_at_domain_end(self):
        for lam in (0.5, 1.0, 2.0):
            x = x_limit(lam) * (1.0 - 1e-9)
            assert arm_length(x, lam) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            arm_length(-1e-9, 1.0)
        with pytest.raises(DomainError):
            arm_length(x_limit(1.0), 1.0)
        with pytest.raises(DomainError):
            arm_length(0.1, 0.0)

    def test_batch_is_the_scalar_formula(self):
        # One lam, many x: the expression arm_length evaluated before the batch
        # form, written out here, bit for bit.
        for lam in (0.3, 1.0, 5.0):
            xs = [x_limit(lam) * k / 64 for k in range(64)]
            want = [math.acos(max(-1.0, min(1.0, (1.0 + lam * x) / math.sqrt(1.0 + lam * lam))))
                    for x in xs]
            assert arm_lengths(xs, lam) == want
            assert arm_lengths(iter(xs), lam) == want
            assert [arm_length(x, lam) for x in xs] == want
        assert arm_lengths([], 1.0) == []

    def test_inline_clamp_is_the_clamp(self):
        # Bit for bit math.acos(_clamp(t)), also just below x_limit, where t
        # rounds to 1.
        at_one = 0
        for lam in CLAIM_LAMBDAS:
            root = math.sqrt(1.0 + lam * lam)
            xs = [x_limit(lam) * k / 1000 for k in range(1000)]
            x = x_limit(lam)
            for _ in range(16):
                x = math.nextafter(x, 0.0)
                xs.append(x)
            ts = [(1.0 + lam * x) / root for x in xs]
            at_one += sum(t >= 1.0 for t in ts)
            assert ([a.hex() for a in arm_lengths(xs, lam)]
                    == [math.acos(_clamp(t)).hex() for t in ts])
        assert at_one > 0

    @pytest.mark.parametrize("bad", [-1e-9, 0.5, math.nan])
    def test_batch_raises_like_the_scalar(self, bad):
        with pytest.raises(DomainError) as scalar:
            arm_length(bad, 1.0)
        with pytest.raises(DomainError) as batch:
            arm_lengths([0.1, bad, 0.2], 1.0)
        assert str(batch.value) == str(scalar.value)
        with pytest.raises(DomainError, match="must be positive"):
            arm_lengths([0.1], 0.0)


class TestCrossingAngle:
    def test_frozen_value(self):
        assert crossing_angle(0.2, 1.0) == pytest.approx(math.acos(0.3), abs=1e-15)
        assert crossing_angle(0.2, 1.0) == pytest.approx(CROSSING_AT_02_LAM1, abs=1e-15)

    def test_right_angle_limit_at_zero(self):
        assert crossing_angle(1e-9, 1.0) == pytest.approx(0.5 * math.pi, abs=1e-8)

    def test_vanishes_at_domain_end(self):
        x = x_limit(2.0) * (1.0 - 1e-10)
        assert crossing_angle(x, 2.0) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            crossing_angle(0.0, 1.0)
        with pytest.raises(DomainError):
            crossing_angle(x_limit(1.0), 1.0)


class TestCrossingAngleInverse:
    def test_small_angle_limit(self):
        assert crossing_angle_inv(1e-9, 1.0) == pytest.approx(x_limit(1.0), abs=1e-8)

    def test_right_angle_limit(self):
        assert crossing_angle_inv(0.5 * math.pi - 1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_round_trip_on_grid(self):
        for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
            for k in range(1, 101):
                phi = 0.5 * math.pi * k / 101
                y = crossing_angle_inv(phi, lam)
                assert crossing_angle(y, lam) == pytest.approx(phi, abs=1e-10)

    @given(phi=st.floats(min_value=0.01, max_value=0.5 * math.pi - 0.01),
           lam=st.floats(min_value=0.05, max_value=20.0))
    def test_round_trip_property(self, phi, lam):
        assert crossing_angle(crossing_angle_inv(phi, lam), lam) == pytest.approx(
            phi, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            crossing_angle_inv(0.0, 1.0)
        with pytest.raises(DomainError):
            crossing_angle_inv(0.5 * math.pi, 1.0)
        with pytest.raises(DomainError, match="must be positive"):
            crossing_angle_inv(0.5, 0.0)

    def test_batch_is_the_scalar_formula(self):
        # The expression crossing_angle_inv evaluated before the batch form,
        # written out here, bit for bit, at 1000 angles per lambda.
        phis = [0.5 * math.pi * k / 1001 for k in range(1, 1001)]
        for lam in CLAIM_LAMBDAS:
            want = []
            for phi in phis:
                cp = math.cos(phi)
                s = 1.0 + cp
                want.append((-s + math.sqrt(s * s + 4.0 * lam * lam * cp)) / (2.0 * lam))
            assert crossing_angles_inv(phis, lam) == want
            assert crossing_angles_inv(iter(phis), lam) == want
            assert [crossing_angle_inv(phi, lam) for phi in phis] == want
        assert crossing_angles_inv([], 1.0) == []

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_batch_rejects_lambda_first(self, lam):
        for phis in ([0.5], [0.0], []):
            with pytest.raises(DomainError) as batch:
                crossing_angles_inv(phis, lam)
            assert str(batch.value) == f"lam={lam!r} must be positive"
        with pytest.raises(DomainError) as scalar:
            crossing_angle_inv(0.0, lam)
        assert str(scalar.value) == f"lam={lam!r} must be positive"

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5 * math.pi, 2.0, math.nan])
    def test_batch_rejects_angles_like_the_scalar(self, bad):
        with pytest.raises(DomainError) as scalar:
            crossing_angle_inv(bad, 1.0)
        with pytest.raises(DomainError) as batch:
            crossing_angles_inv([0.5, bad, 0.7], 1.0)
        assert str(batch.value) == str(scalar.value) == f"phi={bad!r} outside (0, pi/2)"


class TestArmFromAngle:
    def test_right_angle_limit_is_thickness(self):
        for lam in (0.3, 1.0, 2.0):
            omega = math.atan(lam)
            assert arm_from_angle(0.5 * math.pi - 1e-9, lam) == pytest.approx(
                omega, abs=1e-8)

    def test_small_angle_limit_vanishes(self):
        assert arm_from_angle(1e-7, 1.0) < 1e-3

    def test_composition(self):
        assert arm_from_angle(math.acos(0.3), 1.0) == pytest.approx(
            arm_length(0.2, 1.0), abs=1e-12)


class TestRegularMetrics:
    def test_perimeter_is_n_sides(self):
        for n in (3, 5, 9):
            m = regular_metrics(n, QUARTER_PI)
            assert m.perimeter == pytest.approx(n * m.side, abs=1e-12)

    def test_radii_sum_to_thickness(self):
        for n in (3, 5, 7, 21):
            for omega in COVER_RADII:
                m = regular_metrics(n, omega)
                assert m.inradius + m.circumradius == pytest.approx(omega, abs=1e-12)

    def test_triangle_side_equals_diameter_bound(self):
        for omega in COVER_RADII:
            m = regular_metrics(3, omega)
            assert m.side == pytest.approx(diameter_bound(omega), abs=1e-10)

    def test_even_or_small_n_rejected(self):
        with pytest.raises(DomainError):
            regular_metrics(4, QUARTER_PI)
        with pytest.raises(DomainError):
            regular_metrics(1, QUARTER_PI)

    def test_repeat_call_shares_the_frozen_result(self):
        assert regular_metrics(7, QUARTER_PI) is regular_metrics(7, QUARTER_PI)

    @pytest.mark.parametrize("n, thickness", [(5.0, QUARTER_PI), (True, QUARTER_PI),
                                              (4, QUARTER_PI), (5, 0.5 * math.pi)])
    def test_invalid_arguments_raise_on_every_call(self, n, thickness):
        # The valid call first: an untyped cache would answer n=5.0 from its entry.
        regular_metrics(5, QUARTER_PI)
        for _ in range(2):
            with pytest.raises(DomainError):
                regular_metrics(n, thickness)

    def test_metrics_bundle_validated(self):
        m = regular_metrics(5, QUARTER_PI)
        assert isinstance(m, RegularMetrics)
        assert m.phi == pytest.approx(math.pi / 5)
        assert m.y == pytest.approx(crossing_angle_inv(math.pi / 5, 1.0))


class TestBounds:
    def test_cover_radii_frozen(self):
        for omega, expected in COVER_RADII.items():
            assert covering_radius_bound(omega) == pytest.approx(expected, abs=1e-12)

    def test_cover_radii_match_reference_table(self):
        for omega, ref in COVER_REFERENCE.items():
            assert covering_radius_bound(omega) == pytest.approx(ref, abs=1e-5)

    def test_diameter_bound_thin_limit(self):
        assert diameter_bound(1e-9) < 1e-6

    def test_coarse_bound_right_endpoint(self):
        assert diameter_bound_coarse(0.5 * math.pi) == pytest.approx(
            0.5 * math.pi, abs=1e-15)

    def test_coarse_bound_open_left_endpoint(self):
        with pytest.raises(DomainError):
            diameter_bound_coarse(0.0)

    def test_sharp_below_coarse_on_grid(self):
        for k in range(1, 200):
            omega = 0.5 * math.pi * k / 200
            assert diameter_bound(omega) < diameter_bound_coarse(omega)

    def test_cover_radius_consistent_with_diameter_bound(self):
        for omega in COVER_RADII:
            half = 0.5 * diameter_bound(omega)
            expected = math.asin(2.0 / math.sqrt(3.0) * math.sin(half))
            assert covering_radius_bound(omega) == pytest.approx(expected, abs=1e-10)


def reference_clamp(t):
    """The clamp the formulas used before their branch form."""
    return max(-1.0, min(1.0, t))


class TestClamp:
    # Float.hex tells the zeros' signs apart; NaN clamps to 1.0 on both sides.
    @pytest.mark.parametrize("t", [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                                   5e-324, -5e-324, 2.0**-1022 - 5e-324, 0.5, -0.5,
                                   math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
                                   math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)])
    def test_edge_values(self, t):
        assert _clamp(t).hex() == reference_clamp(t).hex()

    @given(st.floats())
    def test_float_sweep(self, t):
        assert _clamp(t).hex() == reference_clamp(t).hex()
