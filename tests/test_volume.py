"""Exact areas from both pipelines, decimal rendering, and threshold
comparison."""

from fractions import Fraction

import mpmath
import pytest

from bianchisurf.hermitian import SurfaceIndex, divisors_below_sqrt
from bianchisurf.verify import pairs_under
from bianchisurf.volume import (
    ExactArea,
    area_closed_form,
    area_via_order,
    compare_to_threshold,
)


def test_reference_multipliers():
    assert area_closed_form(SurfaceIndex(3, 1, 0, 1)).q == Fraction(1, 3)
    assert area_closed_form(SurfaceIndex(3, 0, -2, 1)).q == Fraction(2, 3)
    assert area_closed_form(SurfaceIndex(3, 0, -1, 1)).q == Fraction(4, 3)
    assert area_closed_form(SurfaceIndex(7, 1, 0, 1)).q == Fraction(1, 3)
    assert area_closed_form(SurfaceIndex(15, 5, -5, 1)).q == Fraction(24)


def test_area_ignores_divisor_class():
    for r in divisors_below_sqrt(15):
        assert area_closed_form(SurfaceIndex(15, 5, -5, r)).q == Fraction(24)
        assert area_via_order(SurfaceIndex(15, 5, -5, r)).q == Fraction(24)


def test_positive_multiplier_required():
    with pytest.raises(ValueError):
        ExactArea(Fraction(0))
    with pytest.raises(ValueError):
        ExactArea(Fraction(-1, 3))


def test_decimal_rendering():
    assert ExactArea(Fraction(2, 3)).decimal() == "2.094395102393195"
    assert ExactArea(Fraction(1, 3)).decimal(10) == "1.0471975512"
    assert ExactArea(Fraction(100)).decimal(3) == "314.159"


def test_compare_to_threshold():
    a = ExactArea(Fraction(2, 3))  # 2 pi / 3 = 2.0943951023...
    assert compare_to_threshold(a, "2.0943951") == 1
    assert compare_to_threshold(a, "2.0943952") == -1
    assert compare_to_threshold(a, Fraction(21, 10)) == -1
    assert compare_to_threshold(a, 2) == 1
    assert compare_to_threshold(a, "-5") == 1
    # many digits of 2 pi / 3; the interval must keep widening until it
    # resolves the sign
    assert compare_to_threshold(a, "2.09439510239319549230842892218633") == 1


def test_compare_to_threshold_restores_precision():
    a = ExactArea(Fraction(2, 3))
    before = mpmath.mp.dps
    assert compare_to_threshold(a, Fraction("2.0943951023931954923")) == 1
    assert mpmath.mp.dps == before
    # 33 digits of 2 pi / 3: decided only after the interval is widened
    # to a second working precision
    assert compare_to_threshold(a, "2.09439510239319549230842892218633") == 1
    assert mpmath.mp.dps == before


def test_dual_routes_agree_quick():
    for m, c, d0, D in pairs_under(3, 40):
        idx = SurfaceIndex(3, m, c, 1)
        assert area_closed_form(idx).q == area_via_order(idx).q
