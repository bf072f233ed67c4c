"""Exact areas from both pipelines, decimal rendering, and threshold
comparison."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bianchisurf
from bianchisurf.hermitian import SurfaceIndex, divisors_below_sqrt
from bianchisurf.verify import pairs_under
from bianchisurf.volume import (
    ExactArea,
    area_closed_form,
    area_via_order,
    compare_to_threshold,
    pi_bracket,
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


def test_decimal_without_places():
    assert ExactArea(Fraction(100)).decimal(0) == "314"
    assert ExactArea(Fraction(1, 3)).decimal(0) == "1"
    assert ExactArea(Fraction(1, 10)).decimal(0) == "0"
    assert ExactArea(Fraction(1, 6)).decimal(0) == "1"  # pi/6 = 0.52...
    with pytest.raises(ValueError):
        ExactArea(Fraction(1, 3)).decimal(-1)


def test_compare_to_threshold():
    a = ExactArea(Fraction(2, 3))  # 2 pi / 3 = 2.0943951023...
    assert compare_to_threshold(a, "2.0943951") == 1
    assert compare_to_threshold(a, "2.0943952") == -1
    assert compare_to_threshold(a, Fraction(21, 10)) == -1
    assert compare_to_threshold(a, 2) == 1
    assert compare_to_threshold(a, "-5") == 1
    # 33 digits of 2 pi / 3, far more than floats resolve
    assert compare_to_threshold(a, "2.09439510239319549230842892218633") == 1


def test_compare_to_threshold_restores_precision():
    a = ExactArea(Fraction(2, 3))
    before = mpmath.mp.dps
    assert compare_to_threshold(a, Fraction("2.0943951023931954923")) == 1
    assert mpmath.mp.dps == before
    # 33 digits of 2 pi / 3: the first (60-digit) pi bracket decides it
    assert compare_to_threshold(a, "2.09439510239319549230842892218633") == 1
    assert mpmath.mp.dps == before


def _q_pi_rounded(q: Fraction, digits: int) -> Fraction:
    """q * pi rounded to `digits` significant digits, via mpmath at 200."""
    with mpmath.workdps(200):
        area = mpmath.mpf(q.numerator) / q.denominator * mpmath.pi
        return Fraction(mpmath.nstr(area, digits))


def _oracle_sign(q: Fraction, x: Fraction) -> int:
    """Sign of q * pi - x at 200 digits, or 0 when too close to tell."""
    with mpmath.workdps(200):
        xm = mpmath.mpf(x.numerator) / x.denominator
        diff = mpmath.mpf(q.numerator) / q.denominator * mpmath.pi - xm
        if abs(diff) <= mpmath.mpf(10) ** -180 * (1 + abs(xm)):
            return 0
        return 1 if diff > 0 else -1


_multipliers = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(_multipliers, st.integers(1, 120), st.integers(-3, 3))
def test_compare_to_threshold_matches_mpmath(q, digits, nudge):
    # q * pi rounded to up to 120 digits, then moved by a few units in the
    # last place: from 60 digits on, the first bracket straddles such a
    # threshold and must be widened
    x = _q_pi_rounded(q, digits)
    x += nudge * x / 10**digits
    want = _oracle_sign(q, x)
    assume(want != 0)
    assert compare_to_threshold(ExactArea(q), x) == want


@settings(max_examples=300, deadline=None)
@given(_multipliers, st.integers(1, 90))
def test_decimal_matches_mpmath(q, places):
    with mpmath.workdps(200):
        area = mpmath.mpf(q.numerator) / q.denominator * mpmath.pi
        k = int(mpmath.nint(area * 10**places))
    digits = str(k).zfill(places + 1)
    assert ExactArea(q).decimal(places) == digits[:-places] + "." + digits[-places:]


def test_bracket_widens_only_when_it_straddles():
    a = ExactArea(Fraction(2, 3))
    pi_bracket.cache_clear()
    assert compare_to_threshold(a, "2.09439510239319549230842892218633") == 1
    assert pi_bracket.cache_info().misses == 1
    for digits in (80, 100):
        x = _q_pi_rounded(a.q, digits)
        pi_bracket.cache_clear()
        assert compare_to_threshold(a, x) == _oracle_sign(a.q, x)
        # 60 digits straddle x; 120 decide it
        assert pi_bracket.cache_info().misses == 2


def test_pi_bracket_encloses_pi():
    for digits in [*range(1, 301), 480, 960]:
        lo, hi, scale = pi_bracket(digits)
        assert scale == 10**digits
        assert hi - lo < 40 * digits + 100
        with mpmath.workdps(digits + 20):
            assert mpmath.mpf(lo) / scale < mpmath.pi < mpmath.mpf(hi) / scale


@pytest.mark.parametrize("side", [1, -1])
def test_decimal_at_a_rounding_edge(side):
    # q * pi * 10^3 lies within 10^-150 of 1234.5, so q * pi_lo * 10^3
    # rounds down whichever side it is on; only compare_to_threshold at
    # the edge can tell 1.235 from 1.234
    with mpmath.workdps(200):
        q = Fraction(mpmath.nstr(mpmath.mpf("1.2345") / mpmath.pi, 160))
    while _oracle_sign(q, Fraction("1.2345")) != side:
        q += side * Fraction(1, 10**155)
    assert ExactArea(q).decimal(3) == ("1.235" if side > 0 else "1.234")


def test_library_runs_without_mpmath():
    src = str(Path(bianchisurf.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import bianchisurf as b\n"
        "area = b.area_closed_form(b.SurfaceIndex(3, 0, -2, 1))\n"
        "assert area.decimal(30) == '2.094395102393195492308428922186'\n"
        "assert b.xi(3, Fraction('2.2')) == 5\n"
        "assert len(b.enumerate_surfaces(15, 30)) > 0\n"
        "x = '2.0943951023931954923084289221863352561314462662500705473166297282'\n"
        "assert b.compare_to_threshold(area, x) == 1\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_dual_routes_agree_quick():
    for m, c, d0, D in pairs_under(3, 40):
        idx = SurfaceIndex(3, m, c, 1)
        assert area_closed_form(idx).q == area_via_order(idx).q
