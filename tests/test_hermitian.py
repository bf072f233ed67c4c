"""Circle representatives, coset matrices, and pullback invariants."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchisurf.hermitian import (
    SurfaceIndex,
    d0_and_D,
    divisors_below_sqrt,
    pullback_circle,
    sigma_r,
    surface_invariants,
    verify_gcd_identities,
)
from bianchisurf.ntkernel import is_squarefree
from bianchisurf.verify import pairs_under
from oracle_rational import Mat2, QuadExt, canonical_circle, circle_matrix, coset_matrix

FIELD_DS = [d for d in range(3, 200, 4) if is_squarefree(d)]


def test_quadext_multiplication_squares_to_minus_d():
    w = QuadExt.of(7, 0, 1)
    assert w * w == QuadExt.of(7, -7)
    z = QuadExt.of(7, 2, 3)
    prod = z * z.conjugate()
    assert prod == QuadExt.of(7, 4 + 9 * 7)  # norm is rational


def test_quadext_field_integers():
    assert QuadExt.of(3, 1, 1).is_field_integer()
    assert QuadExt.of(3, Fraction(1, 2), Fraction(1, 2)).is_field_integer()
    assert QuadExt.of(3, Fraction(3, 2), Fraction(-1, 2)).is_field_integer()
    assert not QuadExt.of(3, Fraction(1, 2), 1).is_field_integer()
    assert not QuadExt.of(3, Fraction(1, 3), 0).is_field_integer()


def test_mat2_identity_and_det():
    eye = Mat2.identity(3)
    g = coset_matrix(sigma_r(3, 1))
    assert eye @ g == g
    assert g @ eye == g
    assert g.det() == QuadExt.of(3, 1)


def test_hermitian_matrix_is_selfadjoint():
    circ = canonical_circle(15, 2, -1)
    h = circle_matrix(circ)
    assert h.conj_transpose() == h


def test_canonical_circle_example():
    circ = canonical_circle(3, 1, -1)
    assert (circ.d, circ.a, circ.b, circ.c0) == (3, 3, 1, -3)
    assert circ.determinant == 1 * 3 - 3 * (-3)


def test_canonical_circle_rejects_degenerate():
    with pytest.raises(ValueError):
        canonical_circle(3, 1, 1)  # m^2 = 1 <= c d = 3
    with pytest.raises(ValueError):
        canonical_circle(3, 5, -1)  # m out of range


def test_sigma_r_reference_values():
    s15 = sigma_r(15, 3)
    assert (s15.s, s15.u, s15.v) == (5, -1, -2)
    s3 = sigma_r(3, 1)
    assert (s3.s, s3.u, s3.v) == (3, 1, 2)


def test_sigma_r_bezout_and_determinant():
    for d in FIELD_DS:
        for r in divisors_below_sqrt(d):
            sig = sigma_r(d, r)
            assert sig.s == d // r
            assert sig.s * sig.u - r * sig.v == 1
            assert sig.v % 2 == 0
            assert sig.u * d - r * r * sig.v == r  # determinant identity
            assert coset_matrix(sig).det() == QuadExt.of(d, r)


def test_sigma_r_minimal_even_v():
    # against a search over every even v with |v| <= 2s: the least |v|, ties
    # toward positive v, solving s u - r v = 1
    for d in range(3, 2000, 4):
        if not is_squarefree(d):
            continue
        for r in divisors_below_sqrt(d):
            s = d // r
            v = min((v for v in range(-2 * s, 2 * s + 1, 2) if (1 + r * v) % s == 0), key=lambda v: (abs(v), -v))
            sig = sigma_r(d, r)
            assert (sig.s, sig.u, sig.v) == (s, (1 + r * v) // s, v)


def test_sigma_r_rejects_bad_input():
    with pytest.raises(ValueError):
        sigma_r(12, 1)  # not square-free... 12 = 4*3
    with pytest.raises(ValueError):
        sigma_r(5, 1)  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        sigma_r(15, 5)  # 5^2 > 15
    with pytest.raises(ValueError):
        sigma_r(15, 2)  # 2 does not divide 15


def test_surface_index_validation():
    SurfaceIndex(3, 1, -1, 1)
    with pytest.raises(ValueError):
        SurfaceIndex(3, 3, -1, 1)  # m out of range
    with pytest.raises(ValueError):
        SurfaceIndex(3, 1, 1, 1)  # degenerate
    with pytest.raises(ValueError):
        SurfaceIndex(3, 1, -1, 2)  # r does not divide d
    with pytest.raises(ValueError):
        SurfaceIndex(3, 1, -1, 3)  # r^2 >= d
    with pytest.raises(ValueError):
        SurfaceIndex(4, 1, 0, 1)  # d = 4 is for the counting constant only
    with pytest.raises(ValueError):
        SurfaceIndex(27, 6, 1, 1)  # not square-free


def test_pullback_reference_values():
    pb = pullback_circle(SurfaceIndex(3, 1, -1, 1))
    assert (pb.a, pb.b, pb.c0) == (9, -2, 0)
    assert pb.determinant == 12
    assert pullback_circle(SurfaceIndex(3, 0, -1, 1)).determinant == 1


def test_d0_and_D_values():
    assert d0_and_D(3, 0, -1) == (1, 1)
    assert d0_and_D(3, 1, -1) == (3, 12)
    assert d0_and_D(15, 5, -5) == (3, 60)
    with pytest.raises(ValueError):
        d0_and_D(3, 1, 1)


def test_pullback_matches_conjugated_circle():
    # sigma^* C sigma recovers the pullback up to the scale gcd(m,d)*r and
    # the sign fixed by a > 0
    cases = [(3, 1, -1, 1), (3, 0, -1, 1), (15, 5, -5, 3), (15, 2, -1, 1), (15, 2, -1, 3), (23, 7, 2, 1)]
    for d, m, c, r in cases:
        idx = SurfaceIndex(d, m, c, r)
        sig = coset_matrix(sigma_r(d, r))
        conj = sig.conj_transpose() @ circle_matrix(canonical_circle(d, m, c)) @ sig
        scale = gcd(m, d) * r
        pb = circle_matrix(pullback_circle(idx))
        assert conj == pb.scale(scale) or conj == pb.scale(-scale)


def test_pullback_leading_coefficient_odd():
    for d in (7, 15, 23):
        for m, c, d0, D in pairs_under(d, 150):
            for r in divisors_below_sqrt(d):
                pb = pullback_circle(SurfaceIndex(d, m, c, r))
                assert pb.a % 2 == 1 and pb.a > 0


def test_pullback_determinant_equals_D():
    for d in (7, 15):
        for m, c, d0, D in pairs_under(d, 150):
            for r in divisors_below_sqrt(d):
                idx = SurfaceIndex(d, m, c, r)
                assert pullback_circle(idx).determinant == D
                assert surface_invariants(idx) == (d0, D)


def test_gcd_identities_exhaustive_small_range():
    for d in (7, 15):
        for m, c, d0, D in pairs_under(d, 100):
            for r in divisors_below_sqrt(d):
                assert verify_gcd_identities(SurfaceIndex(d, m, c, r))


def test_divisors_below_sqrt():
    assert divisors_below_sqrt(3) == [1]
    assert divisors_below_sqrt(15) == [1, 3]
    assert divisors_below_sqrt(105) == [1, 3, 5, 7]


@given(
    st.sampled_from([3, 7, 15, 23]),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_quadext_norm_multiplicative(d, a, b, c, e):
    z1 = QuadExt.of(d, a, b)
    z2 = QuadExt.of(d, c, e)
    n1 = (z1 * z1.conjugate()).re
    n2 = (z2 * z2.conjugate()).re
    z12 = z1 * z2
    assert (z12 * z12.conjugate()).re == n1 * n2
