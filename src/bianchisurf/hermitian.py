"""Circles on the boundary sphere and their integer hermitian data.

A circle a|z|^2 + 2Re(b sqrt(-d) z-bar) + c0 = 0 is stored as the integer
triple (a, b, c0).  This module produces the canonical representatives
indexed by (m, c), the coset matrices used to spread each representative
over the divisor classes r | d, and the pulled-back reduced coefficients
that feed the quaternion-order construction.  Everything is exact; elements
of Q(sqrt(-d)) are (rational, rational) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .ntkernel import is_squarefree


@dataclass(frozen=True)
class QuadExt:
    """An element re + im*sqrt(-d) of Q(sqrt(-d)); d carried alongside."""

    d: int
    re: Fraction
    im: Fraction

    @staticmethod
    def of(d: int, re, im=0) -> "QuadExt":
        return QuadExt(d, Fraction(re), Fraction(im))

    def __add__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.d, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.d, self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        # (a + b w)(c + e w) with w^2 = -d
        a, b, c, e = self.re, self.im, other.re, other.im
        return QuadExt(self.d, a * c - self.d * b * e, a * e + b * c)

    def __neg__(self) -> "QuadExt":
        return QuadExt(self.d, -self.re, -self.im)

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.d, self.re, -self.im)

    def scale(self, k) -> "QuadExt":
        k = Fraction(k)
        return QuadExt(self.d, self.re * k, self.im * k)

    def is_field_integer(self) -> bool:
        # O_d = Z[(1 + sqrt(-d))/2] for d = 3 mod 4: half-integers with
        # matching parity
        a2 = self.re * 2
        b2 = self.im * 2
        if a2.denominator != 1 or b2.denominator != 1:
            return False
        return (a2.numerator - b2.numerator) % 2 == 0


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Q(sqrt(-d))."""

    e00: QuadExt
    e01: QuadExt
    e10: QuadExt
    e11: QuadExt

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 + other.e00,
            self.e01 + other.e01,
            self.e10 + other.e10,
            self.e11 + other.e11,
        )

    def scale(self, k) -> "Mat2":
        return Mat2(
            self.e00.scale(k), self.e01.scale(k), self.e10.scale(k), self.e11.scale(k)
        )

    def conj_transpose(self) -> "Mat2":
        return Mat2(
            self.e00.conjugate(),
            self.e10.conjugate(),
            self.e01.conjugate(),
            self.e11.conjugate(),
        )

    def det(self) -> QuadExt:
        return self.e00 * self.e11 - self.e01 * self.e10

    def entries(self) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt]:
        return (self.e00, self.e01, self.e10, self.e11)

    @staticmethod
    def identity(d: int) -> "Mat2":
        one = QuadExt.of(d, 1)
        zero = QuadExt.of(d, 0)
        return Mat2(one, zero, zero, one)


@dataclass(frozen=True)
class HermitianCircle:
    """Integer circle a|z|^2 + 2Re(b sqrt(-d) z-bar) + c0 = 0."""

    d: int
    a: int
    b: int
    c0: int

    @property
    def determinant(self) -> int:
        # b^2 d - a c0; positive radius when a != 0 requires this > 0
        return self.b * self.b * self.d - self.a * self.c0

    def matrix(self) -> Mat2:
        """The hermitian matrix [[a, b w],[-b w, c0]] with w = sqrt(-d)."""
        d = self.d
        return Mat2(
            QuadExt.of(d, self.a),
            QuadExt.of(d, 0, self.b),
            QuadExt.of(d, 0, -self.b),
            QuadExt.of(d, self.c0),
        )


@dataclass(frozen=True)
class CosetMatrix:
    d: int
    r: int
    s: int
    u: int
    v: int

    def matrix(self) -> Mat2:
        d = self.d
        return Mat2(
            QuadExt.of(d, 0, 1),
            QuadExt.of(d, self.r),
            QuadExt.of(d, self.v * self.r),
            QuadExt.of(d, 0, -self.u),
        )


@dataclass(frozen=True)
class SurfaceIndex:
    """One surface: circle index (m, c) spread by the divisor class r."""

    d: int
    m: int
    c: int
    r: int

    def __post_init__(self) -> None:
        d, m, c, r = self.d, self.m, self.c, self.r
        if not is_squarefree(d) or d % 4 != 3:
            raise ValueError(f"d must be square-free and 3 mod 4, got {d}")
        if not (0 <= m < d):
            raise ValueError(f"m must lie in [0, {d}), got {m}")
        if m * m <= c * d:
            raise ValueError(f"degenerate circle: m^2 = {m*m} <= c*d = {c*d}")
        if r <= 0 or d % r or r * r >= d:
            raise ValueError(f"r must be a divisor of {d} below sqrt({d}), got {r}")


def divisors_below_sqrt(d: int) -> list[int]:
    """Divisors r of d with r < sqrt(d), ascending; tau(d)/2 of them for
    non-square d."""
    return [r for r in range(1, isqrt(d) + 1) if d % r == 0 and r * r != d]


def canonical_circle(d: int, m: int, c: int) -> HermitianCircle:
    """The representative circle d|z|^2 + 2Re(m sqrt(-d) z-bar) + dc = 0."""
    if not (0 <= m < d):
        raise ValueError(f"m must lie in [0, {d}), got {m}")
    if m * m <= c * d:
        raise ValueError(f"degenerate circle: m^2 = {m*m} <= c*d = {c*d}")
    return HermitianCircle(d, d, m, d * c)


def sigma_r(d: int, r: int) -> CosetMatrix:
    """The matrix [[w, r],[v r, -u w]] with w = sqrt(-d), s u - r v = 1,
    v even of minimal absolute value.

    Determinant is r: u d - r^2 v = r (s u - r v) with s = d/r.  The v with
    s u - r v = 1 are the class of -r^-1 (mod s).  Take its least
    nonnegative member, minus s if odd: s is odd, so that is even, lies
    strictly between -s and s, and every other even member is at least
    2s - |v| > |v| away from 0.
    """
    if not is_squarefree(d) or d % 4 != 3:
        raise ValueError(f"d must be square-free and 3 mod 4, got {d}")
    if r <= 0 or d % r or r * r >= d:
        raise ValueError(f"r must divide {d} and satisfy r < sqrt(d), got {r}")
    s = d // r
    v = -pow(r, -1, s) % s
    if v % 2:
        v -= s
    return CosetMatrix(d, r, s, (1 + r * v) // s, v)


def pullback_circle(idx: SurfaceIndex) -> HermitianCircle:
    """Coefficients of the circle pulled back through the coset matrix for
    (d, r), divided by gcd(m, d) and sign-normalized to a > 0.

    The determinant b^2 d - a c0 of the result equals the invariant D of
    d0_and_D, and a is odd because v is even.
    """
    d, m, c, r = idx.d, idx.m, idx.c, idx.r
    sig = sigma_r(d, r)
    s, u, v = sig.s, sig.u, sig.v
    g = gcd(m, d)
    a = (d // g) * (s + 2 * m * v + c * r * v * v)
    b = -((m // g) * (r * v + s * u) + (d // g) * (1 + c * u * v))
    c0 = (d // g) * (c * s * u * u + 2 * m * u + r)
    if a < 0:
        a, b, c0 = -a, -b, -c0
    if a % 2 == 0:
        raise ValueError(f"parity violated: pullback leading coefficient {a} is even")
    return HermitianCircle(d, a, b, c0)


def d0_and_D(d: int, m: int, c: int) -> tuple[int, int]:
    """(d0, D) = (d/(m,d), (m^2 d - c d^2)/(m,d)^2); requires m^2 > cd."""
    if m * m <= c * d:
        raise ValueError(f"degenerate circle: m^2 = {m*m} <= c*d = {c*d}")
    g = gcd(m, d)
    d0 = d // g
    D = (m * m * d - c * d * d) // (g * g)
    return d0, D


def surface_invariants(idx: SurfaceIndex) -> tuple[int, int]:
    return d0_and_D(idx.d, idx.m, idx.c)


def verify_gcd_identities(idx: SurfaceIndex) -> bool:
    """Both coprimality claims for the pulled-back circle:
    gcd(a, b, c0) = 1 and gcd(a, d, c0) = d0."""
    circle = pullback_circle(idx)
    d0, _ = surface_invariants(idx)
    eq1 = gcd(gcd(circle.a, circle.b), circle.c0) == 1
    eq2 = gcd(gcd(circle.a, idx.d), circle.c0) == d0
    return eq1 and eq2
