"""Circles on the boundary sphere and their integer hermitian data.

A circle a|z|^2 + 2Re(b sqrt(-d) z-bar) + c0 = 0 is stored as the integer
triple (a, b, c0).  The representative circles are indexed by (m, c); this
module checks those indices, produces the coset matrices used to spread
each representative over the divisor classes r | d, and the pulled-back
reduced coefficients that feed the quaternion-order construction.  It is
integer arithmetic on the coefficients throughout; no element of
Q(sqrt(-d)) is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .ntkernel import is_squarefree


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


@dataclass(frozen=True)
class CosetMatrix:
    d: int
    r: int
    s: int
    u: int
    v: int


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
