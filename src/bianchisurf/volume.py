"""Exact surface areas, twice.

area_closed_form evaluates the explicit Euler-factor formula attached to the
surface index.  area_via_order rebuilds the same number from the quaternion
order: reduced discriminant from the trace form, local symbols and norm
indices from brute-force residue enumeration.  The two code paths share no
local computation, which is what makes their agreement a real test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .hermitian import SurfaceIndex, pullback_circle, surface_invariants
from .ntkernel import character, factorize, legendre
from .quatorder import (
    build_order,
    eichler_symbol_bruteforce,
    nrd_index_bruteforce,
    reduced_discriminant,
)


@dataclass(frozen=True)
class ExactArea:
    """area = q * pi with q an exact positive rational."""

    q: Fraction

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ValueError(f"area multiplier must be positive, got {self.q}")

    def decimal(self, places: int = 15) -> str:
        """The area rounded to a fixed number of decimal places."""
        with mpmath.workdps(places + 25):
            val = mpmath.mpf(self.q.numerator) / self.q.denominator * mpmath.pi
            scaled = int(mpmath.nint(val * 10**places))
        digits = str(scaled).zfill(places + 1)
        return digits[:-places] + "." + digits[-places:]


def area_closed_form(idx: SurfaceIndex) -> ExactArea:
    """Area multiplier from the explicit formula; never reads idx.r."""
    d = idx.d
    d0, D = surface_invariants(idx)
    chi = character(d)
    q = Fraction(d, d0 * d0) / 3
    side_primes = [p for p, _ in factorize(d // d0).factors] if d > d0 else []
    omega_shared = sum(1 for p in side_primes if D % p == 0)
    q /= 2**omega_shared
    for p in side_primes:
        q *= Fraction(p * p - 1, p * p) / (1 - Fraction(legendre(D, p), p))
    q *= D
    for p, _ in factorize(D).factors:
        if d % p:
            q *= 1 + Fraction(chi.at_prime(p), p)
    return ExactArea(q)


def area_via_order(idx: SurfaceIndex) -> ExactArea:
    """Area multiplier recomputed through the order: (1/3) * Drd * prod of
    local factors (1 - p^-2)/(1 - e_p p^-1) divided by the unit-norm
    indices, using only brute-force local data at odd p."""
    order = build_order(pullback_circle(idx))
    drd = reduced_discriminant(order)
    q = Fraction(drd, 3)
    for p, _ in factorize(drd).factors:
        eps = eichler_symbol_bruteforce(order, p)
        q *= (1 - Fraction(1, p * p)) / (1 - Fraction(eps, p))
        if p > 2:
            q /= nrd_index_bruteforce(order, p)
        # the local norm index at p = 2 is 1
    return ExactArea(q)


def compare_to_threshold(area: ExactArea, threshold: str | Fraction) -> int:
    """Sign of q*pi - threshold (+1 or -1), decided with interval bounds on
    pi widened until the interval misses the threshold.  Never 0: a rational
    threshold cannot equal an irrational area."""
    x = Fraction(threshold)
    if x <= 0:
        return 1
    q = area.q
    dps = 30
    while True:
        with mpmath.workdps(dps):
            pi_lo = mpmath.mpf(mpmath.pi) * (1 - mpmath.mpf(10) ** (3 - dps))
            pi_hi = mpmath.mpf(mpmath.pi) * (1 + mpmath.mpf(10) ** (3 - dps))
        lo = Fraction(q.numerator, q.denominator) * _to_fraction(pi_lo)
        hi = Fraction(q.numerator, q.denominator) * _to_fraction(pi_hi)
        if lo > x:
            return 1
        if hi < x:
            return -1
        dps *= 2
        if dps > 10_000:
            raise RuntimeError("threshold comparison failed to converge")


def _to_fraction(v: "mpmath.mpf") -> Fraction:
    num, den = mpmath.libmp.to_rational(v._mpf_)
    return Fraction(num, den)
