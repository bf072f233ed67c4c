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
from functools import lru_cache

from .hermitian import SurfaceIndex, pullback_circle, surface_invariants
from .ntkernel import character, factorize, legendre
from .quatorder import (
    build_order,
    eichler_symbol_bruteforce,
    nrd_index_bruteforce,
    reduced_discriminant,
)

PI_DIGITS = 60  # of the first pi bracket; a straddling one doubles them


@dataclass(frozen=True)
class ExactArea:
    """area = q * pi with q an exact positive rational."""

    q: Fraction

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ValueError(f"area multiplier must be positive, got {self.q}")

    def decimal(self, places: int = 15) -> str:
        """The area rounded to a fixed number of decimal places.  Rounding
        q * pi_lo * 10^places cannot overshoot, as pi_lo < pi; k is raised
        until compare_to_threshold puts the area below (k + 1/2)/10^places."""
        scale = 10**places
        lo, _, pi_scale = pi_bracket(PI_DIGITS + places)
        k = round(self.q * scale * Fraction(lo, pi_scale))
        while compare_to_threshold(self, Fraction(2 * k + 1, 2 * scale)) > 0:
            k += 1
        digits = str(k).zfill(places + 1)
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


@lru_cache(maxsize=16)
def pi_bracket(digits: int) -> tuple[int, int, int]:
    """(lo, hi, scale) with lo / scale < pi < hi / scale, scale = 10^digits and
    hi - lo about 25 * digits, from Machin's 16 arctan(1/5) - 4 arctan(1/239)
    in integers.  The only source of pi in every exact decision."""
    scale = 10**digits
    mid = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        # each term floor(scale / ((2k+1) x^(2k+1))) is off by less than 1;
        # the first term below 1 ends the sum and bounds its remainder
        k, power = 0, scale // x
        while power:
            mid += (-1) ** k * weight * (power // (2 * k + 1))
            power //= x * x
            k += 1
        err += abs(weight) * (k + 1)
    return mid - err, mid + err, scale


def compare_to_threshold(area: ExactArea, threshold: str | Fraction) -> int:
    """Sign of q*pi - threshold (+1 or -1) by integer cross-multiplication
    with pi_bracket, its digits doubled from PI_DIGITS while it straddles.
    Never 0: a rational threshold cannot equal an irrational area."""
    x = Fraction(threshold)
    if x <= 0:
        return 1
    v, u = area.q.numerator * x.denominator, x.numerator * area.q.denominator
    for doublings in range(8):
        lo, hi, scale = pi_bracket(PI_DIGITS << doublings)
        if v * lo > u * scale:
            return 1
        if v * hi < u * scale:
            return -1
    raise RuntimeError("threshold comparison failed to converge")
