"""The benchmark's own arithmetic, written apart from bianchisurf.

Inputs are generated and answers are checked with these functions, never with
the library under test: trial-division factoring, the quadratic character,
the closed-form surface area, Machin bounds on pi, a certified stop bound for
recounting surfaces, and a plain Euler product for the counting constant C.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division, primes ascending."""
    if n < 1:
        raise ValueError(f"factor needs n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> list[int]:
    return [p for p, _ in factor(n)]


def divisor_classes(d: int) -> int:
    """Number of divisors r of the square-free d with r^2 < d: tau(d)/2."""
    return 2 ** len(factor(d)) // 2


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def chi(d: int, p: int) -> int:
    """The quadratic character of Q(sqrt(-d)) at a prime p (d = 4: chi_{-4})."""
    if d == 4:
        return 0 if p == 2 else (1 if p % 4 == 1 else -1)
    if d % p == 0:
        return 0
    if p == 2:
        # -d = 1 (mod 4); the Kronecker symbol at 2 is +1 iff -d = 1 (mod 8)
        return 1 if (-d) % 8 == 1 else -1
    return legendre(-d, p)


def invariants(d: int, m: int, c: int) -> tuple[int, int]:
    """(d0, D) of the circle index (m, c)."""
    g = gcd(m, d)
    return d // g, (m * m * d - c * d * d) // (g * g)


def area_q(d: int, m: int, c: int) -> Fraction:
    """Area / pi of the surface with circle index (m, c), from the paper's
    closed form: d/(3 d0^2) D prod_{p | D, p not | d}(1 + chi(p)/p) times,
    for each prime p of d/d0, (1 - p^-2)/(1 - (D/p)/p), halved when p | D."""
    d0, D = invariants(d, m, c)
    q = Fraction(d, 3 * d0 * d0) * D
    for p in prime_factors(d // d0):
        leg = legendre(D, p)
        q *= Fraction(p * p - 1, p * p) / (1 - Fraction(leg, p))
        if leg == 0:
            q /= 2
    for p in prime_factors(D):
        if d % p:
            q *= 1 + Fraction(chi(d, p), p)
    return q


def _arctan_inv(x: int, scale: int) -> int:
    """scale * arctan(1/x), truncated term by term (error below 2 per term)."""
    total = 0
    term = scale // x
    k = 0
    while term:
        total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
        term //= x * x
        k += 1
    return total


@lru_cache(maxsize=None)
def pi_bounds(digits: int = 60) -> tuple[Fraction, Fraction]:
    """Rational lo < pi < hi from Machin's formula, |hi - lo| ~ 10^-digits."""
    scale = 10 ** (digits + 10)
    approx = 16 * _arctan_inv(5, scale) - 4 * _arctan_inv(239, scale)
    slack = 10**6  # far above the accumulated truncation error
    return Fraction(approx - slack, scale), Fraction(approx + slack, scale)


def below(q: Fraction, X: Fraction) -> bool:
    """Exactly whether q * pi < X."""
    lo, hi = pi_bounds()
    if q * hi < X:
        return True
    if q * lo > X:
        return False
    raise ArithmeticError(f"{q} * pi too close to {X} for the pi bounds")


def _phi_ratio_floor(n: int) -> float:
    """Lower bound on phi(n)/n for n >= 3 (Rosser-Schoenfeld 1962, Thm 15:
    n/phi(n) < e^gamma log log n + 2.50637 / log log n), with 0.1% slack.
    n * _phi_ratio_floor(n) is increasing for n >= 3."""
    ll = math.log(math.log(n))
    return 0.999 / (1.7811 * ll + 2.50637 / ll)


def _area_floor_coeff(d: int, d0: int) -> float:
    """k with area / pi >= k * phi(D) for every circle of this (d, d0): each
    prime of d/d0 contributes at least (1 - p^-2)/2, each prime of D not in
    d at least 1 - 1/p."""
    k = d / (3 * d0 * d0)
    for p in prime_factors(d // d0):
        k *= (1 - 1 / (p * p)) / 2
    return k


def circles_below(d: int, X: Fraction, price) -> list[tuple[int, int]]:
    """Every circle index (m, c) whose area price(d, m, c) * pi is below X.

    The loop runs c downward (D upward) for each residue m and stops once
    the certified floor k * pi * D * phi_floor(D) passes X; the floor keeps
    rising after that, so no later circle can fit."""
    pi_lo = float(pi_bounds()[0]) * (1 - 1e-12)
    Xf = float(X)
    out = []
    for m in range(d):
        d0, _ = invariants(d, m, 0)
        k = _area_floor_coeff(d, d0) * pi_lo
        c = (m * m - 1) // d
        while True:
            _, D = invariants(d, m, c)
            if D >= 3 and k * D * _phi_ratio_floor(D) > Xf * (1 + 1e-9):
                break
            if below(price(d, m, c), X):
                out.append((m, c))
            c -= 1
    return out


def prime_list(limit: int) -> list[int]:
    """Primes up to limit by a bytearray sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def euler_C(d: int, limit: int) -> tuple[float, float]:
    """(C_P, relative tail) for C = prod_p (1 - 1/p + 1/(p + chi(p))) over
    p <= limit.  Each factor is 1 + x with |x| <= 1/(p(p-1)), so the log of
    the tail beyond P is at most 1.01 * sum_{n > P} 1/(n(n-1)) = 1.01/P."""
    logs = []
    for p in prime_list(limit):
        ch = chi(d, p)
        logs.append(math.log1p(-ch / (p * (p + ch))))
    return math.exp(math.fsum(logs)), math.expm1(1.01 / limit)


def leading_census_form(d: int, C: float) -> float:
    """The census form of the linear coefficient of xi(X):
    3 C tau(d)/(2 pi) prod_{p | d}(1 + p^-2/(1 - 1/p)); 15 C/(4 pi) for d = 4."""
    if d == 4:
        return 15 * C / (4 * math.pi)
    local = math.prod(1 + 1 / (p * p) / (1 - 1 / p) for p in prime_factors(d))
    return 3 * C * 2 ** len(factor(d)) / (2 * math.pi) * local
