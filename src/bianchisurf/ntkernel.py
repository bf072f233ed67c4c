"""Elementary number theory shared by every other module.

Integer factorization backed by a smallest-prime-factor sieve, Legendre
symbols and the quadratic character of an imaginary quadratic field, divisor
statistics, and bulk prime generation for Euler products.  Scalar results are
exact integers; numpy appears only inside sieves and block enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

_SIEVE_LIMIT = 1_000_000

# Trial division uses sieved primes up to 1e6, so a surviving cofactor is
# prime exactly when it is below 1e12.
_FACTOR_LIMIT = _SIEVE_LIMIT * _SIEVE_LIMIT


def _smallest_factor_table(limit: int) -> np.ndarray:
    spf = np.arange(limit, dtype=np.int64)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if spf[p] == p:
            idx = np.arange(p * p, limit, p)
            untouched = spf[idx] == idx
            spf[idx[untouched]] = p
    return spf


_SPF = _smallest_factor_table(_SIEVE_LIMIT)

_prime_mask = _SPF == np.arange(_SIEVE_LIMIT)
_prime_mask[:2] = False
PRIMES: tuple[int, ...] = tuple(int(p) for p in np.nonzero(_prime_mask)[0])
del _prime_mask


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 1e12."""
    if n < 2:
        return False
    if n < _SIEVE_LIMIT:
        return int(_SPF[n]) == n
    if n >= _FACTOR_LIMIT:
        raise ValueError(f"is_prime supports n < {_FACTOR_LIMIT}, got {n}")
    for p in PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer, primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def num_distinct(self) -> int:
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Factor a positive integer n < 1e12 by sieve-backed trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= _FACTOR_LIMIT:
        raise ValueError(f"factorize supports n < {_FACTOR_LIMIT}, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    if m < _SIEVE_LIMIT:
        while m > 1:
            p = int(_SPF[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))
    for p in PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        # prime cofactor: no divisor up to min(1e6, sqrt(m)) survived
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def divisor_stats(n: int) -> tuple[int, int, list[int]]:
    """(tau, omega, sorted divisors) of n >= 1."""
    f = factorize(n)
    divisors = [1]
    for p, e in f.factors:
        divisors = [q * p**k for q in divisors for k in range(e + 1)]
    divisors.sort()
    tau = len(divisors)
    return tau, f.num_distinct, divisors


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return factorize(n).is_squarefree


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime, got p={p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def kronecker_at_two(a: int) -> int:
    """Kronecker symbol (a/2): 0 for even a, +1 for a = +-1 mod 8, else -1."""
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


@dataclass(frozen=True)
class QuadraticCharacter:
    """Quadratic character of the imaginary quadratic field with d = 3 mod 4
    square-free (discriminant -d), or the special modulus d = 4.

    On primes: chi(p) = legendre(-d, p) for odd p not dividing d, the
    mod-8 rule (-1)^((d^2-1)/8) at p = 2, and 0 on p | d.  Extended to all
    positive integers by complete multiplicativity; the result is periodic
    mod d, exposed by residue_table for bulk evaluation.
    """

    d: int

    def __post_init__(self) -> None:
        if self.d == 4:
            return
        if self.d % 4 != 3 or not is_squarefree(self.d):
            raise ValueError(f"unsupported character modulus {self.d}")

    def at_prime(self, p: int) -> int:
        if self.d == 4:
            if p == 2:
                return 0
            return 1 if p % 4 == 1 else -1
        if p == 2:
            return kronecker_at_two(-self.d)
        if self.d % p == 0:
            return 0
        return legendre(-self.d, p)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"character argument must be nonnegative, got {n}")
        if n == 0:
            return 0
        out = 1
        for p, e in factorize(n).factors:
            v = self.at_prime(p)
            if v == 0:
                return 0
            if e % 2 == 1:
                out *= v
        return out

    def residue_table(self) -> np.ndarray:
        """chi(k) for k = 0..d-1 as int64; chi(n) = table[n % d]."""
        return np.array([0] + [self(k) for k in range(1, self.d)], dtype=np.int64)


@lru_cache(maxsize=64)
def character(d: int) -> QuadraticCharacter:
    return QuadraticCharacter(d)


def chi(d: int, n: int) -> int:
    """chi_{-d}(n) (or chi_{-4} when d = 4)."""
    return character(d)(n)


def prime_blocks(limit: int, block: int = 1 << 24) -> Iterator[np.ndarray]:
    """Yield all primes below limit as ascending int64 arrays.

    Segmented odd-only sieve; the first yielded block starts with 2.  Block
    size is in integers covered, not primes produced.
    """
    if limit <= 2:
        return
    sq = math.isqrt(limit - 1)
    small = np.ones(sq + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(sq) + 1):
        if small[p]:
            small[p * p :: p] = False
    base_odd = [int(p) for p in np.nonzero(small)[0] if p > 2]

    first_block = True
    # at least one pass, so that limit = 3 still yields the 2
    for lo in range(3, max(limit, 4), block):
        hi = min(lo + block, limit)
        first = lo if lo % 2 else lo + 1
        seg = np.ones((hi - first + 1) // 2, dtype=bool)
        for p in base_odd:
            start = max(p * p, ((first + p - 1) // p) * p)
            if start >= hi:
                continue
            if start % 2 == 0:
                start += p
            seg[(start - first) // 2 :: p] = False
        primes = first + 2 * np.nonzero(seg)[0].astype(np.int64)
        if first_block:
            primes = np.concatenate([np.array([2], dtype=np.int64), primes])
            first_block = False
        if len(primes):
            yield primes
