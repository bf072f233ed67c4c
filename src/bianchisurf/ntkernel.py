"""Elementary number theory shared by every other module.

Integer factorization backed by a smallest-prime-factor sieve, Legendre
symbols, the quadratic character of an imaginary quadratic field as one
read-only table, divisor statistics and bulk prime blocks for Euler products.
Scalar results are exact integers; numpy appears only in sieves and tables.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    return factorize(n).factors == ((n, 1),)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer, primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

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


def symbol_table(p: int) -> np.ndarray:
    """The Legendre symbols (r/p), 0 <= r < p, at an odd prime p below
    _SIEVE_LIMIT, as one read-only int64 array built from the squares mod p."""
    if not (2 < p < _SIEVE_LIMIT and is_prime(p)):
        raise ValueError(f"symbol_table requires an odd prime below {_SIEVE_LIMIT}, got p={p}")
    out = np.full(p, -1, dtype=np.int64)
    out[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    out[0] = 0
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuadraticCharacter:
    """Quadratic character chi_{-d} of discriminant -d for square-free d = 3
    mod 4, or chi_{-4} when d = 4: the Jacobi symbol (n/d) = prod_{p|d} (n/p),
    as reciprocity gives (-d/q) = (q/d) at odd primes q not dividing d, the
    mod-8 rule gives (-d/2) = (2/d), and both vanish on p | d.  So chi is one
    int64 table of period d, built once from symbol_table at each p | d and
    not writeable: chi(n) = table[n % d].  A d of _SIEVE_LIMIT or more is
    refused at construction, so no table outgrows _SPF.
    """

    d: int

    def __post_init__(self) -> None:
        if self.d == 4:
            return
        if self.d % 4 != 3 or not is_squarefree(self.d):
            raise ValueError(f"unsupported character modulus {self.d}")
        if self.d >= _SIEVE_LIMIT:  # no table larger than _SPF
            raise ValueError(f"character modulus {self.d} is past the table limit {_SIEVE_LIMIT}")

    @cached_property
    def table(self) -> np.ndarray:
        if self.d == 4:
            out = np.array([0, 1, 0, -1], dtype=np.int64)
        else:
            out = np.ones(self.d, dtype=np.int64)
            for p, _ in factorize(self.d).factors:
                out *= np.tile(symbol_table(p), self.d // p)
        out.flags.writeable = False
        return out

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"character argument must be nonnegative, got {n}")
        return int(self.table[n % self.d])


@lru_cache(maxsize=64)
def character(d: int) -> QuadraticCharacter:
    return QuadraticCharacter(d)


# integers per block of prime_blocks; also the checkpoint grid of census's
# Euler log-sums
PRIME_BLOCK = 1 << 21

# The wheel of prime_blocks: entry k is whether the odd number 2k + 1 is prime
# to 3, 5, 7, 11 and 13, a pattern of period 15015 in k (15 KB).
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.ones(math.prod(_WHEEL_PRIMES), dtype=bool)
for _q in _WHEEL_PRIMES:
    _WHEEL[(_q - 1) // 2 :: _q] = False
del _q


def prime_blocks(limit: int, block: int = PRIME_BLOCK, start: int = 3) -> Iterator[np.ndarray]:
    """Yield the primes p with start <= p < limit as ascending int64 arrays,
    with the 2 as well whenever start <= 3, so the default start covers
    every prime below limit.

    Segmented odd-only sieve over the blocks [start + k block, start + (k + 1)
    block), block in integers covered, not primes produced; every yielded
    array lies inside one of them, except that the 2 leads the first.  Empty
    blocks are not yielded.

    Each segment starts from the wheel _WHEEL, rolled to its first odd number
    and doubled out to its length, so the multiples of 3, 5, 7, 11 and 13 are
    already struck and the wheel primes themselves are put back.  The first
    hit of every other sieving prime is computed in one array pass, and only
    the primes that hit the segment strike it.

    The sieving primes are read from PRIMES, which holds every one up to
    sqrt(limit) while limit <= 1e12; a larger limit is refused before any
    block is yielded.
    """
    if limit > _FACTOR_LIMIT:
        raise ValueError(f"prime_blocks supports limit <= {_FACTOR_LIMIT}, got {limit}")
    if limit <= 2 or (start > 3 and start >= limit):
        return
    base = np.array(PRIMES[len(_WHEEL_PRIMES) + 1 : bisect_right(PRIMES, math.isqrt(limit - 1))], dtype=np.int64)

    two = start <= 3
    # at least one pass, so that limit = 3 still yields the 2
    for lo in range(start, max(limit, start + 1), block):
        hi = min(lo + block, limit)
        first = max(lo | 1, 3)
        n = max(hi - first + 1, 0) // 2
        # seg[i] stands for first + 2 i, the odd number of wheel index
        # (first - 1) // 2 + i
        seg = np.empty(n, dtype=bool)
        seg[: len(_WHEEL)] = np.roll(_WHEEL, -((first - 1) // 2))[:n]
        k = len(_WHEEL)
        while k < n:
            seg[k : 2 * k] = seg[: min(k, n - k)]
            k *= 2
        for q in _WHEEL_PRIMES:
            if first <= q < hi:
                seg[(q - first) // 2] = True
        # the first odd multiple of p in the segment, from p * p on
        hit = np.maximum(base * base, -(-first // base) * base)
        hit += base * (hit % 2 == 0)
        index = (hit - first) // 2
        strikes = index < n
        for j, p in zip(index[strikes].tolist(), base[strikes].tolist()):
            seg[j::p] = False
        primes = first + 2 * np.flatnonzero(seg)
        if two:
            primes = np.concatenate([np.array([2], dtype=np.int64), primes])
            two = False
        if len(primes):
            yield primes
