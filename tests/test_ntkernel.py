import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchisurf.ntkernel import (
    _SPF,
    PRIME_BLOCK,
    PRIMES,
    QuadraticCharacter,
    character,
    divisor_stats,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    prime_blocks,
    symbol_table,
)


def test_factorize_known():
    f = factorize(9991)
    assert f.factors == ((97, 1), (103, 1))
    assert factorize(1).factors == ()
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))


def test_factorize_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**12)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert f.reconstruct() == n
    for p, e in f.factors:
        assert e >= 1 and is_prime(p)
        assert n % p**e == 0 and n % p ** (e + 1) != 0


def test_divisor_stats():
    tau, omega, divs = divisor_stats(105)
    assert (tau, omega) == (8, 3)
    assert divs == [1, 3, 5, 7, 15, 21, 35, 105]
    assert divisor_stats(1) == (1, 0, [1])


def test_is_squarefree():
    assert is_squarefree(15)
    assert not is_squarefree(12)
    assert is_squarefree(1)


def test_is_prime_spot():
    assert is_prime(2) and is_prime(97) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(9991)


def test_prime_blocks_agree_with_table():
    got = np.concatenate(list(prime_blocks(10_000)))
    want = [p for p in PRIMES if p < 10_000]
    assert got.tolist() == want


def test_prime_blocks_small_limits():
    for limit in range(61):
        naive = [n for n in range(2, limit) if all(n % k for k in range(2, n))]
        for block in (2, 7, PRIME_BLOCK):
            assert [int(p) for b in prime_blocks(limit, block) for p in b] == naive


def test_prime_blocks_start():
    # the primes in [start, limit), and the 2 whenever start <= 3; each block
    # inside one [start + k block, start + (k + 1) block), bar the leading 2
    for limit in range(61):
        for start in (0, 2, 3, 4, 5, 9, 10):
            naive = [n for n in range(2, limit) if all(n % k for k in range(2, n)) and (n >= start or start <= 3)]
            for block in (2, 7, PRIME_BLOCK):
                blocks = [b.tolist() for b in prime_blocks(limit, block, start)]
                assert [p for b in blocks for p in b] == naive
                assert all(b for b in blocks)
                for i, b in enumerate(blocks):
                    inner = b[1:] if i == 0 and b[0] == 2 else b
                    assert len({(p - start) // block for p in inner}) <= 1


def test_prime_blocks_match_the_factor_table_across_the_wheel():
    # each segment starts from the wheel of period 15015 (odd numbers prime to
    # 3 5 7 11 13, which are put back), so blocks near and across that period,
    # at starts off it and at starts below the wheel primes
    rng = random.Random(20260)
    for block in (2, 7, 1000, 15014, 15016, PRIME_BLOCK):
        for start in [1, 4, 12] + [s for s in rng.sample(range(1, 10**6), 10) if s % 15015]:
            limit = rng.randrange(start, min(10**6, start + 400 * block) + 1)
            blocks = list(prime_blocks(limit, block, start))
            assert all(b.dtype == np.int64 and len(b) for b in blocks)
            n = np.arange(max(start, 3), limit)
            want = ([2] if start <= 3 and limit > 2 else []) + n[_SPF[n] == n].tolist()
            assert [p for b in blocks for p in b.tolist()] == want
            for i, b in enumerate(blocks):
                inner = b[1:] if i == 0 and b[0] == 2 else b
                assert len({(p - start) // block for p in inner.tolist()}) <= 1


def test_prime_blocks_grid_block_matches_plain_odd_sieve():
    # the grid block of the Euler log-sums near 2.9e8, against an odd-only
    # segment sieve by every odd prime up to its square root
    lo = 3 + 138 * PRIME_BLOCK
    hi = lo + PRIME_BLOCK
    seg = np.ones(PRIME_BLOCK // 2, dtype=bool)  # seg[i] stands for lo + 2 i
    for p in PRIMES[1:]:
        if p * p >= hi:
            break
        hit = -(-lo // p) * p
        hit += p if hit % 2 == 0 else 0
        seg[(hit - lo) // 2 :: p] = False
    (got,) = prime_blocks(hi, PRIME_BLOCK, lo)
    assert np.array_equal(got, lo + 2 * np.flatnonzero(seg))


def test_prime_blocks_refuses_past_factor_limit():
    top = 10**12  # PRIMES reaches sqrt(limit) up to here
    assert [b.tolist() for b in prime_blocks(top, PRIME_BLOCK, top - 20)] == [[999_999_999_989]]
    # [top - 20, top + 40) holds the primes 1e12 - 11 and 1e12 + 39: the
    # refusal comes from the first next(), in place of their block
    blocks = prime_blocks(top + 40, PRIME_BLOCK, top - 20)
    with pytest.raises(ValueError, match=f"limit <= {top}"):
        next(blocks)


def test_is_prime_above_the_sieve():
    for n in (10**6 + 3, 999_999_999_989, 10**9 + 7):
        assert is_prime(n)
    for n in (10**6 + 1, 999_983 * 999_979, 2 * (10**9 + 7), 999_983**2):
        assert not is_prime(n)


def test_legendre_basics():
    assert legendre(2, 3) == -1
    assert legendre(1, 7) == 1
    assert legendre(14, 7) == 0
    with pytest.raises(ValueError):
        legendre(1, 2)
    with pytest.raises(ValueError):
        legendre(1, 15)


@given(st.sampled_from([p for p in PRIMES[1:40]]), st.integers(1, 10**6))
def test_legendre_squares(p, a):
    if a % p:
        assert legendre(a * a, p) == 1


def test_character_domain():
    with pytest.raises(ValueError):
        QuadraticCharacter(5)
    with pytest.raises(ValueError):
        QuadraticCharacter(12)
    assert character(4).d == 4
    assert character(3).d == 3
    # a table has fewer entries than the smallest-factor sieve
    with pytest.raises(ValueError, match="table limit"):
        character(1_000_003)(1)


def test_character_small_period():
    chi3 = character(3)
    assert [chi3(n) for n in range(6)] == [0, 1, -1, 0, 1, -1]
    chi4 = character(4)
    assert [chi4(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]


def _chi_at_prime(d, p):
    """chi_{-d}(p) from its definition on primes, never from a table."""
    if d == 4:
        return 0 if p == 2 else 1 if p % 4 == 1 else -1
    if p == 2:
        return 1 if -d % 8 in (1, 7) else -1
    return legendre(-d, p)  # 0 for p | d


def test_character_residue_table_matches_call():
    # the table against the completely multiplicative extension of the
    # values at primes, over three periods
    for d in (3, 7, 11, 15, 19, 23, 4, 195, 227):
        tab = character(d).table
        assert tab.dtype == np.int64 and len(tab) == d
        for n in range(3 * d):
            want = 0 if n == 0 else math.prod(_chi_at_prime(d, p) ** e for p, e in factorize(n).factors)
            assert tab[n % d] == want == character(d)(n), (d, n)


def test_character_table_read_only():
    tab = character(3).table
    with pytest.raises(ValueError):
        tab[0] = 1
    assert character(3).table is tab and list(tab) == [0, 1, -1]


@given(st.sampled_from([3, 7, 15, 23]), st.integers(1, 10**4), st.integers(1, 10**4))
@settings(max_examples=150)
def test_character_multiplicative(d, a, b):
    c = character(d)
    assert c(a * b) == c(a) * c(b)


def test_symbol_table_matches_legendre():
    for p in PRIMES[1:]:
        if p >= 400:
            break
        assert symbol_table(p).tolist() == [legendre(r, p) for r in range(p)], p
    table = symbol_table(999983)
    assert len(table) == 999983 and not table.flags.writeable
    for r in [*range(0, 999983, 491), 999982]:
        assert table[r] == legendre(r, 999983), r
    for p in (2, 9, 1000003):
        with pytest.raises(ValueError, match="odd prime"):
            symbol_table(p)


def test_character_at_prime_agrees_with_legendre():
    # every supported modulus below 400 at the first 300 primes: legendre(-d, p)
    # at odd p (0 for p | d), the mod-8 rule at 2, and chi_{-4} by p mod 4
    fields = [d for d in range(3, 400, 4) if is_squarefree(d)] + [4]
    for d in fields:
        c = character(d)
        for p in PRIMES[:300]:
            assert c(p) == _chi_at_prime(d, p), (d, p)
