import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchisurf.ntkernel import (
    PRIMES,
    QuadraticCharacter,
    character,
    chi,
    divisor_stats,
    factorize,
    is_prime,
    is_squarefree,
    kronecker_at_two,
    legendre,
    prime_blocks,
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
        for block in (2, 7, 1 << 24):
            assert [int(p) for b in prime_blocks(limit, block) for p in b] == naive


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


def test_kronecker_at_two():
    assert kronecker_at_two(7) == 1
    assert kronecker_at_two(-1) == 1
    assert kronecker_at_two(3) == -1
    assert kronecker_at_two(-3) == -1
    assert kronecker_at_two(6) == 0


def test_character_domain():
    with pytest.raises(ValueError):
        QuadraticCharacter(5)
    with pytest.raises(ValueError):
        QuadraticCharacter(12)
    assert character(4).d == 4
    assert character(3).d == 3


def test_character_small_period():
    chi3 = character(3)
    assert [chi3(n) for n in range(6)] == [0, 1, -1, 0, 1, -1]
    chi4 = character(4)
    assert [chi4(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]


def test_character_residue_table_matches_call():
    for d in (3, 7, 11, 15, 19, 23, 4):
        tab = character(d).residue_table()
        assert len(tab) == d
        for n in range(3 * d):
            assert tab[n % d] == chi(d, n)


@given(st.sampled_from([3, 7, 15, 23]), st.integers(1, 10**4), st.integers(1, 10**4))
@settings(max_examples=150)
def test_character_multiplicative(d, a, b):
    c = character(d)
    assert c(a * b) == c(a) * c(b)


def test_character_at_prime_agrees_with_legendre():
    # for odd p not dividing d, the value is the Legendre symbol of -d
    for d in (3, 7, 11, 15):
        c = character(d)
        for p in (5, 7, 11, 13, 17, 19):
            if d % p:
                assert c.at_prime(p) == legendre(-d, p)
