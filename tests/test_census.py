"""Census scan, counting lemma, and constant chain."""

import bisect
import math
import operator
import os
import signal
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchisurf import census, hermitian, ntkernel
from bianchisurf.census import (
    _bounds,
    _envelope_cap,
    F_value,
    constant_C,
    count_F_in_progression,
    enumerate_surfaces,
    fit_report,
    leading_constant,
    leading_constants_bundle,
    residue_constant_check,
    surface_counts,
    weight_ratio_array,
    xi,
)
from bianchisurf.hermitian import SurfaceIndex, d0_and_D, divisors_below_sqrt
from bianchisurf.ntkernel import PRIME_BLOCK, character, factorize, prime_blocks
from bianchisurf.verify import (
    _MERTENS,
    SWEEP_DS,
    _brute_count_F,
    _brute_xi,
    _dyadic_D_cap,
    _dyadic_envelope_start,
    _uniform_bound_coeff,
    pairs_under,
)
from bianchisurf.volume import area_closed_form, compare_to_threshold, pi_bracket


def test_F_values():
    assert F_value(3, 1) == 1
    assert F_value(3, 2) == 1  # chi(2) = -1
    assert F_value(3, 3) == 3  # chi(3) = 0
    assert F_value(3, 4) == 2
    assert F_value(3, 7) == 8  # chi(7) = +1
    assert F_value(3, 12) == 6
    assert type(F_value(3, 12)) is int
    assert F_value(3, 49) == 56


def test_weight_ratio_matches_F():
    for d in (3, 15):
        W = weight_ratio_array(d, [(1, 1, 499)])
        for n in range(1, 500):
            assert W[n - 1] == F_value(d, n)


def _naive_F(d: int, D: int) -> int:
    F = 1
    for p, e in factorize(D).factors:
        F *= p**e if d % p == 0 else p ** (e - 1) * (p + character(d)(p))
    return F


_prime_powers = st.builds(
    lambda p, k, u: p**k * u, st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 16), st.integers(1, 9)
).filter(lambda n: n <= 4 * 10**7)


@st.composite
def _segments(draw):
    d = draw(st.sampled_from([3, 4, 7, 11, 15, 19, 35, 195, 227]))
    # census steps (d/g)^2, powers of d, steps with primes outside d, and
    # prime powers; starts anywhere, at high prime powers, or at multiples of
    # a divisor of d; counts from 0.  Only segments the sieve accepts: every
    # prime of gcd(start, step) divides d.
    g = st.sampled_from([1, 3, 5, 7]).filter(lambda g: d % g == 0)
    steps = st.one_of(
        st.just(1),
        st.builds(lambda g, e: (d // g) ** e, g, st.integers(1, 2)),
        st.integers(1, 10**5),
        _prime_powers.filter(lambda n: n <= 10**5),
        st.integers(1, 500).map(lambda k: k * d),
    )
    divisors = [k for k in range(d, 0, -1) if d % k == 0]
    shared = st.builds(operator.mul, st.sampled_from(divisors), st.integers(1, 10**6))
    starts = st.one_of(st.integers(1, 4 * 10**7), _prime_powers, shared, shared.map(lambda n: n * d))
    accepted = st.tuples(starts, steps, st.integers(0, 40)).filter(
        lambda seg: all(d % p == 0 for p, _ in factorize(gcd(seg[0], seg[1])).factors)
    )
    return d, draw(st.lists(accepted, max_size=4))


@settings(max_examples=60, deadline=None)
@given(_segments())
def test_weight_ratio_array_matches_naive_product(case):
    d, segs = case
    W = weight_ratio_array(d, segs)
    naive = [_naive_F(d, D0 + step * j) for D0, step, n in segs for j in range(n)]
    assert W.dtype == np.int64
    assert W.tolist() == naive


def test_weight_ratio_array_never_sieves_zero():
    with pytest.raises(ValueError):
        weight_ratio_array(3, [(0, 1, 5)])
    with pytest.raises(ValueError):
        weight_ratio_array(3, [(1, 0, 5)])
    with pytest.raises(ValueError):
        weight_ratio_array(3, [(4, 2, 5)])  # gcd(4, 2) = 2 does not divide 3
    assert len(weight_ratio_array(3, [])) == 0


def test_weight_ratio_array_sieve_defect_raises(monkeypatch):
    # every prime sieved twice floors cofactors to 0, which every p divides;
    # the division loop is bounded, so the defect raises instead of looping
    def twice(*args):
        for block in prime_blocks(*args):
            yield np.repeat(block, 2)

    def expire(signum, frame):
        raise TimeoutError("weight_ratio_array still running after 20 s")

    monkeypatch.setattr(census, "prime_blocks", twice)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="p = 2 "):
            weight_ratio_array(3, [(1, 1, 1000)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_mertens_envelope_monotone():
    vals = [(1 << k) * _MERTENS[k] for k in range(len(_MERTENS) - 1)]
    for prev, nxt in zip(vals, vals[1:]):
        assert nxt >= prev
    for prev, nxt in zip(vals[1:], vals[2:]):
        assert nxt >= prev * Fraction(4, 3)


def test_envelope_start_is_sound():
    # every n at or past the start has n * prod_{p|n}(1 - 1/p) >= X, hence
    # F(n) >= X
    for X in (Fraction(3), Fraction(10), Fraction("47.5")):
        start = _dyadic_envelope_start(X)
        for n in range(start, min(4 * start, start + 2048)):
            floor_val = n * prod(
                1 - Fraction(1, p) for p, _ in factorize(n).factors
            )
            assert floor_val >= X
            assert F_value(3, n) >= X


def test_count_F_reference_and_brute():
    assert count_F_in_progression(3, 3, 0, 10) == 5
    assert count_F_in_progression(3, 1, 0, 3) == 3  # n in {1, 2, 4}
    assert count_F_in_progression(3, 1, 0, 1) == 0
    cases = [(3, 1, 0, 30), (3, 3, 0, 50), (15, 15, 4, 300)]
    # starts sharing primes with a: the sieve divides gcd(start, a) out
    cases += [(15, 15, 0, 300), (15, 15, 3, 300), (15, 15, 5, 300), (3, 9, 3, 60), (4, 4, 2, 60), (195, 15, 10, 3000)]
    for d, a, r, X in cases:
        assert count_F_in_progression(d, a, r, X) == _brute_count_F(d, a, r, Fraction(X))


def test_count_F_rejects_bad_modulus():
    with pytest.raises(ValueError):
        count_F_in_progression(3, 2, 0, 10)  # 2 does not divide 3
    with pytest.raises(ValueError):
        count_F_in_progression(3, 0, 0, 10)
    # the character modulus is checked before the X <= 1 early return
    for X in (1, 100):
        with pytest.raises(ValueError, match="unsupported character modulus 5"):
            count_F_in_progression(5, 1, 0, X)


def test_residue_check_rejects_bad_modulus_unsieved(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    for a in (0, -3, 2):
        with pytest.raises(ValueError, match="modulus"):
            residue_constant_check(3, a)
        with pytest.raises(ValueError, match="modulus"):
            count_F_in_progression(3, a, 0, 10)


def test_xi_spot_values():
    assert xi(3, Fraction("0.5")) == 0
    assert xi(3, Fraction("1.1")) == 2
    assert xi(3, Fraction("2.2")) == 5


def test_xi_at_a_million():
    # many windows start and end inside a progression
    assert [xi(d, 10**6) for d in (3, 15, 195)] == [1735235, 2014930, 6875632]


def test_census_sets_up_residues_as_arrays(monkeypatch):
    # the residues' progressions and classes come from int64 arrays and
    # symbol tables, not from one legendre or d0_and_D call per residue
    calls = {"legendre": 0, "d0_and_D": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (ntkernel, hermitian, census):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    segments = []
    sieve = census.weight_ratio_array
    monkeypatch.setattr(census, "weight_ratio_array", lambda d, segs: segments.extend(segs) or sieve(d, segs))
    assert xi(100003, 100) == 166
    assert calls == {"legendre": 0, "d0_and_D": 0}
    assert segments and all(n > 0 for *_, n in segments)
    assert xi(1155, 10) == _brute_xi(1155, Fraction(10)) == 544


def test_xi_independent_of_jobs():
    X = Fraction("99.5")
    assert xi(15, X, jobs=2) == xi(15, X, jobs=1)


def test_census_runs_in_calling_process(monkeypatch):
    def no_fork():
        raise OSError("the census must not fork")

    xs = [Fraction(5), Fraction("99.5")]
    counts = surface_counts(15, xs, jobs=1)
    records = enumerate_surfaces(15, 25, jobs=1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert surface_counts(15, xs, jobs=2) == counts
    assert enumerate_surfaces(15, 25, jobs=2) == records


def test_infeasible_census_refused(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    # cap 9.5e10 is below the factorization limit, but 4.5e10 candidates
    # are past the budget of 2^34: refused before sieving
    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="budget"):
        xi(3, 10**10)


def test_census_past_factorization_limit_refused(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    # cap 9.8e12 is past the factorization limit 10^12, which is checked first
    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="factorization limit"):
        xi(3, 10**12)
    # progression lengths past the C ssize_t range are refused too, not crashed
    # on, and thresholds of 20000 and 300000 digits before the envelope walk
    for d, X in ((3, 10**19), (195, 10**19), (3, Fraction("1e400")), (3, Fraction("1e20000")), (3, Fraction("1e300000"))):
        with pytest.raises(ValueError, match="factorization limit"):
            xi(d, X)


def test_infeasible_lemma_refused(monkeypatch):
    # a budget of 2^17: the counting lemma's 3e5 candidates are refused unsieved
    monkeypatch.setattr(census, "_MAX_PRICED", 2**17)
    with pytest.raises(ValueError, match="budget"):
        count_F_in_progression(3, 1, 0, 10**5)
    assert count_F_in_progression(3, 3, 0, 10) == 5
    assert xi(3, Fraction("2.2")) == 5


class _Sieved(Exception):
    pass


def _sieve_raises(monkeypatch):
    def sieved(d, segments):
        raise _Sieved

    monkeypatch.setattr(census, "weight_ratio_array", sieved)


def test_accepted_requests_reach_the_sieve(monkeypatch):
    # 4.4e9, 3.3e9 and 1.3e9 x 3 candidates: within the budget on any machine
    _sieve_raises(monkeypatch)
    for request in (
        lambda: xi(3, 10**9),
        lambda: count_F_in_progression(3, 1, 0, 10**9),
        lambda: surface_counts(3, [10**8, 2 * 10**8, 3 * 10**8]),
    ):
        with pytest.raises(_Sieved):
            request()


def test_budget_is_exact_and_counts_thresholds(monkeypatch):
    _sieve_raises(monkeypatch)
    # the lemma prices 305468 candidates at 1 threshold
    monkeypatch.setattr(census, "_MAX_PRICED", 305468)
    with pytest.raises(_Sieved):
        count_F_in_progression(3, 1, 0, 10**5)
    monkeypatch.setattr(census, "_MAX_PRICED", 305467)
    with pytest.raises(ValueError, match="305468 candidates at 1 threshold"):
        count_F_in_progression(3, 1, 0, 10**5)
    # the ladder prices 211 candidates at 2 thresholds, xi the same 211 at 1
    xs = [Fraction(5), Fraction("99.5")]
    monkeypatch.setattr(census, "_MAX_PRICED", 422)
    with pytest.raises(_Sieved):
        surface_counts(15, xs)
    monkeypatch.setattr(census, "_MAX_PRICED", 421)
    with pytest.raises(ValueError, match="211 candidates at 2 threshold"):
        surface_counts(15, xs)
    monkeypatch.setattr(census, "_MAX_PRICED", 211)
    with pytest.raises(_Sieved):
        xi(15, xs[1])


def test_large_field_refused_before_class_group(monkeypatch):
    # a d past the character table's limit is refused before is_admissible,
    # whose class group grows with d
    def no_class_group(d):
        raise AssertionError("class group computed before refusing")

    monkeypatch.setattr(census, "is_admissible", no_class_group)
    for request in (lambda: xi(1000003, 1), lambda: leading_constants_bundle((1000003,), 100)):
        with pytest.raises(ValueError, match="table limit"):
            request()


def test_lemma_past_budget_refused(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    # 3.3e10 candidates, below the factorization limit, past the fixed budget
    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="budget") as refused:
        count_F_in_progression(3, 1, 0, 10**10)
    message = str(refused.value)
    assert not any(word in message for word in ("census", "D", "memory", "GiB"))


def test_lemma_past_factorization_limit_refused(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="factorization limit") as refused:
        count_F_in_progression(3, 1, 0, 10**12)
    assert "census" not in str(refused.value) and "D" not in str(refused.value)


def test_lemma_keeps_nothing():
    count_F_in_progression(3, 1, 0, 20)  # warm the character's caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert count_F_in_progression(3, 1, 0, 10**5) == 155739
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 256 * 2**10


def test_lemma_residues_across_windows():
    # 305468 candidates at step 1: three windows of census._CHUNK
    total = count_F_in_progression(3, 1, 0, 10**5)
    assert total == 155739
    assert sum(count_F_in_progression(3, 3, r, 10**5) for r in range(3)) == total


def test_census_memory_bounded():
    # the dense weight array for this request held 2^24 float64 (128 MiB)
    tracemalloc.start()
    try:
        assert xi(15, 10**4) == 20170
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_xi_rejects_inadmissible_d():
    with pytest.raises(ValueError):
        xi(39, 10)
    with pytest.raises(ValueError):
        xi(4, 10)  # constant-chain only
    with pytest.raises(ValueError):
        enumerate_surfaces(12, 10)


def test_records_match_reference_listing():
    records = enumerate_surfaces(3, Fraction("2.2"))
    assert [(t.m, t.c) for t in records] == [(1, 0), (2, 1), (0, -2), (1, -1), (2, 0)]
    assert [t.q for t in records] == [
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(2, 3),
    ]
    assert all(t.r == 1 for t in records)
    # listings are priced from the scan's class rational and F(D); check each
    # record against the closed form and the circle's own invariants
    for d in SWEEP_DS + (195, 227):
        records = enumerate_surfaces(d, 30)
        assert len(records) == xi(d, 30)
        for t in records:
            assert t.q == area_closed_form(SurfaceIndex(d, t.m, t.c, t.r)).q
            assert (t.d0, t.D) == d0_and_D(d, t.m, t.c)
            assert compare_to_threshold(t.area(), 30) < 0


def test_records_sorted_and_r_spread():
    records = enumerate_surfaces(15, 40)
    keys = [(t.q, t.m, t.c, t.r) for t in records]
    assert keys == sorted(keys)
    # every (m, c) appears once per divisor class r in {1, 3}
    mc = {(t.m, t.c) for t in records}
    assert len(records) == 2 * len(mc)


def test_uniform_bound_is_a_lower_bound():
    # exact rational check of q >= K * D * B(log2 D) for the scanned pairs
    for d in (3, 15):
        for m, c, d0, D in pairs_under(d, 200):
            coeff = _uniform_bound_coeff(d, d0)
            q = area_closed_form(SurfaceIndex(d, m, c, 1)).q
            assert q >= coeff * D * _MERTENS[D.bit_length() - 1]


def test_dyadic_cap_excludes_heavy_surfaces():
    for d in (3, 15):
        for X in (Fraction(5), Fraction(30)):
            for m in range(d):
                d0 = d // gcd(m, d)
                cap = _dyadic_D_cap(_uniform_bound_coeff(d, d0), X)
                assert cap & (cap - 1) == 0  # power of two
            for t in enumerate_surfaces(d, X):
                cap = _dyadic_D_cap(_uniform_bound_coeff(d, t.d0), X)
                assert t.D < cap


def _first_primes(count: int) -> list[int]:
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


def test_dyadic_cap_is_sound_independently():
    # K = d / (3 d0^2) * prod_{p | d} (1 - 1/p) / 2, pi from mpmath and
    # B_k = prod of (1 - 1/p) over the first k primes, all built here
    primes = _first_primes(64)
    for d in (3, 15):
        d_primes = [p for p in primes if d % p == 0]
        for d0 in (n for n in range(1, d + 1) if d % n == 0):
            K = Fraction(d, 3 * d0 * d0) * prod((1 - Fraction(1, p)) / 2 for p in d_primes)
            assert _uniform_bound_coeff(d, d0) == K

            def clears(M: int, X: Fraction) -> bool:
                B = prod(1 - Fraction(1, p) for p in primes[: M.bit_length() - 1])
                with mpmath.workdps(50):
                    return K * M * B * mpmath.pi > mpmath.mpf(X.numerator) / X.denominator

            for X in (Fraction(5), Fraction(30), Fraction("99.5"), Fraction(10**5)):
                for factor in (1, 2, 4):
                    M = _dyadic_D_cap(K, X * factor)
                    assert M & (M - 1) == 0
                    assert clears(M, X * factor)
                    assert M == 1 or not clears(M // 2, X * factor)


def _inert_primes(d: int, count: int) -> list[int]:
    # chi_d(p) = (-d / p): Euler's criterion at odd p, the mod-8 rule at 2
    out = []
    for p in _first_primes(400):
        if d % p == 0:
            continue
        if p == 2:
            inert = (-d) % 8 in (3, 5)
        else:
            inert = pow(-d % p, (p - 1) // 2, p) == p - 1
        if inert:
            out.append(p)
        if len(out) == count:
            return out
    raise AssertionError("too few inert primes")


def _own_envelope(d: int):
    """n -> n * L(n), with L(n) the product of (1 - 1/q) over the inert
    primes q_1, ..., q_k, k the largest with q_1 ... q_k <= n; and the jump
    points q_1 ... q_k."""
    qs = _inert_primes(d, 16)
    jumps = list(accumulate(qs, operator.mul, initial=1))
    Ls = list(accumulate((1 - Fraction(1, q) for q in qs), operator.mul, initial=Fraction(1)))

    def envelope(n: int) -> Fraction:
        return n * Ls[bisect.bisect_right(jumps, n) - 1]

    return envelope, jumps


def _census_base(d: int, g: int) -> Fraction:
    # g^2 / (3d) times the smallest side factor (1 - p^-2)/2 of each p | g
    side = [(1 - Fraction(1, p * p)) / 2 for p in _first_primes(10) if g % p == 0]
    return Fraction(g * g, 3 * d) * prod(side)


def _max_bound(d: int, g: int, X: Fraction) -> int:
    # the largest class bound T of g: the largest t with R t pi < X at the
    # smallest class rational R, pi from mpmath
    R = _census_base(d, g)
    with mpmath.workdps(50):
        return int(mpmath.floor(mpmath.mpf(X.numerator) / X.denominator / (mpmath.mpf(R.numerator) / R.denominator * mpmath.pi)))


@pytest.mark.parametrize("d", [3, 7, 15])
def test_envelope_cap_is_sound_independently(d):
    # the census cap per g = gcd(m, d) against n L(n) > max T, with T from
    # mpmath's pi, and the counting lemma's cap against n L(n) > X
    envelope, jumps = _own_envelope(d)

    def check(cap: int, clears) -> None:
        assert clears(cap)
        assert all(clears(Q) for Q in jumps if Q > cap)
        assert cap == 1 or not clears(cap - 1)

    for X in (Fraction(5), Fraction(30), Fraction("99.5"), Fraction(10**5), Fraction(10**9)):
        for g in (n for n in range(1, d + 1) if d % n == 0):
            T = _max_bound(d, g, X)
            assert max(max(column) for _, column in _bounds(d, g, [X]).values()) == T
            check(_envelope_cap(d, T, (d // g) ** 2), lambda n: envelope(n) > T)
        check(_envelope_cap(d, X, 1), lambda n: envelope(n) > X)


def test_envelope_cap_excludes_heavy_surfaces():
    for d in (3, 7, 15):
        envelope, _ = _own_envelope(d)
        # exact: q >= base * D * L(D) for every pair, so area > base pi D L(D)
        for m, c, d0, D in pairs_under(d, 1000):
            assert area_closed_form(SurfaceIndex(d, m, c, 1)).q >= _census_base(d, d // d0) * envelope(D)
        for X in (Fraction(5), Fraction(30)):
            for t in enumerate_surfaces(d, X, bound_factor=4):
                g = d // t.d0
                assert t.D < _envelope_cap(d, _max_bound(d, g, X), t.d0**2)


@pytest.mark.parametrize("d, X", [(3, 10**5), (15, 10**4), (11, 10**5)])
def test_candidates_at_most_three_times_accepted(monkeypatch, d, X):
    priced = []
    sieve = census.weight_ratio_array
    # the candidates: every entry of every progression sieved
    monkeypatch.setattr(
        census, "weight_ratio_array", lambda d, segs: priced.append(sum(n for *_, n in segs)) or sieve(d, segs)
    )
    accepted = xi(d, X) // len(divisors_below_sqrt(d))
    assert 0 < sum(priced) <= 3 * accepted


def test_bound_factor_stability():
    for d in (3, 15):
        for X in (Fraction(5), Fraction(25)):
            base = xi(d, X)
            assert base == len(enumerate_surfaces(d, X, bound_factor=2))
            assert base == len(enumerate_surfaces(d, X, bound_factor=4))


def test_surface_counts_match_individual_xi():
    thresholds = [Fraction(1, 2), Fraction("1.1"), Fraction("2.2"), Fraction("7.3")]
    assert surface_counts(3, thresholds) == [xi(3, x) for x in thresholds]
    with pytest.raises(ValueError):
        surface_counts(3, [Fraction(1), Fraction(0)])
    with pytest.raises(ValueError, match="at least one threshold"):
        surface_counts(3, [])


def test_bound_factor_below_one_refused():
    assert len(enumerate_surfaces(3, 30)) == 49
    for factor in (0, Fraction(1, 4), -1):
        with pytest.raises(ValueError, match="bound_factor"):
            enumerate_surfaces(3, 30, bound_factor=factor)


@pytest.mark.parametrize("d", [3, 15])
def test_thresholds_inside_guard_band(d):
    # decimal roundings of real areas, within 1e-9 of them: an off-by-one in
    # the scan's exact bound on F shows here
    xs = []
    for q in sorted({t.q for t in enumerate_surfaces(d, 30)}):
        area = float(q) * math.pi
        for spec in (".11e", ".16e"):
            x = Fraction(format(area, spec))
            assert abs(area - float(x)) <= 1e-9 * float(x) + 1e-12
            xs.append(x)
    counts = [xi(d, x) for x in xs]
    assert counts == [_brute_xi(d, x) for x in xs]
    assert surface_counts(d, xs) == counts
    assert surface_counts(d, xs, jobs=2) == counts
    for x, n in zip(xs, counts):
        records = enumerate_surfaces(d, x)
        assert len(records) == n
        assert all(compare_to_threshold(t.area(), x) < 0 for t in records)
        assert enumerate_surfaces(d, x, jobs=2) == records


@pytest.mark.parametrize("d", [3, 15])
def test_thresholds_a_hair_below_an_area(d):
    # X = q lo / 10^120 lies between the 60-digit bracket's estimate of q pi
    # and q pi itself, so the first bound on F is one too high for the class
    # of the surface and only the exact correction brings it down
    lo, _, scale = pi_bracket(120)
    xs = [q * Fraction(lo, scale) for q in sorted({t.q for t in enumerate_surfaces(d, 30)})]
    counts = [xi(d, x) for x in xs]
    assert counts == [_brute_xi(d, x) for x in xs]
    assert surface_counts(d, xs) == counts


def test_one_weight_array_build_per_request(monkeypatch):
    sieved = []
    prime_blocks = census.prime_blocks
    monkeypatch.setattr(census, "prime_blocks", lambda *args: sieved.append(args) or prime_blocks(*args))
    xi(15, Fraction("99.5"))
    assert len(sieved) == 1


def test_xi_monotone():
    prev = -1
    for X in (1, 2, 4, 8, 16):
        now = xi(3, X)
        assert now >= prev
        prev = now


def test_constant_C_regression():
    c = constant_C(3)
    assert c.value == pytest.approx(1.5575931075753982, abs=1e-12)
    assert c.truncation_prime == 300_000_000
    assert c.certified_digits >= 8
    quick = constant_C(3, prime_limit=10_000_000)
    assert abs(quick.value - c.value) <= quick.tail_bound * c.value


def test_euler_log_sums_cached_per_field(monkeypatch):
    L = 1_000_000
    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    fresh = {d: leading_constant(d, L) for d in SWEEP_DS}
    fresh_C = constant_C(3, prime_limit=L)
    census._SUMS_CACHE.clear()
    bundle = leading_constants_bundle(SWEEP_DS, L)
    sieved = []
    prime_blocks = census.prime_blocks
    monkeypatch.setattr(census, "prime_blocks", lambda *args: sieved.append(args) or prime_blocks(*args))
    assert constant_C(3, prime_limit=L) == fresh_C
    assert leading_constant(3, L) == fresh[3]
    assert bundle == fresh
    assert sieved == []


_GRID_LIMITS = st.one_of(
    st.integers(4, 3 * 10**7),
    st.builds(lambda k, e: 3 + k * PRIME_BLOCK + e, st.integers(1, 14), st.sampled_from((-1, 0, 1))),
)


_FIELD_SETS = st.sampled_from(((3,), (4,), (7,), (15,), (3, 15), (4, 7, 15), (15, 3, 7, 4)))


@given(st.lists(st.tuples(_FIELD_SETS, _GRID_LIMITS), min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_euler_log_sums_independent_of_cache_history(calls):
    def bits(sums):
        return {d: (main.hex(), c.hex(), n) for d, (main, c, n) in sums.items()}

    saved = dict(census._SUMS_CACHE)
    census._SUMS_CACHE.clear()
    try:
        for ds, limit in calls:
            got = bits(census._euler_log_sums(ds, limit))
            warm = dict(census._SUMS_CACHE)
            census._SUMS_CACHE.clear()
            assert got == bits(census._euler_log_sums(ds, limit))
            census._SUMS_CACHE.update(warm)
    finally:
        census._SUMS_CACHE.clear()
        census._SUMS_CACHE.update(saved)


def test_log_sums_resume_from_grid_checkpoint(monkeypatch):
    seen = []
    prime_blocks = census.prime_blocks

    def spy(limit, block, start=3):
        seen.append((limit, start))
        return prime_blocks(limit, block, start)

    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    monkeypatch.setattr(census, "prime_blocks", spy)
    constant_C(3, prime_limit=2 * 10**7 + 1)
    rep = leading_constant(3, 2 * 10**7 + 12345)
    # 15 starts from scratch, and 3 joins the same pass at its checkpoint
    bundle = leading_constants_bundle((15, 3), 2 * 10**7 + 54321)
    assert seen[0] == (2 * 10**7 + 1, 3) and seen[2] == (2 * 10**7 + 54321, 3)
    limit, start = seen[1]
    assert limit == 2 * 10**7 + 12345 and 0 < limit - start < PRIME_BLOCK
    census._SUMS_CACHE.clear()
    assert leading_constant(3, 2 * 10**7 + 12345) == rep
    census._SUMS_CACHE.clear()
    assert leading_constants_bundle((15, 3), 2 * 10**7 + 54321) == bundle



def _sum_bits(sums):
    return {key: (main.hex(), c.hex(), n) for key, (main, c, n) in sums.items()}


def test_euler_log_sums_match_a_sequential_block_loop(monkeypatch):
    # six blocks, so the pass sieves ahead in a worker; every checkpoint and
    # the final sums must be the per-block additions of a plain loop, in order
    ds, limit = (3, 4, 15), 3 + 5 * PRIME_BLOCK + 7
    sums = {d: [0.0, 0.0, 0] for d in ds}
    expected = {}
    for k, block in enumerate(prime_blocks(limit)):
        pf = block.astype(np.float64)
        for d in ds:
            ch = character(d).table[block % d].astype(np.float64)
            s = sums[d]
            s[0] += float(np.sum(np.log1p(((1.0 / pf) - ch * ch - ch) / (pf * pf))))
            s[1] += float(np.sum(np.log1p(-ch / (pf * (pf + ch)))))
            s[2] += len(block)
            expected[d, min(3 + (k + 1) * PRIME_BLOCK, limit)] = tuple(s)
    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    got = census._euler_log_sums(ds, limit)
    assert _sum_bits(got) == _sum_bits({d: expected[d, limit] for d in ds})
    assert _sum_bits(census._SUMS_CACHE) == _sum_bits(expected)


def test_sieve_error_reaches_the_caller_and_no_thread_survives(monkeypatch):
    real_blocks = census.prime_blocks

    def two_then_fail(limit, block, start=3):
        blocks = real_blocks(limit, block, start)
        yield next(blocks)
        yield next(blocks)
        raise RuntimeError("sieve defect")

    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    monkeypatch.setattr(census, "prime_blocks", two_then_fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="sieve defect"):
        census._euler_log_sums((3,), 3 + 4 * PRIME_BLOCK)
    assert threading.active_count() == before

    # a caller that stops early waits for the block in flight
    def slow():
        yield np.array([3])
        time.sleep(0.2)
        yield np.array([5])

    ahead = census._sieved_ahead(slow())
    assert next(ahead).tolist() == [3]
    ahead.close()
    assert threading.active_count() == before


def test_single_block_passes_start_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise RuntimeError("thread started")

    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    constant_C(3, 7)
    monkeypatch.setattr(census.threading, "Thread", no_thread)
    assert constant_C(3, 6).truncation_prime == 2 * 10**6 + 1
    assert leading_constant(3, 2 * 10**7 + 12345).truncation_prime == 2 * 10**7 + 12345
    with pytest.raises(RuntimeError, match="thread started"):
        constant_C(15, 7)  # ten blocks: this pass does sieve ahead


def test_huge_digit_request_gets_default_cap(monkeypatch):
    # 10**digits is never built: a billion digits returns at once
    monkeypatch.setattr(census, "_euler_log_sums", lambda ds, limit: {d: (0.0, 0.0, 2) for d in ds})
    for digits, limit in ((8, 2 * 10**8 + 1), (9, census.DEFAULT_PRIME_LIMIT), (10**9, census.DEFAULT_PRIME_LIMIT)):
        assert constant_C(3, digits).truncation_prime == limit


def test_residue_check_reads_no_cached_sums(monkeypatch):
    L = 1_000_000
    monkeypatch.setattr(census, "_SUMS_CACHE", {})
    honest = residue_constant_check(3, 3, prime_limit=L)
    for key, (_, _, n) in list(census._SUMS_CACHE.items()):
        census._SUMS_CACHE[key] = (0.0, 0.0, n)
    poisoned = residue_constant_check(3, 3, prime_limit=L)
    assert poisoned.closed_form != honest.closed_form  # constant_C reads the cache
    assert poisoned.product_form == honest.product_form


def test_constant_C_insensitive_to_d_side_primes():
    # primes dividing d contribute the factor 1 - 1/p + 1/p = 1
    a = constant_C(3, prime_limit=1_000_000)
    assert a.tail_bound == pytest.approx(2.0 / (1_000_000 - 1))


def test_leading_constant_chain():
    rep = leading_constant(3, prime_limit=10_000_000)
    assert rep.chain_gap <= rep.l_main_bound + rep.l_census_bound
    assert rep.l_main == pytest.approx(1.7352904970579432, rel=1e-6)
    with pytest.raises(ValueError):
        leading_constant(39)


def test_leading_constant_d4_branch():
    rep = leading_constant(4, prime_limit=10_000_000)
    assert rep.chain_gap <= rep.l_main_bound + rep.l_census_bound
    assert rep.l_main > 0


def test_residue_constant_checks():
    for d, a in ((3, 1), (3, 3), (15, 15)):
        chk = residue_constant_check(d, a, prime_limit=1_000_000)
        assert abs(chk.product_form - chk.closed_form) <= chk.tolerance
    with pytest.raises(ValueError):
        residue_constant_check(3, 2)


def test_prime_limit_below_four_refused_unsieved(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    too_small = "prime_limit must be at least 4"
    too_large = f"prime_limit must be at most {10**12}"
    for limit, message in ((-5, too_small), (0, too_small), (1, too_small), (3, too_small),
                           (10**12 + 1, too_large), (10**13, too_large)):
        for request in (
            lambda: constant_C(3, prime_limit=limit),
            lambda: leading_constant(3, prime_limit=limit),
            lambda: leading_constants_bundle((3,), limit),
            lambda: residue_constant_check(3, 1, prime_limit=limit),
            lambda: census._euler_log_sums((3,), limit),
        ):
            with pytest.raises(ValueError, match=message):
                request()


def test_bundle_refuses_a_field_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(census, "prime_blocks", no_sieve)
    with pytest.raises(ValueError, match="d = 39 is not admissible"):
        leading_constants_bundle((3, 39), 2 * 10**7)


def test_prime_limit_four_gives_finite_bounds():
    # the two primes 2 and 3: every tail bound is finite
    assert math.isfinite(constant_C(3, prime_limit=4).tail_bound)
    for rep in (leading_constant(3, prime_limit=4), leading_constants_bundle((3,), 4)[3]):
        assert rep.prime_count == 2
        assert math.isfinite(rep.l_main_bound) and math.isfinite(rep.l_census_bound)
    assert math.isfinite(residue_constant_check(3, 1, prime_limit=4).tolerance)


def test_fit_report_interface():
    with pytest.raises(ValueError):
        fit_report(3, [10, 5])
    rows = fit_report(3, [50, 100])
    assert [float(r.X) for r in rows] == [50.0, 100.0]
    for r in rows:
        assert r.ratio == r.xi / float(r.X)
        assert r.rel_deviation == abs(r.ratio - r.leading) / r.leading
    again = fit_report(3, [50, 100])
    assert again == rows
