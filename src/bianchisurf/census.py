"""Surface enumeration, counting asymptotics, and Euler-product constants.

One scan feeds xi, threshold ladders and record listings: per residue m
it runs c downward, prices each candidate once with vectorized Euler
factors, keeps the c below each threshold, and stops behind a certified
monotone envelope: the fluctuating factor prod_{p|D}(1 + chi(p)/p) is
bounded below by the Mertens-style product over the first floor(log2 D)
primes, which rises dyadically.  Every threshold decision, here and in the
counting lemma, goes through one exact decider: floats decide outside a
guard band, and anything inside it is re-decided with rationals (and a
rational pi bracket for areas).  The weight array behind the pricing is
cached for one field at a time.  Everything runs in the calling process:
the public functions accept a `jobs` keyword and ignore it.

Constants are truncated Euler products over a shared segmented prime
stream, with explicit tail certificates (Rosser's p_n > n log n).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .classgroup import is_admissible
from .hermitian import SurfaceIndex, d0_and_D, divisors_below_sqrt
from .ntkernel import PRIMES, character, divisor_stats, factorize, prime_blocks
from .volume import PI_DIGITS, ExactArea, area_closed_form, compare_to_threshold, pi_bracket

DEFAULT_PRIME_LIMIT = 300_000_000


def _require_admissible(d: int) -> None:
    res = is_admissible(d)
    if not res.admissible or res.reason == "d4-constant-only":
        raise ValueError(f"d = {d} is not admissible: {res.reason or 'constant-only'}")


# --- the arithmetic weight F and its counting lemma ----------------------


def F_value(d: int, n: int) -> Fraction:
    """F(n) = n * prod_{p|n} (1 + chi(p)/p), exactly."""
    chi = character(d)
    out = Fraction(n)
    for p, _ in factorize(n).factors:
        out *= 1 + Fraction(chi.at_prime(p), p)
    return out


def _mertens_fractions(count: int = 64) -> list[Fraction]:
    """B_k = prod over the first k primes of (1 - 1/p), exact; B_0 = 1."""
    out = [Fraction(1)]
    for p in PRIMES[:count]:
        out.append(out[-1] * (1 - Fraction(1, p)))
    return out


_MERTENS = _mertens_fractions()


def _dyadic_envelope_start(threshold: Fraction) -> int:
    """Smallest power of two N with N * B_{log2 N} >= threshold, so that
    every n >= N has n * prod_{p|n}(1 - 1/p) >= threshold.

    Works because 2^k B_k is nondecreasing in k: the step ratio is
    2(1 - 1/p_{k+1}) >= 4/3 from k = 1 on.
    """
    if threshold <= 1:
        return 1
    for k in range(len(_MERTENS) - 1):
        if (1 << k) * _MERTENS[k] >= threshold:
            return 1 << k
    raise ValueError(f"threshold {threshold} out of supported range")


_RATIO_CACHE: dict[int, np.ndarray] = {}


try:
    _PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # no sysconf figure: no check
    _PHYSICAL_MEMORY = math.inf


def weight_ratio_array(d: int, cap: int) -> np.ndarray:
    """R[n] = prod_{p | n, p not | d} (1 + chi(p)/p) for n < cap, float64.

    Built by one multiplicative pass over primes.  The cache keeps one
    field, the most recently built, and grows it monotonically.  Raises
    ValueError, before allocating, if the array would not fit in physical
    memory.
    """
    cached = _RATIO_CACHE.get(d)
    if cached is not None and len(cached) >= cap:
        return cached
    if 8 * cap > _PHYSICAL_MEMORY:
        raise ValueError(
            f"census needs a {8 * cap / 2**30:.1f} GiB weight array, "
            f"more than the {_PHYSICAL_MEMORY / 2**30:.1f} GiB of physical memory"
        )
    chi = character(d)
    table = chi.residue_table()
    R = np.ones(cap, dtype=np.float64)
    for block in prime_blocks(cap):
        for p in block.tolist():
            ch = int(table[p % d])
            if ch == 0:
                continue
            R[p::p] *= 1.0 + ch / p
    _RATIO_CACHE.clear()
    _RATIO_CACHE[d] = R
    return R


def _below(values: np.ndarray, X: Fraction, exact_below) -> np.ndarray:
    """Exact mask of values < X.  The floats decide every entry outside the
    guard band |value - X| <= 1e-9 X + 1e-12; exact_below(k) decides each
    entry k inside it."""
    Xf = float(X)
    guard = 1e-9 * Xf + 1e-12
    below = values < Xf - guard
    for k in np.flatnonzero(np.abs(values - Xf) <= guard).tolist():
        below[k] = exact_below(k)
    return below


def count_F_in_progression(d: int, a: int, r: int, X) -> int:
    """Exact #{n = r (mod a), n >= 1 : F(n) < X}.

    Requires every prime of a to divide d.  Enumeration is certified
    complete by the dyadic Mertens envelope; near-threshold candidates are
    re-decided with exact rationals.
    """
    if a < 1:
        raise ValueError(f"modulus must be positive, got {a}")
    for p, _ in factorize(a).factors if a > 1 else ():
        if d % p:
            raise ValueError(f"prime {p} of modulus a = {a} does not divide d = {d}")
    X = Fraction(X)
    if X <= 1:
        return 0
    ncap = _dyadic_envelope_start(X)
    R = weight_ratio_array(d, max(ncap, 2))
    start = r % a if (r % a) else a
    ns = np.arange(start, ncap, a, dtype=np.int64)
    F = ns.astype(np.float64) * R[ns]
    return int(np.count_nonzero(_below(F, X, lambda k: F_value(d, int(ns[k])) < X)))


# --- census enumeration --------------------------------------------------


@dataclass(frozen=True)
class SurfaceRecord:
    m: int
    c: int
    r: int
    d0: int
    D: int
    q: Fraction

    def area(self) -> ExactArea:
        return ExactArea(self.q)


def _uniform_bound_coeff(d: int, d0: int) -> Fraction:
    """Coefficient K with area >= K * D * B(D) * pi for every surface with
    this (d, d0): worst-case symbol in every d-side Euler factor."""
    k = Fraction(d, d0 * d0) / 3
    dps = [p for p, _ in factorize(d).factors]
    k /= 2 ** len(dps)
    for p in dps:
        k *= 1 - Fraction(1, p)
    return k


def _dyadic_D_cap(coeff: Fraction, threshold: Fraction) -> int:
    """Smallest power of two M with coeff * pi * M * B_{log2 M} > threshold:
    no surface with D >= M fits under the threshold."""
    pi_lo, _, scale = pi_bracket(PI_DIGITS)
    base = coeff * Fraction(pi_lo, scale)
    for k in range(len(_MERTENS) - 1):
        if base * (1 << k) * _MERTENS[k] > threshold:
            return 1 << k
    raise ValueError(f"threshold {threshold} out of supported range")


def _exact_q(d: int, m: int, c: int) -> Fraction:
    return area_closed_form(SurfaceIndex(d, m, c, 1)).q


_CHUNK = 1 << 17


def _scan_m(d: int, m: int, xs: list[Fraction], bound_factor: int) -> list[np.ndarray]:
    """One residue class m, c descending under the certified envelope cut at
    bound_factor times the largest threshold; returns, per threshold x, the
    array of c with area exactly below x."""
    g = gcd(m, d)
    d0 = d // g
    side_primes = [p for p, _ in factorize(d // d0).factors]
    cap = _dyadic_D_cap(_uniform_bound_coeff(d, d0), max(xs) * bound_factor)
    R = weight_ratio_array(d, max(cap, 2))
    base_q = float(Fraction(d, d0 * d0) / 3)
    # per-prime lookup tables indexed by D mod p, folding in the halving at
    # shared primes (where the D-symbol is 0)
    tabs = []
    for p in side_primes:
        tab = np.empty(p, dtype=np.float64)
        for rem in range(p):
            sym = 0 if rem == 0 else (1 if pow(rem, (p - 1) // 2, p) == 1 else -1)
            fac = (1 - p**-2) / (1 - sym / p)
            if rem == 0:
                fac *= 0.5
            tab[rem] = fac
        tabs.append((p, tab))

    c_start = (m * m - 1) // d
    n0 = m * m - c_start * d  # in [1, d]
    step = d * d // (g * g)
    D0 = d * n0 // (g * g)
    total = int(math.ceil((cap - D0) / step)) if cap > D0 else 0
    kept = [[np.empty(0, dtype=np.int64)] for _ in xs]
    for lo in range(0, total, _CHUNK):
        j = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        D = D0 + step * j
        qv = base_q * D.astype(np.float64) * R[D]
        for p, tab in tabs:
            qv *= tab[D % p]
        area = qv * math.pi
        for out, x in zip(kept, xs):
            below = _below(
                area, x, lambda k: compare_to_threshold(ExactArea(_exact_q(d, m, c_start - lo - k)), x) < 0
            )
            out.append(c_start - j[below])
    return [np.concatenate(out) for out in kept]


def _scan_all(d: int, xs: list[Fraction], bound_factor: int) -> list[list[np.ndarray]]:
    """_scan_m over every residue m in ascending order.

    The weight array is built once, at the cap for d0 = d, which minimizes
    the envelope coefficient and so dominates every m."""
    cap = _dyadic_D_cap(_uniform_bound_coeff(d, d), max(xs) * bound_factor)
    weight_ratio_array(d, max(cap, 2))
    return [_scan_m(d, m, xs, bound_factor) for m in range(d)]


def enumerate_surfaces(d: int, X, bound_factor: int = 1, jobs: int | None = 1) -> list[SurfaceRecord]:
    """All surface records with area strictly below X, sorted by
    (q, m, c, r); every (m, c) appears once per divisor class r.

    Intended for record listings at moderate thresholds: each survivor gets
    an exact rational area.  Use xi or surface_counts for large scans.
    jobs is accepted and ignored."""
    _require_admissible(d)
    X = Fraction(X)
    if X <= 0:
        return []
    rs = divisors_below_sqrt(d)
    records = []
    for m, (cs,) in enumerate(_scan_all(d, [X], bound_factor)):
        for c in cs.tolist():
            d0, D = d0_and_D(d, m, c)
            q = _exact_q(d, m, c)
            records.extend(SurfaceRecord(m, c, r, d0, D, q) for r in rs)
    records.sort(key=lambda t: (t.q, t.m, t.c, t.r))
    return records


def xi(d: int, X, jobs: int | None = 1) -> int:
    """Number of surfaces with area below X: per-(m, c) count times the
    number of divisor classes.  jobs is accepted and ignored."""
    X = Fraction(X)
    if X <= 0:
        _require_admissible(d)
        return 0
    return surface_counts(d, [X])[0]


def surface_counts(d: int, thresholds: list, jobs: int | None = 1) -> list[int]:
    """xi at several thresholds from one scan at the largest of them.
    jobs is accepted and ignored."""
    _require_admissible(d)
    xs = [Fraction(x) for x in thresholds]
    if any(x <= 0 for x in xs):
        raise ValueError("thresholds must be positive")
    mult = len(divisors_below_sqrt(d))
    per_m = _scan_all(d, xs, bound_factor=1)
    return [mult * sum(map(len, kept)) for kept in zip(*per_m)]


@dataclass(frozen=True)
class FitRow:
    X: Fraction
    xi: int
    ratio: float
    leading: float
    rel_deviation: float


def fit_report(d: int, thresholds: list, jobs: int | None = 1, prime_limit: int = 10_000_000) -> list[FitRow]:
    """Empirical slope check: xi(X)/X against the leading constant.  jobs is
    accepted and ignored."""
    xs = [Fraction(x) for x in thresholds]
    if xs != sorted(xs):
        raise ValueError("thresholds must be ascending")
    counts = surface_counts(d, xs)
    L = leading_constant(d, prime_limit=prime_limit).l_main
    rows = []
    for x, n in zip(xs, counts):
        ratio = n / float(x)
        rows.append(FitRow(x, n, ratio, L, abs(ratio - L) / L))
    return rows


# --- Euler-product constants ---------------------------------------------


@dataclass(frozen=True)
class ConstantValue:
    d: int
    value: float
    truncation_prime: int
    prime_count: int
    tail_bound: float
    certified_digits: int


@dataclass(frozen=True)
class ConstantReport:
    d: int
    l_main: float
    l_main_bound: float
    l_census_form: float
    l_census_bound: float
    truncation_prime: int
    prime_count: int
    chain_gap: float


_SUMS_CACHE: dict[tuple[int, int], tuple[float, float, int]] = {}


def _euler_log_sums(ds, limit: int) -> dict[int, tuple[float, float, int]]:
    """Per-d log-sums of the main-product factor and the C factor over the
    primes below limit, with the number of primes: {d: (main, c, N)}.

    Cached per (d, limit); the d not yet cached for this limit share one
    pass over the primes."""
    missing = [d for d in dict.fromkeys(ds) if (d, limit) not in _SUMS_CACHE]
    if missing:
        tables = {d: character(d).residue_table() for d in missing}
        sums = {d: [0.0, 0.0] for d in missing}
        nprimes = 0
        for block in prime_blocks(limit):
            nprimes += len(block)
            pf = block.astype(np.float64)
            for d in missing:
                ch = tables[d][block % d].astype(np.float64)
                x_main = ((1.0 / pf) - ch * ch - ch) / (pf * pf)
                x_c = -ch / (pf * (pf + ch))
                sums[d][0] += float(np.sum(np.log1p(x_main)))
                sums[d][1] += float(np.sum(np.log1p(x_c)))
        for d in missing:
            _SUMS_CACHE[d, limit] = (*sums[d], nprimes)
    return {d: _SUMS_CACHE[d, limit] for d in ds}


def _prime_square_tail(nprimes: int) -> float:
    """Certified bound on sum of 1/p^2 over primes beyond the first
    nprimes, from p_n > n log n."""
    n = nprimes
    return 1.0 / (n * math.log(n) ** 2)


def constant_C(d: int, digits: int = 12, prime_limit: int | None = None) -> ConstantValue:
    """The counting constant prod_p (1 - 1/p + 1/(p + chi(p))), truncated
    with the documented tail bound 2 * sum_{p>P} p^-2 <= 2/(P-1).

    The truncation prime grows with the digit request up to the default
    cap; the certificate reports what the tail bound actually supports.
    """
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")
    if prime_limit is None:
        prime_limit = min(2 * 10**digits + 1, DEFAULT_PRIME_LIMIT)
    _, s_c, nprimes = _euler_log_sums((d,), prime_limit)[d]
    value = math.exp(s_c)
    tail = 2.0 / (prime_limit - 1)
    certified = max(0, int(-math.log10(tail)))
    return ConstantValue(d, value, prime_limit, nprimes, tail, certified)


def _tau(d: int) -> int:
    return divisor_stats(d)[0]


def leading_constant(d: int, prime_limit: int | None = None) -> ConstantReport:
    """Both Euler-product forms of the linear coefficient of xi(X).

    l_main: prefactor tau(d) pi/4 (5 pi/12 for d = 4) times the full-product
    form.  l_census_form: 3 C tau(d) / (2 pi) times the d-local factors
    (collapsing to 15 C / (4 pi) for d = 4).  Shares one prime stream so the
    identity between the forms survives truncation up to the p^-2 tail.
    """
    res = is_admissible(d)
    if not res.admissible:
        raise ValueError(f"d = {d} is not admissible: {res.reason}")
    if prime_limit is None:
        prime_limit = DEFAULT_PRIME_LIMIT
    s_main, s_c, nprimes = _euler_log_sums((d,), prime_limit)[d]
    tail2 = _prime_square_tail(nprimes)
    if d == 4:
        pref_main = 5 * math.pi / 12
        pref_census = 15 / (4 * math.pi)
        census_local = 1.0
    else:
        pref_main = _tau(d) * math.pi / 4
        pref_census = 3 * _tau(d) / (2 * math.pi)
        census_local = float(
            math.prod(
                1 + Fraction(1, p * p) / (1 - Fraction(1, p))
                for p, _ in factorize(d).factors
            )
        )
    l_main = pref_main * math.exp(s_main)
    l_census = pref_census * math.exp(s_c) * census_local
    l_main_bound = l_main * math.expm1(2.01 * tail2) + 1e-13 * l_main
    l_census_bound = l_census * math.expm1(1.01 * tail2) + 1e-13 * l_census
    return ConstantReport(
        d,
        l_main,
        l_main_bound,
        l_census,
        l_census_bound,
        prime_limit,
        nprimes,
        abs(l_main - l_census),
    )


def leading_constants_bundle(ds: tuple[int, ...], prime_limit: int | None = None) -> dict[int, ConstantReport]:
    """leading_constant for several d sharing a single prime pass."""
    if prime_limit is None:
        prime_limit = DEFAULT_PRIME_LIMIT
    _euler_log_sums(ds, prime_limit)
    return {d: leading_constant(d, prime_limit) for d in ds}


def _euler_phi(a: int) -> int:
    out = a
    for p, _ in factorize(a).factors if a > 1 else ():
        out = out // p * (p - 1)
    return out


@dataclass(frozen=True)
class ResidueCheck:
    d: int
    a: int
    product_form: float
    closed_form: float
    tolerance: float


def residue_constant_check(d: int, a: int, prime_limit: int = 10_000_000) -> ResidueCheck:
    """The Dirichlet-residue identity at s = 1: the displayed convergent
    product times prod_{p|a}(1 - 1/p) against phi(a) C / a."""
    for p, _ in factorize(a).factors if a > 1 else ():
        if d % p:
            raise ValueError(f"prime {p} of modulus a = {a} does not divide d = {d}")
    chi = character(d)
    table = chi.residue_table()
    logsum = 0.0
    for block in prime_blocks(prime_limit):
        pf = block.astype(np.float64)
        ch = table[block % d].astype(np.float64)
        # 1 - 1/p + (1 + chi/p)^-1 / p, evaluated literally
        factor = 1.0 - 1.0 / pf + 1.0 / (1.0 + ch / pf) / pf
        logsum += float(np.sum(np.log(factor)))
    lhs = math.exp(logsum)
    for p, _ in factorize(a).factors if a > 1 else ():
        lhs *= 1 - 1 / p
    Cv = constant_C(d, prime_limit=prime_limit)
    rhs = _euler_phi(a) * Cv.value / a
    tol = 2 * Cv.tail_bound + 4.0 / (prime_limit - 1)
    return ResidueCheck(d, a, lhs, rhs, tol)
