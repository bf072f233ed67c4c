"""Surface enumeration, counting asymptotics, and Euler-product constants.

One scan feeds xi, threshold ladders and record listings.  Residue m runs c
downward along the progression D = D0 + (d/g)^2 j, g = gcd(m, d), and every
residue's progression is one int64 array over m.  Every threshold decision
is one integer comparison F(D) <= T, T the bound of D's class mod g: an area
is pi F(D) times a rational fixed by D mod g (volume's side_factors, the
closed form's one definition), below X exactly when F(D) is at most T,
found once per scan by compare_to_threshold; a listing prices its survivors
as that rational times F(D).  As F(D) is at least D L(D), L(D) the product
of (1 - 1/q) over the first k inert primes q, k the most whose product is at
most D, each progression stops at the certified cap where D L(D) passes the
largest T of its classes for good (_envelope_cap).  One sieve loop
(_windows) lays the progressions end to end in windows of at most _CHUNK
entries, each finding its progressions by their cumulative starts.  A
window's integers F(D) = D prod_{p|D}(1 + chi(p)/p) come from one
progression sieve (weight_ratio_array), its candidates' classes from the
symbol tables at the primes of g, and its c below each threshold are
counted or listed, so no array grows with the cap.  Requests past the
factorization limit 10^12, however large the threshold, or past a fixed
budget of candidates times thresholds (_MAX_PRICED) are refused before
anything is sieved, with the same verdict on every machine.  The counting
lemma counts F <= ceil(X) - 1 on the same windows and stops by the same
rule, where n L(n) passes X.  Both keep nothing between calls and meet the
same two refusals.  Everything runs in the calling process: xi,
surface_counts and enumerate_surfaces ignore their `jobs` keyword.

Constants are truncated Euler products over a segmented prime sieve, with
explicit tail certificates (Rosser's p_n > n log n).  Their log-sums are
summed block by block on a fixed grid of PRIME_BLOCK integers and cached
per field at every grid point a pass crosses, so a new truncation prime
resumes from the last checkpoint below it and each field sieves a prime
range once; the sums are bit-identical whatever the cache held.  Every
constant request checks its truncation prime (4 to 10^12) and, for the
leading constant, every field before anything is sieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from .classgroup import is_admissible
from .hermitian import divisors_below_sqrt
from .ntkernel import _FACTOR_LIMIT, PRIME_BLOCK, PRIMES, character, divisor_stats, factorize, is_squarefree, prime_blocks, symbol_table
from .volume import PI_DIGITS, ExactArea, compare_to_threshold, pi_bracket, side_factors
from .volume import F_value  # public here too, as bianchisurf.census.F_value

DEFAULT_PRIME_LIMIT = 300_000_000


def _require_admissible(d: int) -> None:
    """Refuses an inadmissible d, and d = 4.  A d of the right shape past the
    character table's limit is refused before is_admissible's class group,
    whose cost grows with d."""
    if d % 4 == 3 and is_squarefree(d):
        character(d)
    res = is_admissible(d)
    if not res.admissible or res.reason == "d4-constant-only":
        raise ValueError(f"d = {d} is not admissible: {res.reason or 'constant-only'}")


# --- the arithmetic weight F and its counting lemma ----------------------


def _envelope_cap(d: int, bound: Fraction | int, step: int) -> int:
    """First n such that n * L(n) > bound for every later n: as F(n) >= n L(n),
    no F from there on is at most bound.

    Take the inert primes q_1 < q_2 < ... of chi_d (p not | d, chi(p) = -1),
    their partial products Q_k and L_k = prod_{i <= k}(1 - 1/q_i); L(n) = L_k
    on the piece Q_k <= n < Q_{k+1}.  Then n * prod_{p|n}(1 + chi(p)/p) >=
    n * L(n): only the inert primes of n give factors below 1, and the first
    k inert primes minimise prod (1 - 1/p) over every set of distinct inert
    primes with product at most n.  For if j of them have product at most n,
    their i-th smallest is at least q_i, so Q_j <= n and j <= k; and their
    product of (1 - 1/p) is at least L_j >= L_k.

    On each piece the envelope n * L_k rises with n.  At the next jump it
    falls to Q_{k+1} L_{k+1} = Q_k L_k (q_{k+1} - 1) >= Q_k L_k, the bottom of
    the piece before: the bottoms never fall, so once the next jump clears
    the bound every later n does.  The cap is then the first n of the
    current piece that clears, or the jump.

    Refused before the walk, whose products grow with the bound, when
    bound >= 10^12 + step: as L <= 1 the cap then passes bound, so a
    progression of this step starting below the cap has an entry at or past
    the factorization limit 10^12 below it."""
    if bound >= _FACTOR_LIMIT + step:
        raise ValueError(f"would sieve past the factorization limit {_FACTOR_LIMIT}")
    chi = character(d)
    Q, L = 1, Fraction(1)
    for q in PRIMES:
        if chi(q) != -1:
            continue
        if Q * (q - 1) * L > bound:
            return min(Q * q, int(bound / L) + 1)
        Q, L = Q * q, L * (1 - Fraction(1, q))
    raise ValueError(f"bound {bound} out of supported range")


_STRIDED = 16  # a segment at least this many times p long is sieved by slices


def weight_ratio_array(d: int, segments) -> np.ndarray:
    """F(D) = D * prod_{p | D, p not | d} (1 + chi(p)/p) over the progressions
    D = D0 + step * j, 0 <= j < count, one (D0, step, count) per segment,
    concatenated, as int64: the part of D at the primes of d times p^(k-1)
    (p + chi(p)) for each other p^k || D, below 6 * 10^12 with every partial
    product for D < 10^12.  Needs D0 >= 1, step >= 1, and every prime of
    e = gcd(D0, step) dividing d, as in the census (e = d/g) and the lemma
    (e | a).

    Then F(D) = e F(D/e), so the sieve runs on n = D/e = D0/e + (step/e) j,
    whose start is prime to its step, by the primes up to sqrt(max n).  A
    prime of the step divides no n; any other p^k divides n exactly on one
    class of j mod p^k.  Long segments mark these classes with slices while
    they are dense; the short ones mark p's class all at once with one index
    array.  On p's class F becomes F // p * (p + chi(p)), exact in any order,
    as no other prime lowers the power of p in F; p is divided out of a
    cofactor as often as it divides, which is fewer times than max n has
    bits, so a p that divides on past that is a sieve defect and raises
    RuntimeError.  The cofactor left is 1 or one prime, treated the same way
    from the character's table.
    """
    segments = [tuple(map(int, seg)) for seg in segments]
    if any(D0 < 1 or step < 1 for D0, step, _ in segments):
        raise ValueError("progressions must start at D0 >= 1 with step >= 1")
    e = [gcd(D0, step) for D0, step, _ in segments]
    if any(pow(d, g.bit_length(), g) for g in e):  # g | d^k, k past every exponent of g
        raise ValueError(f"gcd(D0, step) must have only primes of d = {d}")
    segments = [(D0 // g, step // g, n) for (D0, step, n), g in zip(segments, e)]
    D0, step, count = np.array(segments, dtype=np.int64).reshape(-1, 3).T
    start = np.cumsum(count) - count
    rest = np.concatenate([np.empty(0, dtype=np.int64)] + [np.arange(a, a + b * n, b, dtype=np.int64) for a, b, n in segments])
    F = rest.copy()
    if not len(rest):
        return F
    table = character(d).table
    top = int(rest.max())
    bits = top.bit_length()  # p^k <= max n needs k < bits
    steps, which = np.unique(step, return_inverse=True)
    for block in prime_blocks(math.isqrt(top) + 1):
        for p in block.tolist():
            ch = int(table[p % d])
            unit = step % p != 0  # p divides no entry where it divides the step
            long = unit & (count >= _STRIDED * p)
            divisible = []  # entries still divisible by p after the slices
            for s in np.flatnonzero(long).tolist():
                a, b, n = segments[s]
                lo, hi, pk = int(start[s]), int(start[s]) + n, p
                j = lo + -a * pow(b, -1, p) % p
                F[j:hi:p] //= p
                F[j:hi:p] *= p + ch
                while pk * _STRIDED <= n:
                    rest[j:hi:pk] //= p
                    pk *= p
                    j = lo + -a * pow(b, -1, pk) % pk  # p^k | a + b j
                divisible.append(np.arange(j, hi, pk))
            if (short := unit & ~long).any():
                inverse = np.array([pow(b, -1, p) if b % p else 0 for b in steps.tolist()], dtype=np.int64)
                j0 = (-D0 % p) * inverse[which] % p
                per_seg = np.where(short, (count - j0 + p - 1) // p, 0)
                hits = np.repeat(start + j0 - p * (np.cumsum(per_seg) - per_seg), per_seg)
                hits += p * np.arange(len(hits))
                F[hits] = F[hits] // p * (p + ch)
                divisible.append(hits)
            hits = np.concatenate(divisible or [np.empty(0, dtype=np.int64)])
            for _ in range(bits):
                if not len(hits):
                    break
                rest[hits] //= p
                hits = hits[rest[hits] % p == 0]
            if len(hits):
                raise RuntimeError(f"sieve defect: p = {p} still divides an entry after {bits} divisions")
    big = np.flatnonzero(rest > 1)
    q = rest[big]
    F[big] = F[big] // q * (q + table[q % d])
    return F * np.repeat(e, count)


_CHUNK = 1 << 17
# the largest request started, in candidates times thresholds: a fixed limit, not a
# measurement (windows bound the memory; the per-window prime loop sets the time)
_MAX_PRICED = 2**34


def _windows(d: int, D0: np.ndarray, step: np.ndarray, count: np.ndarray, nthresholds: int):
    """The progressions D = D0[k] + step[k] j, 0 <= j < count[k] (int64
    arrays) laid end to end, in windows of at most _CHUNK entries: an
    iterator of (k, n, j, F) per window.  Progression k[i] has n[i] entries
    in it, found by clipping against the cumulative starts: the entries are
    np.repeat(k, n) at index j, with F(D) in F from one weight_ratio_array.

    Refused at the call, before anything is sieved: a D at or past the
    factorization limit, then more entries times nthresholds than _MAX_PRICED."""
    live = np.flatnonzero(count > 0)
    D0, step, count = D0[live], step[live], count[live]
    top = int((D0 + step * (count - 1)).max(initial=0))
    if top >= _FACTOR_LIMIT:
        raise ValueError(f"would sieve up to {top}, past the factorization limit {_FACTOR_LIMIT}")
    ends = np.cumsum(count)
    firsts, total = ends - count, int(count.sum())
    if total * nthresholds > _MAX_PRICED:
        raise ValueError(f"would price {total} candidates at {nthresholds} threshold(s), past the budget of {_MAX_PRICED}")
    def sieved():
        for w0 in range(0, total, _CHUNK):
            # the progressions a <= k < b overlap [w0, w0 + _CHUNK), each at its entries lo <= j < lo + n
            a, b = np.searchsorted(ends, w0, side="right"), np.searchsorted(firsts, w0 + _CHUNK)
            lo = np.maximum(w0 - firsts[a:b], 0)
            n = np.minimum(w0 + _CHUNK - firsts[a:b], count[a:b]) - lo
            j = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n - lo, n)
            yield live[a:b], n, j, weight_ratio_array(d, np.column_stack([D0[a:b] + step[a:b] * lo, step[a:b], n]))
    return sieved()


def _check_prime_limit(prime_limit: int) -> None:
    if prime_limit < 4:  # two primes below it: 2/(P - 1) and 1/(N log^2 N) are finite
        raise ValueError(f"prime_limit must be at least 4, got {prime_limit}")
    if prime_limit > _FACTOR_LIMIT:  # past what prime_blocks sieves
        raise ValueError(f"prime_limit must be at most {_FACTOR_LIMIT}, got {prime_limit}")


def _check_modulus(d: int, a: int) -> None:
    character(d)  # refuses an unsupported d, even where nothing is sieved
    if a < 1:
        raise ValueError(f"modulus must be positive, got {a}")
    for p, _ in factorize(a).factors:
        if d % p:
            raise ValueError(f"prime {p} of modulus a = {a} does not divide d = {d}")


def count_F_in_progression(d: int, a: int, r: int, X) -> int:
    """Exact #{n = r (mod a), n >= 1 : F(n) < X}.

    Requires every prime of a to divide d.  Enumeration stops where the
    inert-prime envelope n L(n) passes X, as F(n) >= n L(n), and runs window by
    window through the census sieve, which gives F(n) as an integer: F(n) < X
    exactly when F(n) <= ceil(X) - 1.
    """
    _check_modulus(d, a)
    X = Fraction(X)
    if X <= 1:
        return 0
    start = r % a or a
    ncap = _envelope_cap(d, X, a)
    windows = _windows(d, *np.array([[start], [a], [-(-(ncap - start) // a)]], dtype=np.int64), 1)
    return sum(int(np.count_nonzero(F <= math.ceil(X) - 1)) for *_, F in windows)


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


def _bounds(d: int, g: int, xs: list[Fraction]) -> dict[tuple[int, ...], tuple[Fraction, list[int]]]:
    """{symbols: (q, T)} for every tuple of symbols s_p = (D/p) in {0, 1, -1}
    at the primes p | g: q is g^2/(3d) times the side factors at those
    symbols, and T[i] the largest F with q F pi < xs[i], or 0 if none.  Each
    starts from floor(x / (q pi_lo)), never too low as pi_lo < pi, clamped at
    10^12 + (d/g)^2, a bound _envelope_cap refuses, and steps down while
    compare_to_threshold puts q t pi above x."""
    primes = [p for p, _ in factorize(g).factors]
    pi_lo, _, scale = pi_bracket(PI_DIGITS)
    bounds = {}
    for key in product((0, 1, -1), repeat=len(primes)):
        q = Fraction(g * g, 3 * d) * math.prod(side_factors(p)[s] for p, s in zip(primes, key))
        column = []
        for x in xs:
            t = min(x * scale // (q * pi_lo), _FACTOR_LIMIT + (d // g) ** 2)
            while t > 0 and compare_to_threshold(ExactArea(q * t), x) > 0:
                t -= 1
            column.append(t)
        bounds[key] = q, column
    return bounds


def _scan_all(d: int, xs: list[Fraction], bound_factor: int):
    """Every residue m in ascending order, c descending from c_start, the
    largest c with m^2 > c d: D = D0 + (d/g)^2 j at c = c_start - j, every
    residue's data one int64 array over m (below 10^12, as d < 10^6).
    Returns (qs, windows): windows yields, per window, the candidates' arrays
    (m, c, D, F, col) and one mask per threshold xs[i], set where the area
    qs[col] * F * pi is exactly below xs[i].

    A candidate is below xs[i] exactly when F(D) <= T[i], the bound of its
    class of D mod g (_bounds).  So each progression of a g stops at the
    envelope cap (_envelope_cap) at bound_factor times the largest T of its
    classes: past it F(D) >= D L(D) passes every T.  The caps' and the
    windows' (_windows) refusals come before any work that grows with g:
    the class of each r mod g, read from symbol_table at the primes of g."""
    m = np.arange(d, dtype=np.int64)
    g = np.gcd(m, d)
    c_start = (m * m - 1) // d
    step = (d // g) ** 2
    D0 = d // g * ((m * m - c_start * d) // g)
    gs, which = np.unique(g, return_inverse=True)
    bounds = {h: _bounds(d, h, xs) for h in gs.tolist()}
    caps = [_envelope_cap(d, bound_factor * max(max(T) for _, T in b.values()), (d // h) ** 2) for h, b in bounds.items()]
    windows = _windows(d, D0, step, (np.array(caps, dtype=np.int64)[which] - D0 + step - 1) // step, len(xs))
    # every g's classes side by side, in _bounds' order: class r of D mod g is column col_of[base + r]
    qs, columns, col_of = [], [], []
    for h, b in bounds.items():
        r, key = np.arange(h, dtype=np.int64), np.zeros(h, dtype=np.int64)
        for p, _ in factorize(h).factors:
            key = 3 * key + symbol_table(p)[r % p] % 3  # symbols 0, 1, -1 as digits 0, 1, 2
        col_of.append(len(qs) + key)
        qs += (q for q, _ in b.values())
        columns += (column for _, column in b.values())
    T = np.array(columns, dtype=np.int64).T
    col_of = np.concatenate(col_of)
    base = (np.cumsum(gs) - gs)[which]

    def scanned():
        for k, n, j, W in windows:
            # read through an index array: perfbench counts such reads as candidates
            F = W[np.arange(len(W))]
            each = lambda a: np.repeat(a[k], n)  # noqa: E731  a's value at each candidate's residue
            D = each(D0) + each(step) * j
            col = col_of[each(base) + D % each(g)]
            yield np.repeat(k, n), each(c_start) - j, D, F, col, [F <= bound[col] for bound in T]

    return qs, scanned()


def enumerate_surfaces(d: int, X, bound_factor: int = 1, jobs: int | None = 1) -> list[SurfaceRecord]:
    """All surface records with area strictly below X, sorted by
    (q, m, c, r); every (m, c) appears once per divisor class r.

    Intended for record listings at moderate thresholds: each survivor is
    priced exactly as its class's rational times its F(D) from the scan.
    Use xi or surface_counts for large scans.  bound_factor >= 1 widens the
    envelope caps; jobs is accepted and ignored."""
    if bound_factor < 1:
        raise ValueError(f"bound_factor must be at least 1, got {bound_factor}")
    _require_admissible(d)
    X = Fraction(X)
    if X <= 0:
        return []
    rs = divisors_below_sqrt(d)
    qs, windows = _scan_all(d, [X], bound_factor)
    records = []
    for *arrays, (below,) in windows:
        for m, c, D, F, col in zip(*(a[below].tolist() for a in arrays)):
            records.extend(SurfaceRecord(m, c, r, d // gcd(m, d), D, qs[col] * F) for r in rs)
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
    """xi at several thresholds from one scan at the largest of them; each
    window's survivors are counted and dropped.  jobs is accepted and
    ignored."""
    _require_admissible(d)
    xs = [Fraction(x) for x in thresholds]
    if not xs:
        raise ValueError("surface_counts needs at least one threshold")
    if any(x <= 0 for x in xs):
        raise ValueError("thresholds must be positive")
    mult = len(divisors_below_sqrt(d))
    counts = [0] * len(xs)
    for *_, below in _scan_all(d, xs, bound_factor=1)[1]:
        counts = [n + mult * int(np.count_nonzero(mask)) for n, mask in zip(counts, below)]
    return counts


@dataclass(frozen=True)
class FitRow:
    X: Fraction
    xi: int
    ratio: float
    leading: float
    rel_deviation: float


def fit_report(d: int, thresholds: list) -> list[FitRow]:
    """Empirical slope check: xi(X)/X against the leading constant,
    truncated at 10^7."""
    xs = [Fraction(x) for x in thresholds]
    if xs != sorted(xs):
        raise ValueError("thresholds must be ascending")
    counts = surface_counts(d, xs)
    L = leading_constant(d, prime_limit=10_000_000).l_main
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

    The primes are summed block by block on the grid g_k = 3 + k PRIME_BLOCK
    (the 2 in the first block): each sum is 0.0 plus one np.sum per block,
    in order.  A pass caches its sums at every grid point it crosses as well
    as at limit, all under (d, point), and a d not cached at limit resumes
    from its largest cached grid point at or below limit, found by walking
    down the grid from limit; the d of one call share one pass, each joining
    at its own point.  The additions are the same whatever the cache held,
    so the sums do not depend on its history, bit for bit."""
    _check_prime_limit(limit)
    missing = [d for d in dict.fromkeys(ds) if (d, limit) not in _SUMS_CACHE]
    if missing:
        grid = range(3, limit + 1, PRIME_BLOCK)
        # each d resumes from its largest cached grid point
        joins = {d: next((k for k in range(len(grid) - 1, 0, -1) if (d, grid[k]) in _SUMS_CACHE), 0) for d in missing}
        sums = {d: list(_SUMS_CACHE.get((d, grid[k]), (0.0, 0.0, 0))) for d, k in joins.items()}
        for block in prime_blocks(limit, PRIME_BLOCK, grid[min(joins.values())]):
            # the block's grid index from its last prime (limit >= 4 puts 3 in block 0)
            k = (int(block[-1]) - 3) // PRIME_BLOCK
            pf = block.astype(np.float64)
            for d in missing:
                if joins[d] > k:
                    continue
                ch = character(d).table[block % d].astype(np.float64)
                x_main = ((1.0 / pf) - ch * ch - ch) / (pf * pf)
                x_c = -ch / (pf * (pf + ch))
                s = sums[d]
                s[0] += float(np.sum(np.log1p(x_main)))
                s[1] += float(np.sum(np.log1p(x_c)))
                s[2] += len(block)
                if k + 1 < len(grid):
                    _SUMS_CACHE[d, grid[k + 1]] = tuple(s)
        for d in missing:
            _SUMS_CACHE[d, limit] = tuple(sums[d])
    return {d: _SUMS_CACHE[d, limit] for d in ds}


def _prime_square_tail(nprimes: int) -> float:
    """Certified bound on sum of 1/p^2 over primes beyond the first
    nprimes, from p_n > n log n."""
    return 1.0 / (nprimes * math.log(nprimes) ** 2)


def constant_C(d: int, digits: int = 12, prime_limit: int | None = None) -> ConstantValue:
    """The counting constant prod_p (1 - 1/p + 1/(p + chi(p))), truncated
    with the documented tail bound 2 * sum_{p>P} p^-2 <= 2/(P-1).

    The truncation prime grows with the digit request up to the default
    cap; the certificate reports what the tail bound actually supports.
    """
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")
    if prime_limit is None:
        # 10**9 already passes the cap: never build 10**digits for a huge request
        prime_limit = min(2 * 10 ** min(digits, 9) + 1, DEFAULT_PRIME_LIMIT)
    _, s_c, nprimes = _euler_log_sums((d,), prime_limit)[d]
    value = math.exp(s_c)
    tail = 2.0 / (prime_limit - 1)
    certified = max(0, int(-math.log10(tail)))
    return ConstantValue(d, value, prime_limit, nprimes, tail, certified)


def leading_constant(d: int, prime_limit: int | None = None) -> ConstantReport:
    """Both Euler-product forms of the linear coefficient of xi(X); see
    leading_constants_bundle."""
    return leading_constants_bundle((d,), prime_limit)[d]


def leading_constants_bundle(ds: tuple[int, ...], prime_limit: int | None = None) -> dict[int, ConstantReport]:
    """Both Euler-product forms of the linear coefficient of xi(X) for each d,
    from one shared prime pass.

    l_main: prefactor tau(d) pi/4 (5 pi/12 for d = 4) times the full-product
    form.  l_census_form: 3 C tau(d) / (2 pi) times the d-local factors
    (collapsing to 15 C / (4 pi) for d = 4).  Both read the same log-sums so
    the identity between the forms survives truncation up to the p^-2 tail.
    Every d, and then the truncation prime, is checked before anything is
    sieved.
    """
    if prime_limit is None:
        prime_limit = DEFAULT_PRIME_LIMIT
    for d in ds:
        if d != 4:
            _require_admissible(d)
    reports = {}
    for d, (s_main, s_c, nprimes) in _euler_log_sums(ds, prime_limit).items():
        tail2 = _prime_square_tail(nprimes)
        if d == 4:
            pref_main = 5 * math.pi / 12
            pref_census = 15 / (4 * math.pi)
            census_local = 1.0
        else:
            tau = divisor_stats(d)[0]
            pref_main = tau * math.pi / 4
            pref_census = 3 * tau / (2 * math.pi)
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
        reports[d] = ConstantReport(
            d,
            l_main,
            l_main_bound,
            l_census,
            l_census_bound,
            prime_limit,
            nprimes,
            abs(l_main - l_census),
        )
    return reports


def _euler_phi(a: int) -> int:
    out = a
    for p, _ in factorize(a).factors:
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
    product times prod_{p|a}(1 - 1/p) against phi(a) C / a.

    The product side runs its own literal loop over the primes and never
    reads _SUMS_CACHE, so it stays an independent check of constant_C."""
    _check_modulus(d, a)
    _check_prime_limit(prime_limit)
    table = character(d).table
    logsum = 0.0
    for block in prime_blocks(prime_limit):
        pf = block.astype(np.float64)
        ch = table[block % d].astype(np.float64)
        # 1 - 1/p + (1 + chi/p)^-1 / p, evaluated literally
        factor = 1.0 - 1.0 / pf + 1.0 / (1.0 + ch / pf) / pf
        logsum += float(np.sum(np.log(factor)))
    lhs = math.exp(logsum)
    for p, _ in factorize(a).factors:
        lhs *= 1 - 1 / p
    Cv = constant_C(d, prime_limit=prime_limit)
    rhs = _euler_phi(a) * Cv.value / a
    tol = 2 * Cv.tail_bound + 4.0 / (prime_limit - 1)
    return ResidueCheck(d, a, lhs, rhs, tol)
