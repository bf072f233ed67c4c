"""The three workloads: how each builds its inputs from a seed, the request
list it sends to bianchisurf, and the checks its answers must pass.

Every request calls the library through a module attribute looked up at call
time, so that the traced round sees it.  Answers are checked with refmath,
the benchmark's own arithmetic, or against properties the method must have;
nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from bianchisurf import census, hermitian, quatorder, volume

import refmath

# The first 40 admissible fields: square-free d = 3 (mod 4) up to 227,
# without 39, 55, 95, 111, 155, 183, 203 and 219, whose class groups have an
# invariant divisible by 4.
CENSUS_FIELDS = (
    3, 7, 11, 15, 19, 23, 31, 35, 43, 47, 51, 59, 67, 71, 79, 83, 87, 91, 103, 107,
    115, 119, 123, 127, 131, 139, 143, 151, 159, 163, 167, 179, 187, 191, 195, 199,
    211, 215, 223, 227,
)
SWEEP_FIELDS = (3, 7, 11, 15, 19, 23)

# "full" is what the benchmark runs; "tiny" sends the same kinds of request
# through the same checks in a few seconds, for the benchmark's own tests.
SCALES = {
    "full": {
        "census_fields": CENSUS_FIELDS,
        "census_log2_len": 20,
        "recount_fields": (3, 7, 11, 15),
        "recount_area": (6, 14),
        "dual_fields": SWEEP_FIELDS,
        "dual_area": 80.0,
        "dual_per_field": 50,
        "c_digits": (6, 7),
        "c_fields": SWEEP_FIELDS + (4,),
        "l_limits": (2 * 10**6, 5 * 10**6, 10**7, 2 * 10**7),
        "lemma_X": 10**5,
        "lemma": ((3, 1), (3, 3), (7, 1), (7, 7), (15, 1), (15, 3), (15, 5)),
        "own_C_limit": 10**6,
    },
    "tiny": {
        "census_fields": (3, 7, 15, 35),
        "census_log2_len": 15,
        "recount_fields": (3, 15),
        "recount_area": (3, 7),
        "dual_fields": (3, 15),
        "dual_area": 15.0,
        "dual_per_field": 4,
        "c_digits": (3,),
        "c_fields": (3, 4),
        "l_limits": (10**4,),
        "lemma_X": 10**5,
        "lemma": ((3, 1), (3, 3), (15, 1), (15, 5)),
        "own_C_limit": 10**5,
    },
}

# xi(d, X)/X against the leading constant: the relative deviation shrinks
# like 1/sqrt(N), N = xi/(divisor classes) the circles counted.  Over seeds
# 1-30 at the top thresholds (arrays of 2^20 entries, 1200 requests) the
# largest |deviation| * sqrt(N) was 2.79 (d = 195, X = 32 pi/3, N = 76,
# +32%); for d = 3, N is about 1.5e4 and the deviation below 0.5%.
LEADING_SPREAD = 5.0
# count_F(d, 1, 0, X)/X against C: within 0.02% at X = 10^5 and 10^6.
LEMMA_TOLERANCE = 0.001
# The CLI's default request: 12 certified digits of C for d = 3.
CLI_DEFAULT_C = (3, 12)


@dataclass
class Record:
    kind: str
    args: tuple
    seconds: float
    result: object
    failed: bool
    error: str | None


class Client:
    """One client in a closed loop: each request is sent after the previous
    answer came back.  A request fails when it raises, or when its answer
    does not meet what was asked for (`meets`).  The speed probe runs once
    before the first request and once after every request, so request i
    lies between probes[i] and probes[i + 1]."""

    def __init__(self, clock, probe) -> None:
        self.clock = clock
        self.probe = probe
        self.records: list[Record] = []
        self.probes: list[float] = [probe()]

    def __call__(self, kind, fn, *args, meets=None, **kwargs):
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
            error = None
        except Exception as exc:  # a failed request is recorded, not fatal
            result = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = self.clock() - t0
        failed = error is not None or (meets is not None and not meets(result))
        self.records.append(Record(kind, args, seconds, result, failed, error))
        self.probes.append(self.probe())
        return result


def _threshold(area_q: Fraction) -> Fraction:
    """The area q * pi rounded to 12 significant digits: the surface sits
    inside every guard band, so the scan must re-decide it exactly."""
    return Fraction(format(float(area_q) * math.pi, ".11e"))


def _surface_near(d: int, target: float, lo: float, hi: float,
                  rng: random.Random) -> Fraction:
    """A threshold on the area of a surface near target and inside (lo, hi):
    residues m in random order, a few c around where the area should reach
    target; the first surface within 2% wins, else the nearest one seen."""
    best = None
    for m in rng.sample(range(d), d):
        d0, _ = refmath.invariants(d, m, 0)
        g = d // d0
        D_want = target / (math.pi * d / (3 * d0 * d0))
        c_mid = min(math.floor((m * m * d - D_want * g * g) / (d * d)), (m * m - 1) // d)
        for c in range(c_mid - 10, c_mid + 11):
            if m * m <= c * d:
                continue
            area = float(refmath.area_q(d, m, c)) * math.pi
            if lo < area < hi and (best is None or abs(area - target) < best[0]):
                best = (abs(area - target), m, c)
        if best is not None and best[0] <= 0.02 * target:
            break
    if best is None:
        raise RuntimeError(f"no surface with area in ({lo}, {hi}) for d = {d}")
    return _threshold(refmath.area_q(d, best[1], best[2]))


def _mertens(k: int) -> Fraction:
    out = Fraction(1)
    for p in refmath.prime_list(400)[:k]:
        out *= 1 - Fraction(1, p)
    return out


def weight_window(d: int, log2_len: int) -> tuple[float, float]:
    """Thresholds X for which xi(d, X) builds a weight array of exactly
    2^log2_len entries, by the scan's documented stop rule: the array is
    the smallest 2^k with K pi 2^k B_k > X, where B_k = prod of (1 - 1/p)
    over the first k primes and K = 1/(3d 2^omega(d)) prod_{p | d}(1 - 1/p)
    is the envelope coefficient of the residues with d0 = d."""
    k = Fraction(1, 3 * d * 2 ** len(refmath.factor(d)))
    for p in refmath.prime_factors(d):
        k *= 1 - Fraction(1, p)
    base = float(k * Fraction(314159265358979, 10**14))
    K = log2_len
    return base * 2 ** (K - 1) * float(_mertens(K - 1)), base * 2**K * float(_mertens(K))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


# --- census_cold ----------------------------------------------------------


def census_inputs(seed: int, scale: str) -> dict:
    """One request per field, alternating xi and a three-threshold
    surface_counts ladder; every top threshold lies inside the field's
    window, 15% away from either end."""
    sc = SCALES[scale]
    rng = random.Random(f"census_cold:{seed}")
    requests = []
    for i, d in enumerate(sc["census_fields"]):
        lo, hi = weight_window(d, sc["census_log2_len"])
        top = _surface_near(d, _log_uniform(rng, lo * 1.15, hi / 1.15), lo * 1.02, hi / 1.02, rng)
        if i % 2 == 0:
            requests.append(("xi", d, [top]))
        else:
            t = float(top)
            low = _surface_near(d, t * rng.uniform(0.3, 0.45), 0.2 * t, 0.5 * t, rng)
            mid = _surface_near(d, t * rng.uniform(0.6, 0.8), 0.55 * t, 0.9 * t, rng)
            requests.append(("ladder", d, [low, mid, top]))
    recounts = []
    for d in sc["recount_fields"]:
        # small areas are sparse multiples of pi/3: take a listed one
        lo, hi = sc["recount_area"]
        small = [mc for mc in refmath.circles_below(d, Fraction(hi), refmath.area_q)
                 if refmath.area_q(d, *mc) * math.pi >= lo]
        recounts.append((d, _threshold(refmath.area_q(d, *rng.choice(sorted(small))))))
    return {"requests": requests, "recounts": recounts}


def census_run(inputs: dict, client: Client) -> None:
    for kind, d, xs in inputs["requests"]:
        if kind == "xi":
            client("xi", census.xi, d, xs[0], jobs=1)
        else:
            client("ladder", census.surface_counts, d, xs, jobs=1)


def census_check(inputs: dict, records: list[Record]) -> list[str]:
    bad = []
    fields = sorted({d for _, d, _ in inputs["requests"]})
    lead = {d: census.leading_constant(d, prime_limit=10**6).l_main for d in fields}
    for (kind, d, xs), rec in zip(inputs["requests"], records):
        if rec.failed:
            continue
        counts = [rec.result] if kind == "xi" else list(rec.result)
        classes = refmath.divisor_classes(d)
        if len(counts) != len(xs):
            bad.append(f"{kind} d={d}: {len(counts)} answers for {len(xs)} thresholds")
            continue
        for x, n in zip(xs, counts):
            if n % classes:
                bad.append(f"{kind} d={d} X={x}: {n} not divisible by {classes} divisor classes")
        if counts != sorted(counts):
            bad.append(f"ladder d={d}: counts {counts} decrease along {xs}")
        dev = counts[-1] / float(xs[-1]) / lead[d] - 1
        tol = LEADING_SPREAD / math.sqrt(max(1, counts[-1] // classes))
        if abs(dev) > tol:
            bad.append(f"{kind} d={d}: xi/X deviates {dev:+.2%} from the leading constant (tolerance {tol:.2%})")
    for d, X in inputs["recounts"]:
        got = census.xi(d, X, jobs=1)
        own = len(refmath.circles_below(d, X, _price_via_order)) * refmath.divisor_classes(d)
        if got != own:
            bad.append(f"recount d={d} X={X}: xi = {got}, own recount {own}")
    return bad


def _price_via_order(d: int, m: int, c: int) -> Fraction:
    return volume.area_via_order(hermitian.SurfaceIndex(d, m, c, 1)).q


# --- dual_route -----------------------------------------------------------


def dual_inputs(seed: int, scale: str) -> dict:
    """Per sweep field, an area bound a little above the base and a seed for
    choosing which listed circles are sent."""
    sc = SCALES[scale]
    rng = random.Random(f"dual_route:{seed}")
    fields = []
    for d in sc["dual_fields"]:
        area = Fraction(f"{sc['dual_area'] * (1 + 0.1 * rng.random()):.3f}")
        fields.append((d, area, rng.randrange(2**32)))
    return {"fields": fields, "per_field": sc["dual_per_field"]}


def stratified_pick(items: list, count: int, rng: random.Random) -> list:
    """One item at random from each of count equal slices of the list, so
    that every seed draws the same mix of small and large areas."""
    if len(items) < count:
        raise ValueError(f"{len(items)} items, {count} wanted")
    return [items[rng.randrange(k * len(items) // count, (k + 1) * len(items) // count)]
            for k in range(count)]


def dual_circle(d: int, m: int, c: int) -> dict:
    """Both routes for one circle index: the order of every divisor class r
    with its closure defect, reduced discriminant and local data at each
    prime of dD/d0^2 computed closed-form and by brute force; then the area
    by the closed form and through the order."""
    d0, D = refmath.invariants(d, m, c)
    drd_primes = refmath.prime_factors(d * D // (d0 * d0))
    orders = []
    for r in range(1, math.isqrt(d) + 1):
        if d % r or r * r == d:
            continue
        idx = hermitian.SurfaceIndex(d, m, c, r)
        order = quatorder.build_order(hermitian.pullback_circle(idx))
        local = []
        for p in drd_primes:
            row = [p, quatorder.eichler_symbol_closed(d, D, d0, p),
                   quatorder.eichler_symbol_bruteforce(order, p)]
            if p != 2:
                row += [quatorder.nrd_index(d, D, d0, p), quatorder.nrd_index_bruteforce(order, p)]
            local.append(row)
        orders.append({
            "r": r,
            "defect": quatorder.closure_defect(order),
            "drd": quatorder.reduced_discriminant(order),
            "local": local,
        })
    idx1 = hermitian.SurfaceIndex(d, m, c, 1)
    return {
        "orders": orders,
        "closed": volume.area_closed_form(idx1).q,
        "via_order": volume.area_via_order(idx1).q,
    }


def _distinct_circles(records) -> list[tuple[int, int]]:
    seen = {}
    for rec in records:
        seen.setdefault((rec.m, rec.c), None)
    return list(seen)


def dual_run(inputs: dict, client: Client) -> None:
    for d, area, pick_seed in inputs["fields"]:
        listing = client("list", census.enumerate_surfaces, d, area, jobs=1)
        if listing is None:
            continue
        circles = _distinct_circles(listing)
        picked = stratified_pick(circles, min(inputs["per_field"], len(circles)),
                                 random.Random(pick_seed))
        for m, c in picked:
            client("circle", dual_circle, d, m, c)


def dual_check(inputs: dict, records: list[Record]) -> list[str]:
    bad = []
    for rec in records:
        if rec.failed:
            continue
        if rec.kind == "list":
            d, area = rec.args
            listed = _distinct_circles(rec.result)
            own = refmath.circles_below(d, area, refmath.area_q)
            if sorted(listed) != sorted(own):
                bad.append(f"list d={d} X={area}: {len(listed)} circles, own count {len(own)}")
            if len(listed) < inputs["per_field"]:
                bad.append(f"list d={d}: only {len(listed)} circles below {area}")
            if len(rec.result) != len(listed) * refmath.divisor_classes(d):
                bad.append(f"list d={d}: {len(rec.result)} records for {len(listed)} circles")
            continue
        d, m, c = rec.args
        tag = f"d={d} m={m} c={c}"
        d0, D = refmath.invariants(d, m, c)
        res = rec.result
        if len(res["orders"]) != refmath.divisor_classes(d):
            bad.append(f"{tag}: {len(res['orders'])} orders")
        for o in res["orders"]:
            if o["defect"]:
                bad.append(f"{tag} r={o['r']}: basis products {o['defect']} leave the order")
            if o["drd"] != d * D // (d0 * d0):
                bad.append(f"{tag} r={o['r']}: reduced discriminant {o['drd']} != dD/d0^2 = {d * D // (d0 * d0)}")
            for p, *vals in o["local"]:
                if vals[0] != vals[1] or vals[2:3] != vals[3:4]:
                    bad.append(f"{tag} r={o['r']} p={p}: closed {vals[0::2]} vs brute {vals[1::2]}")
        if res["closed"] != res["via_order"]:
            bad.append(f"{tag}: closed-form area {res['closed']} != order route {res['via_order']}")
        if res["closed"] != refmath.area_q(d, m, c):
            bad.append(f"{tag}: closed-form area {res['closed']} != own {refmath.area_q(d, m, c)}")
    return bad


# --- constants ------------------------------------------------------------


def constants_inputs(seed: int, scale: str) -> dict:
    """C at a ladder of digit requests, the leading constant at distinct
    prime limits (base plus a seeded offset of up to 5%, so no two requests
    share a sieve), every residue of a few counting-lemma moduli, and the CLI's
    default 12-digit C."""
    sc = SCALES[scale]
    rng = random.Random(f"constants:{seed}")
    c_reqs = [(d, k) for d in sc["c_fields"] for k in sc["c_digits"]]
    l_reqs = [(d, base + rng.randrange(2, base // 20))
              for d in sc["c_fields"] for base in sc["l_limits"]]
    X = sc["lemma_X"]
    lemma = [(d, a, r, X) for d, a in sc["lemma"] for r in range(a)]
    return {"C": c_reqs, "L": l_reqs, "lemma": lemma, "cli": CLI_DEFAULT_C,
            "own_C_limit": sc["own_C_limit"]}


def constants_run(inputs: dict, client: Client) -> None:
    for d, digits in inputs["C"] + [inputs["cli"]]:
        client("C", census.constant_C, d, digits,
               meets=lambda v, k=digits: v.certified_digits >= k)
    for d, limit in inputs["L"]:
        client("L", census.leading_constant, d, limit)
    for d, a, r, X in inputs["lemma"]:
        client("lemma", census.count_F_in_progression, d, a, r, X)


def constants_check(inputs: dict, records: list[Record]) -> list[str]:
    bad = []
    own = {d: refmath.euler_C(d, inputs["own_C_limit"]) for d in {rec.args[0] for rec in records}}
    counts = {}
    for rec in records:
        if rec.failed:
            if rec.error is not None or rec.kind != "C":
                bad.append(f"{rec.kind} {rec.args}: unexpected failure {rec.error}")
            elif rec.args != inputs["cli"]:
                bad.append(f"C {rec.args}: certifies {rec.result.certified_digits} digits")
            continue
        d = rec.args[0]
        C, tail = own[d]
        res = rec.result
        if rec.kind == "C":
            tol = C * (math.expm1(res.tail_bound) + tail) + 1e-12
            if abs(res.value - C) > tol:
                bad.append(f"C d={d}: {res.value!r} vs own product {C!r} (tolerance {tol:.2e})")
        elif rec.kind == "L":
            if abs(res.l_main - res.l_census_form) > res.l_main_bound + res.l_census_bound:
                bad.append(f"L d={d}: forms differ by {abs(res.l_main - res.l_census_form):.3e}")
            ref = refmath.leading_census_form(d, C)
            if abs(res.l_census_form - ref) > res.l_census_bound + ref * tail + 1e-12:
                bad.append(f"L d={d}: census form {res.l_census_form!r} vs own {ref!r}")
        else:
            counts[rec.args] = rec.result
    for (d, a, r, X), n in counts.items():
        if a == 1:
            rel = n / X / own[d][0] - 1
            if abs(rel) > LEMMA_TOLERANCE:
                bad.append(f"lemma d={d}: count/X deviates {rel:+.4%} from C")
    for d, a, X in {(d, a, X) for d, a, _, X in counts}:
        total = sum(counts.get((d, a, r, X), 0) for r in range(a))
        whole = counts.get((d, 1, 0, X))
        if whole is not None and total != whole:
            bad.append(f"lemma d={d} a={a}: residues sum to {total}, a = 1 gives {whole}")
    return bad


@dataclass(frozen=True)
class Workload:
    inputs: object
    run: object
    check: object


WORKLOADS = {
    "census_cold": Workload(census_inputs, census_run, census_check),
    "dual_route": Workload(dual_inputs, dual_run, dual_check),
    "constants": Workload(constants_inputs, constants_run, constants_check),
}


def accepted(records: list[Record]) -> int:
    """Circles the scans accepted: per-(m, c) counts at each scan's largest
    threshold, before the spread over divisor classes."""
    total = 0
    for rec in records:
        if rec.failed or rec.kind not in ("xi", "ladder", "list"):
            continue
        d = rec.args[0]
        n = {"xi": lambda v: v, "ladder": max, "list": len}[rec.kind](rec.result)
        total += n // refmath.divisor_classes(d)
    return total
