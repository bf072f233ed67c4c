"""Cross-validation suites: every closed-form claim against its
independent brute-force oracle, plus the constant-chain and counting
invariants.

Each suite walks its whole range and reports pass/fail with retained
counterexamples; nothing stops at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .census import (
    F_value,
    _dyadic_D_cap,
    _dyadic_envelope_start,
    _uniform_bound_coeff,
    count_F_in_progression,
    enumerate_surfaces,
    leading_constants_bundle,
    residue_constant_check,
    xi,
)
from .classgroup import class_group, is_admissible
from .hermitian import (
    SurfaceIndex,
    divisors_below_sqrt,
    pullback_circle,
    verify_gcd_identities,
)
from .ntkernel import factorize
from .quatorder import (
    build_order,
    closure_defect,
    eichler_symbol_bruteforce,
    eichler_symbol_closed,
    nrd_index,
    nrd_index_bruteforce,
    reduced_discriminant,
)
from .volume import area_closed_form, area_via_order, compare_to_threshold

SWEEP_DS = (3, 7, 11, 15, 19, 23)
SWEEP_D_LIMIT = 200

_KEEP = 8


@dataclass
class SuiteReport:
    suite: str
    checked: int = 0
    failure_count: int = 0
    counterexamples: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    by_category: dict[str, list[int]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def category_passed(self, category: str) -> bool:
        tally = self.by_category.get(category)
        return tally is not None and tally[0] > 0 and tally[1] == 0

    def category_checked(self, category: str) -> int:
        tally = self.by_category.get(category)
        return 0 if tally is None else tally[0]

    def record(self, ok: bool, where: str = "", category: str | None = None) -> bool:
        self.checked += 1
        if category is not None:
            tally = self.by_category.setdefault(category, [0, 0])
            tally[0] += 1
            tally[1] += 0 if ok else 1
        if not ok:
            self.failure_count += 1
            if len(self.counterexamples) < _KEEP:
                self.counterexamples.append(where)
        return ok

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        line = f"{self.suite}: {verdict} ({self.checked} checks"
        if self.failure_count:
            line += f", {self.failure_count} failures"
        line += ")"
        for ce in self.counterexamples:
            line += f"\n  counterexample: {ce}"
        for note in self.notes:
            line += f"\n  note: {note}"
        return line


def pairs_under(d: int, D_limit: int):
    """(m, c, d0, D) for every circle index with D at most D_limit."""
    for m in range(d):
        g = gcd(m, d)
        c = (m * m - 1) // d
        while True:
            D = (m * m * d - c * d * d) // (g * g)
            if D > D_limit:
                break
            yield m, c, d // g, D
            c -= 1


def surfaces_under(d: int, D_limit: int):
    rs = divisors_below_sqrt(d)
    for m, c, d0, D in pairs_under(d, D_limit):
        for r in rs:
            yield SurfaceIndex(d, m, c, r), d0, D


def sweep(ds=SWEEP_DS, D_limit=SWEEP_D_LIMIT) -> tuple[SuiteReport, SuiteReport]:
    """One pass over the master range feeding both the order suite and the
    area suite; brute-force local data is shared through the module cache."""
    orders = SuiteReport("orders")
    areas = SuiteReport("areas")
    for d in ds:
        for m, c, d0, D in pairs_under(d, D_limit):
            drd_expected = d * D // (d0 * d0)
            drd_primes = [p for p, _ in factorize(drd_expected).factors]
            for r in divisors_below_sqrt(d):
                idx = SurfaceIndex(d, m, c, r)
                tag = f"d={d} m={m} c={c} r={r}"
                circle = pullback_circle(idx)
                order = build_order(circle)
                orders.record(
                    verify_gcd_identities(idx), f"{tag}: gcd identities", "gcd"
                )
                orders.record(
                    closure_defect(order) == [],
                    f"{tag}: basis not closed",
                    "closure",
                )
                drd = reduced_discriminant(order)
                orders.record(
                    drd == drd_expected,
                    f"{tag}: reduced discriminant {drd} != {drd_expected}",
                    "drd",
                )
                for p in drd_primes:
                    closed = eichler_symbol_closed(d, D, d0, p)
                    brute = eichler_symbol_bruteforce(order, p)
                    orders.record(
                        closed == brute,
                        f"{tag} p={p}: symbol closed {closed} != brute {brute}",
                        "symbol",
                    )
                    if p != 2:
                        ic = nrd_index(d, D, d0, p)
                        ib = nrd_index_bruteforce(order, p)
                        orders.record(
                            ic == ib,
                            f"{tag} p={p}: norm index closed {ic} != brute {ib}",
                            "norm-index",
                        )
            q1 = area_closed_form(SurfaceIndex(d, m, c, 1))
            q2 = area_via_order(SurfaceIndex(d, m, c, 1))
            areas.record(
                q1.q == q2.q,
                f"d={d} m={m} c={c}: closed {q1.q} != order route {q2.q}",
                "area",
            )
    return orders, areas


def suite_constants(ds=SWEEP_DS, prime_limit: int | None = None) -> SuiteReport:
    rep = SuiteReport("constants")
    bundle = leading_constants_bundle(tuple(ds), prime_limit)
    for d in ds:
        r = bundle[d]
        rep.record(
            r.chain_gap < 1e-9,
            f"d={d}: |{r.l_main} - {r.l_census_form}| = {r.chain_gap:.3e} >= 1e-9",
        )
        rep.record(
            r.chain_gap <= r.l_main_bound + r.l_census_bound,
            f"d={d}: gap {r.chain_gap:.3e} exceeds combined tail bounds",
        )
    rep.notes.append(
        f"truncation prime {bundle[ds[0]].truncation_prime}, "
        f"{bundle[ds[0]].prime_count} primes"
    )
    for d, a in ((3, 1), (3, 3), (15, 15)):
        chk = residue_constant_check(d, a)
        rep.record(
            abs(chk.product_form - chk.closed_form) <= chk.tolerance,
            f"residue d={d} a={a}: {chk.product_form} vs {chk.closed_form}",
        )
    return rep


def _brute_xi(d: int, X: Fraction, bound_factor: int = 4) -> int:
    """Independent census recount: plain python loop, exact areas, and a
    widened stop bound."""
    total = 0
    for m in range(d):
        g = gcd(m, d)
        cap = _dyadic_D_cap(_uniform_bound_coeff(d, d // g), X * bound_factor)
        c = (m * m - 1) // d
        while True:
            D = (m * m * d - c * d * d) // (g * g)
            if D >= cap:
                break
            if compare_to_threshold(area_closed_form(SurfaceIndex(d, m, c, 1)), X) < 0:
                total += 1
            c -= 1
    return total * len(divisors_below_sqrt(d))


def _brute_count_F(d: int, a: int, r: int, X: Fraction) -> int:
    ncap = _dyadic_envelope_start(X)
    want = r % a
    return sum(
        1 for n in range(1, ncap) if n % a == want and F_value(d, n) < X
    )


def suite_counts() -> SuiteReport:
    rep = SuiteReport("counts")
    spot = {Fraction("0.5"): 0, Fraction("1.1"): 2, Fraction("2.2"): 5}
    for X, expected in spot.items():
        got = xi(3, X)
        rep.record(got == expected, f"xi(3, {X}) = {got}, expected {expected}")
    for d in (3, 15):
        for X in (Fraction(5), Fraction(25), Fraction("99.5")):
            fast = xi(d, X)
            slow = _brute_xi(d, X)
            rep.record(fast == slow, f"xi({d}, {X}): scan {fast} != recount {slow}")
            doubled = len(enumerate_surfaces(d, X, bound_factor=2))
            rep.record(
                fast == doubled,
                f"xi({d}, {X}): doubling the stop bound changed the census "
                f"({fast} -> {doubled})",
            )
    mono_prev = -1
    for X in (1, 2, 4, 8, 16, 32):
        now = xi(3, X)
        rep.record(now >= mono_prev, f"xi(3, X) decreased at X={X}")
        mono_prev = now
    for d, a, r, X in ((3, 1, 0, 3), (3, 1, 0, 1), (3, 3, 0, 10), (15, 15, 4, 300)):
        fast = count_F_in_progression(d, a, r, X)
        slow = _brute_count_F(d, a, r, Fraction(X))
        rep.record(
            fast == slow,
            f"count_F({d},{a},{r},{X}): vector {fast} != loop {slow}",
        )
    return rep


def suite_classgroups() -> SuiteReport:
    rep = SuiteReport("classgroups")
    for d, h in ((3, 1), (15, 2), (23, 3), (39, 4)):
        st = class_group(d)
        rep.record(st.order == h, f"h(-{d}) = {st.order}, expected {h}")
    rep.record(
        class_group(39).elementary_divisors == (4,),
        f"class group of -39 has invariants {class_group(39).elementary_divisors}",
    )
    for d in SWEEP_DS:
        rep.record(is_admissible(d).admissible, f"d={d} reported inadmissible")
    rep.record(not is_admissible(39).admissible, "d=39 reported admissible")
    return rep


def order_report(d: int, m: int, c: int) -> dict:
    """Deep JSON-ready dump of one order: basis, parameters, reduced
    discriminant, and per-prime local data from both routes."""
    idx = SurfaceIndex(d, m, c, 1)
    circle = pullback_circle(idx)
    order = build_order(circle)
    drd = reduced_discriminant(order)
    d0 = order.params.d0
    D = order.D
    locals_ = []
    for p, _ in factorize(drd).factors:
        entry = {
            "p": p,
            "symbol_closed": eichler_symbol_closed(d, D, d0, p),
            "symbol_bruteforce": eichler_symbol_bruteforce(order, p),
            "norm_index_closed": nrd_index(d, D, d0, p),
        }
        if p != 2:
            entry["norm_index_bruteforce"] = nrd_index_bruteforce(order, p)
        locals_.append(entry)
    return {
        "d": d,
        "m": m,
        "c": c,
        "circle": {"a": circle.a, "b": circle.b, "c0": circle.c0},
        "D": D,
        "d0": d0,
        "lattice": {
            "alpha1": order.params.alpha1,
            "alpha2": order.params.alpha2,
            "beta": order.params.beta,
        },
        "basis": [
            {"t": str(e.t), "x": str(e.x), "y": str(e.y), "z": str(e.z)}
            for e in order.basis
        ],
        "reduced_discriminant": drd,
        "local_data": locals_,
    }


_SCOPES = ("orders", "areas", "constants", "counts", "classgroups")


def run_scope(scope: str, fast: bool = False) -> list[SuiteReport]:
    """Reports for one scope or for 'all'; 'fast' shrinks the sweep range
    for smoke runs."""
    ds = SWEEP_DS
    limit = 60 if fast else SWEEP_D_LIMIT
    if scope == "all":
        orders, areas = sweep(ds, limit)
        return [
            orders,
            areas,
            suite_constants(ds, 10_000_000 if fast else None),
            suite_counts(),
            suite_classgroups(),
        ]
    if scope == "orders":
        return [sweep(ds, limit)[0]]
    if scope == "areas":
        return [sweep(ds, limit)[1]]
    if scope == "constants":
        return [suite_constants(ds, 10_000_000 if fast else None)]
    if scope == "counts":
        return [suite_counts()]
    if scope == "classgroups":
        return [suite_classgroups()]
    raise ValueError(f"unknown scope {scope!r}; expected all or one of {_SCOPES}")
