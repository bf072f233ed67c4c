"""Class groups of imaginary quadratic fields via binary quadratic forms.

Forms (a, b, c) of discriminant -d are primitive, positive definite, with
b^2 - 4ac = -d.  Reduction, Dirichlet composition, and the elementary-divisor
decomposition of the class group live here.  The admissibility gate for the
rest of the package (square-free d = 3 mod 4, plus the special case d = 4)
also lives here because its output is phrased in terms of the class number.
Every class group is computed on request; nothing is stored on disk.  The
4-rank alone, which decides admissibility, is read off the primes of d by
Redei's matrix (four_rank), with no form at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .ntkernel import factorize, is_squarefree, legendre


@dataclass(frozen=True, order=True)
class QuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        return abs(self.b) <= self.a <= self.c and not (
            (abs(self.b) == self.a or self.a == self.c) and self.b < 0
        )

    def normalized(self) -> "QuadraticForm":
        # shift b into (-a, a]
        a, b, c = self.a, self.b, self.c
        r = (a - b) // (2 * a)
        return QuadraticForm(a, b + 2 * r * a, a * r * r + b * r + c)

    def reduced(self) -> "QuadraticForm":
        f = self.normalized()
        a, b, c = f.a, f.b, f.c
        while a > c or (a == c and b < 0):
            s = (c + b) // (2 * c)
            a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        return QuadraticForm(a, b, c).normalized()

    def inverse(self) -> "QuadraticForm":
        return QuadraticForm(self.a, -self.b, self.c).reduced()


def principal_form(d: int) -> QuadraticForm:
    # discriminant -d with d = 3 mod 4: x^2 + xy + ((d+1)/4) y^2
    if d % 4 != 3:
        raise ValueError(f"principal form needs d = 3 mod 4, got {d}")
    return QuadraticForm(1, 1, (d + 1) // 4)


def reduced_forms(d: int) -> list[QuadraticForm]:
    """All reduced primitive forms of discriminant -d, sorted by (a, b, c)."""
    if d % 4 != 3:
        raise ValueError(f"reduced_forms needs d = 3 mod 4, got {d}")
    out = []
    for a in range(1, isqrt(d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b + d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            f = QuadraticForm(a, b, c)
            if f.is_reduced() and f.is_primitive():
                out.append(f)
    return sorted(out)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: QuadraticForm, f2: QuadraticForm) -> QuadraticForm:
    """Dirichlet composition of primitive forms of the same discriminant.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.4.7.
    """
    if f1.discriminant != f2.discriminant:
        raise ValueError("forms must share a discriminant")
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, a2, b2, c2 = f1.a, f2.a, f2.b, f2.c
    # b1 and b2 share the parity of the discriminant, so s is an integer
    s = (f1.b + b2) // 2
    n = b2 - s
    d, y1, _ = _ext_gcd(a2, a1)
    d1, x2, v = _ext_gcd(s, d)
    y2 = -v
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return QuadraticForm(
        v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1
    ).reduced()


def form_power(f: QuadraticForm, k: int, identity: QuadraticForm) -> QuadraticForm:
    out = identity
    base = f
    while k:
        if k & 1:
            out = compose(out, base)
        base = compose(base, base)
        k >>= 1
    return out


@dataclass(frozen=True)
class ClassGroupStructure:
    d: int
    order: int
    elementary_divisors: tuple[int, ...]


def _p_part_divisors(forms: list[QuadraticForm], identity: QuadraticForm,
                     p: int, pk: int) -> list[int]:
    """Cyclic factors of the p-Sylow subgroup, given its order p^k.

    Counts solutions of x^(p^j) = identity for each j, raising every form
    to the p-th power once per level; the increments of log_p(count) form
    the conjugate partition of the factor exponents.
    """
    counts = [1]
    powers = forms  # powers[i] = forms[i]^(p^j) at level j
    while counts[-1] < pk:
        powers = [form_power(f, p, identity) for f in powers]
        counts.append(powers.count(identity))
    # layer widths: number of cyclic factors of order >= p^j
    widths = []
    for j in range(1, len(counts)):
        ratio = counts[j] // counts[j - 1]
        w = 0
        while ratio > 1:
            ratio //= p
            w += 1
        widths.append(w)
    exps = [sum(1 for w in widths if w >= i + 1) for i in range(max(widths))]
    return [p**e for e in exps]  # largest first


def class_group(d: int) -> ClassGroupStructure:
    """Structure of the form class group of discriminant -d (d = 3 mod 4).

    Elementary divisors are returned in increasing order, each dividing the
    next, each > 1, with product equal to the class number.
    """
    forms = reduced_forms(d)
    h = len(forms)
    ident = principal_form(d).reduced()
    if h == 1:
        result = ClassGroupStructure(d, 1, ())
    else:
        per_p: list[list[int]] = []
        for p, e in factorize(h).factors:
            per_p.append(_p_part_divisors(forms, ident, p, p**e))
        depth = max(len(v) for v in per_p)
        divisors = []
        for i in range(depth):
            val = 1
            for v in per_p:
                if i < len(v):
                    val *= v[i]
            divisors.append(val)  # built largest first
        divisors.reverse()
        result = ClassGroupStructure(d, h, tuple(divisors))
    if prod(result.elementary_divisors) != h:
        raise ValueError(
            f"internal consistency: elementary divisors {result.elementary_divisors} do not multiply to h(-{d}) = {h}"
        )
    return result


@dataclass(frozen=True)
class AdmissibilityResult:
    d: int
    admissible: bool
    reason: str | None
    class_number: int | None
    invariants: tuple[int, ...] | None = None


def is_admissible(d: int) -> AdmissibilityResult:
    """Gate on the field parameter d.

    Admissible: d square-free, d = 3 mod 4, and no elementary divisor of the
    class group divisible by 4.  d = 4 is allowed for the counting-constant
    chain only and bypasses the class-group computation.
    """
    if d == 4:
        return AdmissibilityResult(4, True, "d4-constant-only", None)
    if d < 1:
        return AdmissibilityResult(d, False, "not positive", None)
    if not is_squarefree(d):
        return AdmissibilityResult(d, False, "not square-free", None)
    if d % 4 != 3:
        return AdmissibilityResult(d, False, "not 3 mod 4", None)
    structure = class_group(d)
    for v in structure.elementary_divisors:
        if v % 4 == 0:
            return AdmissibilityResult(
                d,
                False,
                f"invariant {v} divisible by 4",
                structure.order,
                structure.elementary_divisors,
            )
    return AdmissibilityResult(
        d, True, None, structure.order, structure.elementary_divisors
    )


def four_rank(d: int) -> int:
    """The 4-rank of the class group of discriminant -d, square-free d = 3
    mod 4: the number of its elementary divisors divisible by 4.

    Redei (J. reine angew. Math. 171, 1934): with p_1 < ... < p_t the primes
    of d and p* = +-p = 1 mod 4 their prime discriminants, the Redei matrix
    over F_2 has R_ij = 1 for i != j exactly when (p_j* / p_i) = -1, and each
    diagonal entry makes its row sum to 0.  The 4-rank is t - 1 - rank R.
    Each row is a bitmask; the rank comes from elimination on the masks.
    Reads factorize(d) and Legendre symbols only, never a form."""
    if d < 1 or d % 4 != 3 or not is_squarefree(d):
        raise ValueError(f"four_rank needs square-free d = 3 mod 4, got {d}")
    primes = [p for p, _ in factorize(d).factors]
    basis: list[int] = []  # reduced rows, each without the top bit of any before it
    for i, p in enumerate(primes):
        row = 0
        for j, q in enumerate(primes):
            if j != i and legendre(q if q % 4 == 1 else -q, p) == -1:
                row ^= 1 << j | 1 << i  # the entry, and the diagonal that keeps the row sum 0
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(primes) - 1 - len(basis)
