"""Quaternion orders attached to circle stabilizers.

From a reduced circle (a, b, c0) over Q(sqrt(-d)) we build the rank-4 order
in the algebra (-d, D/Q) whose unit group realizes the stabilizer, then
extract its local data two independent ways: closed-form symbol/index
formulas, and brute-force enumerations of the discriminant form modulo p.
The two routes deliberately share nothing beyond the order itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt

import numpy as np

from .hermitian import HermitianCircle
from .ntkernel import character, is_prime, legendre


@dataclass(frozen=True)
class QuaternionAlgebra:
    """The rational quaternion algebra with i^2 = a_alg, j^2 = b_alg,
    ij = -ji; here always (a_alg, b_alg) = (-d, D) with D > 0."""

    a_alg: int
    b_alg: int

    @property
    def d(self) -> int:
        return -self.a_alg

    @property
    def D(self) -> int:
        return self.b_alg


def _quat_mul(al: int, be: int, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Integer coordinates of (t1 + x1 i + y1 j + z1 ij)(t2 + ...) for
    i^2 = al, j^2 = be."""
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        t1 * t2 + al * x1 * x2 + be * y1 * y2 - al * be * z1 * z2,
        t1 * x2 + x1 * t2 - be * (y1 * z2 - z1 * y2),
        t1 * y2 + y1 * t2 + al * (x1 * z2 - z1 * x2),
        t1 * z2 + z1 * t2 + (x1 * y2 - y1 * x2),
    )


@dataclass(frozen=True)
class OrderParams:
    alpha1: int
    alpha2: int
    beta: int
    d0: int
    b: int
    a: int
    c0: int


@dataclass(frozen=True)
class QuaternionOrder:
    """A rank-4 lattice of the algebra given by its basis scaled to integers:
    rows[i] holds the coordinates (t, x, y, z) of N e_i in the basis
    1, i, j, ij.  The rows are lower-triangular (rows[i][k] = 0 for k > i)
    with a nonzero diagonal, which closure_defect's back-substitution reads;
    every other datum of the order is derived from (N, rows)."""

    algebra: QuaternionAlgebra
    N: int
    rows: tuple[tuple[int, int, int, int], ...]
    params: OrderParams

    def __post_init__(self) -> None:
        triangular = not any(row[k] for i, row in enumerate(self.rows) for k in range(i + 1, 4))
        if self.N < 1 or not triangular or not all(row[i] for i, row in enumerate(self.rows)):
            raise ValueError("rows must be lower-triangular with a nonzero diagonal, and N positive")

    @property
    def d(self) -> int:
        return self.algebra.d

    @property
    def D(self) -> int:
        return self.algebra.D

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The integer trace form trd(e_i conj(e_j)), computed once from
        the rows: 2(tt' - a xx' - b yy' + ab zz') divided by N^2.  The rows
        are lower-triangular, so the pairing of rows i <= j runs over the
        first i + 1 coordinates; each of the ten pairings i <= j is taken
        once and mirrored."""
        al, be = self.algebra.a_alg, self.algebra.b_alg
        (t0, _, _, _), (t1, x1, _, _), (t2, x2, y2, _), (t3, x3, y3, z3) = self.rows
        NN = self.N * self.N
        g00, g01, g02, g03, g11, g12, g13, g22, g23, g33 = (
            _exact_div(2 * v, NN, "trace pairing")
            for v in (
                t0 * t0,
                t0 * t1,
                t0 * t2,
                t0 * t3,
                t1 * t1 - al * x1 * x1,
                t1 * t2 - al * x1 * x2,
                t1 * t3 - al * x1 * x3,
                t2 * t2 - al * x2 * x2 - be * y2 * y2,
                t2 * t3 - al * x2 * x3 - be * y2 * y3,
                t3 * t3 - al * x3 * x3 - be * y3 * y3 + al * be * z3 * z3,
            )
        )
        return (g00, g01, g02, g03), (g01, g11, g12, g13), (g02, g12, g22, g23), (g03, g13, g23, g33)

    @cached_property
    def reduced_discriminant(self) -> int:
        """Square root of |det gram|, computed once per order; read it
        through the module function `reduced_discriminant(order)`."""
        det = _det4(self.gram)
        adet = abs(det)
        root = isqrt(adet)
        if root * root != adet:
            raise ValueError(f"internal consistency: trace-form determinant {det} is not a square")
        return root

    @cached_property
    def quadratic_forms(self) -> tuple[_Form, _Form]:
        """The (Delta, nrd) forms of `_quadratic_forms`, built once per order."""
        return _quadratic_forms(self)


def lattice_params(a: int, b: int, c0: int, d: int, d0: int) -> tuple[int, int, int]:
    """Upper-triangular basis [[alpha1, beta], [0, alpha2]] of the lattice
    {(m, l): a | b*d*m + c0*l}, with 0 <= beta < alpha1.

    alpha1*alpha2 = a/d0 is the lattice index in Z^2.
    """
    g1 = gcd(a, b * d)
    alpha1 = a // g1
    alpha2 = g1 // d0
    rhs = -c0 * alpha2
    if rhs % g1:
        raise ValueError("lattice congruence unsolvable; gcd preconditions broken")
    if alpha1 == 1:
        beta = 0
    else:
        beta = (pow((b * d) // g1, -1, alpha1) * (rhs // g1)) % alpha1
    if (b * d * beta + c0 * alpha2) % a:
        raise ValueError(f"internal consistency: lattice vector ({beta}, {alpha2}) fails b d m + c0 l = 0 mod {a}")
    return alpha1, alpha2, beta


def build_order(circle: HermitianCircle) -> QuaternionOrder:
    """The order Z[1, alpha1(1+i)/2, beta(1+i)/2 + alpha2(bi+j)/a,
    (-bd - bi - j + ij)/(2 d0)] inside (-d, D/Q), written as integer rows
    scaled by N = 2 a d0."""
    d, a, b, c0 = circle.d, circle.a, circle.b, circle.c0
    D = b * b * d - a * c0
    if D <= 0:
        raise ValueError(f"definite algebra: b^2 d - a c0 = {D} <= 0")
    if a % 2 == 0:
        raise ValueError(f"parity violated: leading coefficient {a} is even")
    if gcd(gcd(a, b), c0) != 1:
        raise ValueError("circle coefficients are not coprime")
    d0 = gcd(gcd(a, d), c0)
    alpha1, alpha2, beta = lattice_params(a, b, c0, d, d0)
    rows = (
        (2 * a * d0, 0, 0, 0),
        (alpha1 * a * d0, alpha1 * a * d0, 0, 0),
        (beta * a * d0, beta * a * d0 + 2 * alpha2 * b * d0, 2 * alpha2 * d0, 0),
        (-a * b * d, -a * b, -a, a),
    )
    params = OrderParams(alpha1, alpha2, beta, d0, b, a, c0)
    return QuaternionOrder(QuaternionAlgebra(-d, D), 2 * a * d0, rows, params)


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"internal consistency: {what} = {num}/{den} is not an integer")
    return q


def _det4(m) -> int:
    """Determinant of a 4x4 integer matrix by Laplace expansion along its
    first two rows: each 2x2 minor of rows 0-1 times the complementary
    minor of rows 2-3, with the sign of the column split."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    return (
        (a00 * a11 - a01 * a10) * (a22 * a33 - a23 * a32)
        - (a00 * a12 - a02 * a10) * (a21 * a33 - a23 * a31)
        + (a00 * a13 - a03 * a10) * (a21 * a32 - a22 * a31)
        + (a01 * a12 - a02 * a11) * (a20 * a33 - a23 * a30)
        - (a01 * a13 - a03 * a11) * (a20 * a32 - a22 * a30)
        + (a02 * a13 - a03 * a12) * (a20 * a31 - a21 * a30)
    )


def reduced_discriminant(order: QuaternionOrder) -> int:
    """Square root of |det trd(e_i conj(e_j))|; errors if not a square.
    The determinant is taken once per order (QuaternionOrder.reduced_discriminant)."""
    return order.reduced_discriminant


def _lattice_coordinates(rows, w, scale: int) -> tuple[int, ...] | None:
    """The integers c with scale * sum_k c_k rows[k] = w, by back-substitution
    on the lower-triangular rows from the last coordinate down; None as soon
    as one is not an integer, i.e. when w / scale is not in the lattice the
    rows span."""
    (t0, _, _, _), (t1, x1, _, _), (t2, x2, y2, _), (t3, x3, y3, z3) = rows
    c3, r = divmod(w[3], scale * z3)
    if r:
        return None
    c2, r = divmod(w[2] - scale * c3 * y3, scale * y2)
    if r:
        return None
    c1, r = divmod(w[1] - scale * (c2 * x2 + c3 * x3), scale * x1)
    if r:
        return None
    c0, r = divmod(w[0] - scale * (c1 * t1 + c2 * t2 + c3 * t3), scale * t0)
    if r:
        return None
    return c0, c1, c2, c3


def closure_defect(order: QuaternionOrder) -> list[tuple[int, int]]:
    """Pairs (i, j) whose basis product fails to have integer coordinates;
    empty for a genuine order.  N e_i times N e_j is N^2 e_i e_j, so e_i e_j
    lies in the lattice iff that product is N times an integer combination
    of the rows."""
    N, rows = order.N, order.rows
    al, be = order.algebra.a_alg, order.algebra.b_alg
    return [
        (i, j)
        for i, u in enumerate(rows)
        for j, v in enumerate(rows)
        if _lattice_coordinates(rows, _quat_mul(al, be, u, v), N) is None
    ]


# --- closed-form local data ---------------------------------------------


def _check_local_prime(d: int, D: int, d0: int, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    drd = d * D // (d0 * d0)
    if drd % p:
        raise ValueError(f"p = {p} does not divide the reduced discriminant {drd}")


def eichler_symbol_closed(d: int, D: int, d0: int, p: int) -> int:
    """Local symbol from the two residue formulas: chi(p) + legendre(D,p) for
    odd p, where chi(p) = legendre(-d,p), 0 on p | d; chi(2) at p = 2."""
    _check_local_prime(d, D, d0, p)
    chi = character(d)
    if p == 2:
        return chi(2)
    val = chi(p) + legendre(D, p)
    if val not in (-1, 0, 1):
        raise ValueError(f"symbol sum {val} out of range; p cannot divide dD/d0^2")
    return val


def nrd_index(d: int, D: int, d0: int, p: int) -> int:
    """Index of local reduced norms among units: 2 iff p is odd and divides
    gcd(d/d0, D/d0), else 1."""
    _check_local_prime(d, D, d0, p)
    if p == 2:
        return 1
    return 2 if gcd(d // d0, D // d0) % p == 0 else 1


# --- brute-force local data ---------------------------------------------


_Form = tuple[tuple[int, ...], ...]


def _quadratic_forms(order: QuaternionOrder) -> tuple[_Form, _Form]:
    """Upper-triangular integer coefficients f[i][j] (i <= j) of the forms
    Delta = T^2 - 4Q and Q in the basis coordinates k, as nested tuples so
    that they can key the value-set cache.  T(k) = sum k_i trd(e_i) with
    trd(e_i) = 2 rows[i][0] / N, and the norm form
    Q(k) = sum nrd(e_i) k_i^2 + sum_{i<j} trd(e_i conj(e_j)) k_i k_j
    reads nrd(e_i) = gram[i][i] / 2 and the pairings off gram."""
    gram = order.gram
    tvec = [_exact_div(2 * row[0], order.N, "basis trace") for row in order.rows]
    norm = tuple(
        tuple(_exact_div(gram[i][i], 2, "basis norm") if i == j else gram[i][j] if j > i else 0 for j in range(4))
        for i in range(4)
    )
    delta = tuple(
        tuple((1 if i == j else 2) * tvec[i] * tvec[j] - 4 * norm[i][j] if j >= i else 0 for j in range(4))
        for i in range(4)
    )
    return delta, norm


def _form_values(f: list[list[int]], ks, mod: int = 0):
    """sum_{i<=j} f[i][j] k_i k_j on broadcast coordinate arrays, reduced
    mod `mod` (coefficients first, so the values stay small) when mod > 0."""
    val = np.int64(0)
    for i in range(4):
        for j in range(i, 4):
            c = f[i][j] % mod if mod else f[i][j]
            if c:
                val = val + c * ks[i] * ks[j]
    return val % mod if mod else val


# The brute-force route refuses p at or past this limit, before any array
# is built, to keep one call within a memory budget of 96 MiB: a call holds
# at most about eleven float64 arrays of p^2 + p + 1 entries at once, 92 MB
# at p = 1021 (about 75 MB more peak RSS, measured).  Below the limit every
# value `_line_residues` takes in float64 is an integer of absolute value
# below 36 p^4 < 2^46, so exact.
_MAX_BRUTE_PRIME = 2**10

# `_line_heads` keeps its tables, oldest use evicted first, up to this many
# bytes in all.
_HEAD_CACHE_BYTES = 2**22
_head_cache: OrderedDict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
_head_lock = threading.Lock()


def _line_heads(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For an odd prime p: the heads (1,a,b), (0,1,b) and (0,0,1) over F_p
    of the lines of F_p^4 other than (0,0,0,1), as the p^2 + p + 1 columns
    of one float64 array of 3 rows; the distinct squares mod p (0 included);
    and the mask of those squares over F_p.  All three are read-only.

    Cached per p, least recently used evicted first, up to
    `_HEAD_CACHE_BYTES` = 4 MiB in all; an entry takes 24 (p^2 + p + 1)
    bytes and a little more, so the tables of every odd p <= 79 fit at once,
    and a table larger than the whole budget is built for its call only."""
    with _head_lock:
        entry = _head_cache.get(p)
        if entry is not None:
            _head_cache.move_to_end(p)
            return entry
    ar = np.arange(p, dtype=np.float64)
    heads = np.zeros((3, p * p + p + 1))
    heads[0, : p * p] = 1
    heads[1, : p * p] = np.repeat(ar, p)
    heads[2, : p * p] = np.tile(ar, p)
    heads[1, p * p : -1] = 1
    heads[2, p * p : -1] = ar
    heads[2, -1] = 1
    # by scatter, not np.unique, whose bare form imports numpy.ma on first use
    is_square = np.zeros(p, dtype=bool)
    is_square[np.arange(p, dtype=np.int64) ** 2 % p] = True
    squares = np.flatnonzero(is_square)
    entry = (heads, squares, is_square)
    for a in entry:
        a.flags.writeable = False
    size = sum(a.nbytes for a in entry)
    if size <= _HEAD_CACHE_BYTES:
        with _head_lock:
            _head_cache[p] = entry
            while sum(a.nbytes for e in _head_cache.values() for a in e) > _HEAD_CACHE_BYTES:
                _head_cache.popitem(last=False)
    return entry


def _line_residues(f: _Form, p: int) -> np.ndarray:
    """Boolean table over F_p of the values of f mod p (p odd) at one
    representative of every line of F_p^4: (1,a,b,c), (0,1,b,c), (0,0,1,c),
    (0,0,0,1).

    A head h = (1,a,b), (0,1,b) or (0,0,1) of `_line_heads` is followed by
    a free last coordinate c, and f(h, c) = P(h) + c L(h) + f33 c^2 with P,
    L and f33 reduced mod p.  P and L are taken at every head at once, by one
    product of f's coefficients mod p with the head table (exact in float64,
    see `_MAX_BRUTE_PRIME`), and reduced mod p once.  Over c in F_p the
    lines through h take:
      - K(h) + f33 Sq when f33 != 0, where K = P - L^2 (4 f33)^-1 and Sq is
        the set of squares mod p, 0 included: f33 c^2 + L c equals
        f33 (c + L/(2 f33))^2 - L^2/(4 f33), and c -> c + L/(2 f33)
        permutes F_p;
      - every residue when f33 = 0 and L(h) != 0;
      - P(h) alone when f33 = L(h) = 0.
    So the values are the sumset of the at most p distinct values of K with
    f33 Sq, (p + 1)/2 entries, or all of F_p, or the values of P: O(p^2)
    work in place of the O(p^3) of running every c."""
    heads, squares, _ = _line_heads(p)
    coeffs = np.array(
        [[f[i][j] % p if j >= i else 0 for j in range(3)] for i in range(3)] + [[f[i][3] % p for i in range(3)]],
        dtype=np.float64,
    )
    products = coeffs @ heads
    P, L = np.einsum("in,in->n", products[:3], heads), products[3]
    f33 = f[3][3] % p
    hit = np.zeros(p, dtype=bool)
    hit[f33] = True  # (0, 0, 0, 1)
    if f33:
        # one reduction mod p: 4 f33 K = 4 f33 P - L^2
        seen = np.zeros(p, dtype=bool)
        seen[(4 * f33 * P - L * L).astype(np.int64) % p] = True
        K = np.flatnonzero(seen) * pow(4 * f33, -1, p)
        hit[(K[:, None] + f33 * squares) % p] = True
    elif (L.astype(np.int64) % p).any():
        hit[:] = True
    else:
        hit[P.astype(np.int64) % p] = True
    return hit


def _symbol_set(hit: np.ndarray, is_square: np.ndarray) -> frozenset:
    """The Legendre symbols of the residues marked in hit: 0 (the zero
    element is always there), 1 if a nonzero square is marked, -1 if a
    non-square is."""
    units, squares = hit[1:], is_square[1:]
    seen = {0}
    if (units & squares).any():
        seen.add(1)
    if (units & ~squares).any():
        seen.add(-1)
    return frozenset(seen)


@lru_cache(maxsize=4096)
def _local_value_sets(forms: tuple[_Form, _Form], p: int) -> tuple[frozenset, frozenset]:
    """Symbol value sets of (Delta, nrd) over an order reduced mod p, from
    its forms (_quadratic_forms); rebuilt orders share one cache entry.

    Odd p: one representative per line of F_p^4 suffices, since both forms
    are quadratic and scaling by lambda^2 preserves the symbol; the zero
    element contributes 0 to each set.  p = 2: full grid of coefficients
    mod 8 with the Kronecker-at-2 symbol; the nrd set is not collected
    there (unused).
    """
    delta_form, norm_form = forms
    if p == 2:
        ar = np.arange(8, dtype=np.int64)
        delta = np.asarray(_form_values(delta_form, np.meshgrid(ar, ar, ar, ar, indexing="ij", sparse=True), 8))
        odd = delta[delta % 2 == 1]
        d_seen: set[int] = set()
        if odd.size < delta.size:
            d_seen.add(0)
        if np.any((odd == 1) | (odd == 7)):
            d_seen.add(1)
        if np.any((odd == 3) | (odd == 5)):
            d_seen.add(-1)
        return frozenset(d_seen), frozenset()
    is_square = _line_heads(p)[2]
    return _symbol_set(_line_residues(delta_form, p), is_square), _symbol_set(_line_residues(norm_form, p), is_square)


def _check_order_prime(order: QuaternionOrder, p: int) -> None:
    """The brute-force route's guard, read from the order alone: p is prime,
    below `_MAX_BRUTE_PRIME` = 1024, and divides its reduced discriminant."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p >= _MAX_BRUTE_PRIME:
        raise ValueError(f"p = {p} is at or past the brute-force prime limit {_MAX_BRUTE_PRIME}")
    drd = reduced_discriminant(order)
    if drd % p:
        raise ValueError(f"p = {p} does not divide the reduced discriminant {drd}")


def eichler_symbol_bruteforce(order: QuaternionOrder, p: int) -> int:
    """Symbol from the value set of (Delta(alpha)/p) over the local order:
    {0} -> 0, {0, e} -> e; a full value set means the order is not
    residually determined at p and is reported as an error."""
    _check_order_prime(order, p)
    seen = set(_local_value_sets(order.quadratic_forms, p)[0])
    if seen == {0}:
        return 0
    if seen == {0, 1}:
        return 1
    if seen == {0, -1}:
        return -1
    raise ValueError(f"not residually determined at p = {p}: value set {sorted(seen)}")


def nrd_index_bruteforce(order: QuaternionOrder, p: int) -> int:
    """Index of the nonzero local norm residues among units mod an odd p:
    squares only -> 2, all units -> 1."""
    if p == 2:
        raise ValueError("norm-index brute force is defined for odd p only")
    _check_order_prime(order, p)
    nonzero = set(_local_value_sets(order.quadratic_forms, p)[1]) - {0}
    if nonzero == {1}:
        return 2
    if nonzero == {1, -1}:
        return 1
    raise ValueError(f"unexpected norm residue classes at p = {p}: {sorted(nonzero | {0})}")
