"""Order construction, local data (closed form and brute force), and the
matrix representations."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bianchisurf
from bianchisurf import quatorder
from bianchisurf.hermitian import HermitianCircle, SurfaceIndex, pullback_circle, surface_invariants
from bianchisurf.ntkernel import factorize, legendre
from bianchisurf.quatorder import (
    QuaternionAlgebra,
    QuaternionOrder,
    _lattice_coordinates,
    _line_residues,
    _local_value_sets,
    _quat_mul,
    _quadratic_forms,
    build_order,
    closure_defect,
    eichler_symbol_bruteforce,
    eichler_symbol_closed,
    lattice_params,
    nrd_index,
    nrd_index_bruteforce,
    reduced_discriminant,
)
from bianchisurf.verify import SWEEP_DS, pairs_under, surfaces_under
from oracle_rational import (
    Mat2,
    basis,
    circle_matrix,
    combination,
    coords,
    matrix_rep,
    norm_one_elements,
    nrd,
    rho_prime,
    trd,
)

ALG = QuaternionAlgebra(-3, 12)

SMALL_CIRCLES = [idx for d in SWEEP_DS for idx, _, _ in surfaces_under(d, 30)]


elem = partial(matrix_rep, ALG)


def test_quaternion_relations():
    i = elem(0, 1)
    j = elem(0, 0, 1)
    assert i @ i == elem(-3)
    assert j @ j == elem(12)
    assert i @ j == (j @ i).scale(-1)
    ij = i @ j
    assert ij == elem(0, 0, 0, 1)


def test_trd_nrd_delta():
    a = elem(2, 1, -1, 3)
    assert trd(a) == 4
    assert nrd(a) == 4 + 3 * 1 - 12 * 1 + (-3) * 12 * 9
    assert a @ a.adjugate() == elem(nrd(a))


@given(*[st.integers(-4, 4) for _ in range(8)])
def test_nrd_multiplicative(t1, x1, y1, z1, t2, x2, y2, z2):
    a = elem(t1, x1, y1, z1)
    b = elem(t2, x2, y2, z2)
    assert nrd(a @ b) == nrd(a) * nrd(b)


def test_build_order_reference():
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    p = order.params
    assert (p.alpha1, p.alpha2, p.beta) == (3, 1, 0)
    assert p.d0 == 3
    assert order.D == 12
    assert reduced_discriminant(order) == 4  # = dD/d0^2
    gram = order.gram
    assert all(gram[i][j] == gram[j][i] for i in range(4) for j in range(4))
    assert closure_defect(order) == []


def test_lattice_index():
    order = build_order(pullback_circle(SurfaceIndex(15, 2, -1, 3)))
    p = order.params
    assert p.alpha1 * p.alpha2 == p.a // p.d0


def test_build_order_rejects_bad_circles():
    with pytest.raises(ValueError):
        build_order(HermitianCircle(3, 1, 0, 1))  # negative determinant
    with pytest.raises(ValueError):
        build_order(HermitianCircle(3, 2, 1, 1))  # even leading coefficient
    with pytest.raises(ValueError):
        build_order(HermitianCircle(3, 3, 3, 3))  # common factor 3


def test_order_closure_small_sweep():
    for d in (3, 7):
        for idx, d0, D in surfaces_under(d, 60):
            order = build_order(pullback_circle(idx))
            assert closure_defect(order) == []
            assert reduced_discriminant(order) == d * D // (d0 * d0)


def fraction_gram(order):
    """trd(e_i conj(e_j)) from rational quaternion products."""
    return [[trd(ei @ ej.adjugate()) for ej in basis(order)] for ei in basis(order)]


def form_value(f, ks):
    """sum_{i<=j} f[i][j] k_i k_j for an upper-triangular form f."""
    return sum(f[i][j] * ks[i] * ks[j] for i in range(4) for j in range(i, 4))


def assert_forms_match_elements(order, ks):
    delta_form, norm_form = order.quadratic_forms
    e = combination(order, ks)
    assert form_value(norm_form, ks) == nrd(e)
    assert form_value(delta_form, ks) == trd(e) ** 2 - 4 * nrd(e)


@given(st.sampled_from(SMALL_CIRCLES), st.lists(st.integers(-50, 50), min_size=4, max_size=4))
def test_integer_order_data_matches_fraction_reference(idx, ks):
    order = build_order(pullback_circle(idx))
    assert order.gram == tuple(tuple(row) for row in fraction_gram(order))
    assert_forms_match_elements(order, ks)


def paper_basis(order):
    """1, alpha1(1+i)/2, beta(1+i)/2 + alpha2(bi+j)/a and
    (-bd - bi - j + ij)/(2 d0), built by quaternion arithmetic."""
    alg, p = order.algebra, order.params
    one, i, j = matrix_rep(alg, 1), matrix_rep(alg, 0, 1), matrix_rep(alg, 0, 0, 1)
    half_one_i = (one + i).scale(Fraction(1, 2))
    return (
        one,
        half_one_i.scale(p.alpha1),
        half_one_i.scale(p.beta) + (i.scale(p.b) + j).scale(Fraction(p.alpha2, p.a)),
        (one.scale(-p.b * order.d) + i.scale(-p.b) + j.scale(-1) + i @ j).scale(Fraction(1, 2 * p.d0)),
    )


def test_rows_are_the_paper_basis():
    for d in (3, 7, 15):
        for idx, _, _ in surfaces_under(d, 60):
            order = build_order(pullback_circle(idx))
            assert basis(order) == paper_basis(order), idx


def with_row_halved(order, i):
    """The lattice with e_i halved: N doubled, every other row doubled."""
    rows = tuple(row if k == i else tuple(2 * c for c in row) for k, row in enumerate(order.rows))
    return QuaternionOrder(order.algebra, 2 * order.N, rows, order.params)


def test_closure_defect_detects_unclosed_lattice():
    order = build_order(pullback_circle(SurfaceIndex(15, 2, -1, 1)))
    assert closure_defect(order) == []
    defect = closure_defect(with_row_halved(order, 0))
    assert (0, 0) in defect  # 1/2 * 1/2 = 1/4 is not in the lattice


def test_order_rows_must_be_lower_triangular():
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    rows = order.rows
    for bad_N, bad_rows in (
        (order.N, (rows[1], rows[0]) + rows[2:]),  # a nonzero entry above the diagonal
        (order.N, rows[:2] + ((1, 1, 0, 0),) + rows[3:]),  # a zero on the diagonal
        (0, rows),
    ):
        with pytest.raises(ValueError, match="lower-triangular"):
            QuaternionOrder(order.algebra, bad_N, bad_rows, order.params)


def fraction_solve(columns, target):
    """x with sum_k x_k columns[k] = target, by Gaussian elimination over Q."""
    m = [[Fraction(columns[k][r]) for k in range(4)] + [Fraction(target[r])] for r in range(4)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(4):
            if r != col and m[r][col]:
                ratio = m[r][col] / m[col][col]
                m[r] = [a - ratio * b for a, b in zip(m[r], m[col])]
    return [m[r][4] / m[r][r] for r in range(4)]


def reference_defect(order):
    """The pairs (i, j) whose product e_i e_j, taken by rational quaternion
    arithmetic, has a non-integer coordinate in the basis."""
    es = basis(order)
    return [
        (i, j)
        for i, u in enumerate(es)
        for j, v in enumerate(es)
        if any(c.denominator != 1 for c in fraction_solve([coords(e) for e in es], coords(u @ v)))
    ]


@st.composite
def lower_triangular_rows(draw):
    """Four integer rows, lower-triangular with a nonzero diagonal: an
    order's rows, or random ones."""
    if draw(st.booleans()):
        return build_order(pullback_circle(draw(st.sampled_from(SMALL_CIRCLES)))).rows
    entry = st.integers(-6, 6)
    return tuple(
        tuple(draw(entry.filter(bool)) if k == i else draw(entry) if k < i else 0 for k in range(4)) for i in range(4)
    )


@given(
    lower_triangular_rows(),
    st.lists(st.integers(-20, 20), min_size=4, max_size=4),
    st.integers(0, 3),
    st.integers(-3, 3),
    st.sampled_from([1, 2, 6]),
)
def test_lattice_coordinates_match_fraction_solve(rows, coeffs, m, shift, scale):
    """A lattice vector scale * sum c_k rows[k], with coordinate m moved by
    shift, solved by back-substitution and by Gaussian elimination over Q."""
    w = [scale * sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(4)]
    w[m] += shift
    x = fraction_solve([[scale * v for v in row] for row in rows], w)
    expected = tuple(int(v) for v in x) if all(v.denominator == 1 for v in x) else None
    assert _lattice_coordinates(rows, w, scale) == expected


@pytest.mark.parametrize("d, m, c", [(3, 1, -1), (7, 3, 1), (15, 2, -1), (23, 5, -3)])
def test_closure_defect_matches_fraction_reference(d, m, c):
    order = build_order(pullback_circle(SurfaceIndex(d, m, c, 1)))
    lattices = [order] + [with_row_halved(order, i) for i in range(4)]
    defects = [closure_defect(lattice) for lattice in lattices]
    assert defects == [reference_defect(lattice) for lattice in lattices]
    assert defects[0] == [] and (0, 0) in defects[1]  # halving e_0 always breaks closure


def naive_value_sets(order, p):
    """Symbol sets of (Delta, nrd) over the whole grid of coefficient
    vectors mod p (mod 8 for p = 2), from the rational reference forms."""
    gram = fraction_gram(order)
    tvec = [int(trd(e)) for e in basis(order)]
    mod = 8 if p == 2 else p
    ar = np.arange(mod, dtype=np.int64)
    ks = np.meshgrid(ar, ar, ar, ar, indexing="ij")
    T = sum(tvec[i] * ks[i] for i in range(4))
    Q = sum(int(gram[i][i] / 2) * ks[i] * ks[i] for i in range(4))
    Q = Q + sum(int(gram[i][j]) * ks[i] * ks[j] for i in range(4) for j in range(i + 1, 4))
    delta = (T * T - 4 * Q) % mod
    if p == 2:
        odd = delta[delta % 2 == 1]
        signs = {1 if v in (1, 7) else -1 for v in odd.tolist()}
        return frozenset(signs | ({0} if odd.size < delta.size else set())), frozenset()
    return tuple(
        frozenset(legendre(int(v), p) for v in np.unique(vals % p)) for vals in (delta, Q)
    )


def test_value_sets_match_full_grid():
    checked = set()
    for d in SWEEP_DS:
        for m, c, _, _ in pairs_under(d, 40):
            order = build_order(pullback_circle(SurfaceIndex(d, m, c, 1)))
            for p, _ in factorize(reduced_discriminant(order)).factors:
                if p <= 13:
                    assert _local_value_sets(_quadratic_forms(order), p) == naive_value_sets(order, p), (d, m, c, p)
                    checked.add(p)
    assert checked == {2, 3, 5, 7, 11, 13}


@lru_cache(maxsize=None)
def line_representatives(p):
    """Every representative (0,..,0,1,*,..,*) of a line of F_p^4, as rows
    of int8 (p < 128), so that the tables of every p drawn stay small."""
    blocks = []
    for lead in range(4):
        free = 3 - lead
        tails = np.indices((p,) * free, dtype=np.int8).reshape(free, p**free).T
        heads = np.zeros((p**free, lead + 1), dtype=np.int8)
        heads[:, lead] = 1
        blocks.append(np.hstack([heads, tails]))
    return np.vstack(blocks)


def naive_line_residues(f, p):
    """Which residues f takes mod p over all line representatives."""
    ks = line_representatives(p).astype(np.int64)
    vals = sum((f[i][j] % p) * ks[:, i] * ks[:, j] for i in range(4) for j in range(i, 4)) % p
    table = np.zeros(p, dtype=bool)
    table[vals] = True
    return table


ODD_PRIMES = tuple(p for p in range(3, 80) if all(p % q for q in range(2, p)))  # every odd prime <= 79
COEFF = st.integers(-10**6, 10**6)


@st.composite
def forms_with_last_coordinate(draw, case):
    """(f, p): an odd prime p <= 79 and an upper-triangular integer form f.

    Mod p, f starts as a sum of at most two terms lambda (u . k)^2, so that
    many value sets are partial.  Then only its last column is changed, so
    that f33 and L = (f03, f13, f23) mod p fall in the asked case:
    "square" f33 != 0; "line" f33 = 0 and L != 0; "flat" f33 = L = 0.
    Last, every coefficient is shifted by a random multiple of p."""
    p = draw(st.sampled_from(ODD_PRIMES))
    residue = st.integers(0, p - 1)
    f = [[0] * 4 for _ in range(4)]
    for _ in range(draw(st.integers(0, 2))):
        lam, u = draw(residue), [draw(residue) for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                f[i][j] += (1 if i == j else 2) * lam * u[i] * u[j]
    last = [f[i][3] % p for i in range(4)]
    if case == "square" and not last[3]:
        f[3][3] += draw(st.integers(1, p - 1))
    if case != "square":
        f[3][3] -= last[3]
    if case == "flat":
        for i in range(3):
            f[i][3] -= last[i]
    if case == "line" and not any(last[:3]):
        f[draw(st.integers(0, 2))][3] += draw(st.integers(1, p - 1))
    return tuple(tuple(v + p * draw(COEFF) if j >= i else 0 for j, v in enumerate(row)) for i, row in enumerate(f)), p


@pytest.mark.parametrize("case", ["square", "line", "flat"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_residues_match_every_line(case, data):
    f, p = data.draw(forms_with_last_coordinate(case))
    assert _line_residues(f, p).tolist() == naive_line_residues(f, p).tolist()


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_bruteforce_rejects_non_prime(p, monkeypatch):
    order = build_order(pullback_circle(SurfaceIndex(3, 0, -12, 1)))
    assert reduced_discriminant(order) == 36  # divisible by 4 and 9

    def no_value_sets(*args):
        raise AssertionError("value sets built for a non-prime p")

    monkeypatch.setattr(quatorder, "_local_value_sets", no_value_sets)
    for route in (eichler_symbol_bruteforce, nrd_index_bruteforce):
        with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
            route(order, p)


def test_bruteforce_refuses_a_prime_past_the_limit(monkeypatch):
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -11110, 1)))
    assert reduced_discriminant(order) == 33331  # prime

    def no_value_sets(*args):
        raise AssertionError("value sets built for a prime past the limit")

    monkeypatch.setattr(quatorder, "_local_value_sets", no_value_sets)
    for route in (eichler_symbol_bruteforce, nrd_index_bruteforce):
        with pytest.raises(ValueError, match="^p = 33331 is at or past the brute-force prime limit 1024$"):
            route(order, 33331)


def test_head_cache_stays_within_its_budget():
    forms = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1))).quadratic_forms
    odd_primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
    for p in odd_primes:
        _local_value_sets.__wrapped__(forms, p)
    held = sum(a.nbytes for entry in quatorder._head_cache.values() for a in entry)
    assert held <= 4 * 2**20  # the 4 MiB of the `_line_heads` docstring
    assert 199 in quatorder._head_cache  # the latest table fits, so it is kept
    assert sum(24 * (p * p + p + 1) for p in odd_primes) > 4 * 2**20  # so the loop evicted some


def test_census_and_brute_force_leave_numpy_ma_unimported():
    # a bare np.unique imports numpy.ma on its first call, about 10 ms
    # inside the first request of a process
    src = str(Path(bianchisurf.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from bianchisurf.census import enumerate_surfaces\n"
        "from bianchisurf.hermitian import SurfaceIndex, pullback_circle\n"
        "from bianchisurf.quatorder import build_order, eichler_symbol_bruteforce\n"
        "assert len(enumerate_surfaces(15, 30)) > 0\n"
        "order = build_order(pullback_circle(SurfaceIndex(15, 2, -1, 1)))\n"
        "assert eichler_symbol_bruteforce(order, 19) == 1\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def leibniz_det(m):
    """sum over permutations s of sign(s) prod_i m[i][s(i)]."""
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@given(st.lists(st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det4_matches_leibniz(m):
    assert quatorder._det4(m) == leibniz_det(m)


def brute_local_data(order):
    """A dual-route pass over one order: its reduced discriminant, then the
    brute-force symbol and norm index at every prime of it, re-reading the
    reduced discriminant after each prime."""
    drd = reduced_discriminant(order)
    out = [drd]
    for p, _ in factorize(drd).factors:
        out.append((p, eichler_symbol_bruteforce(order, p)))
        if p != 2:
            out.append((p, nrd_index_bruteforce(order, p)))
        out.append(reduced_discriminant(order))
    return out


def test_order_data_built_once_per_order(monkeypatch):
    calls = {"_det4": 0, "_quadratic_forms": 0}

    def spy(name):
        real = getattr(quatorder, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(quatorder, name, spy(name))
    idx = SurfaceIndex(15, 0, -14, 1)  # reduced discriminant 210 = 2 3 5 7
    order = build_order(pullback_circle(idx))
    seen = brute_local_data(order)
    assert calls == {"_det4": 1, "_quadratic_forms": 1}
    monkeypatch.undo()
    fresh = build_order(pullback_circle(idx))
    assert seen[0] == 210
    assert seen == brute_local_data(fresh)
    assert order.quadratic_forms == quatorder._quadratic_forms(fresh)


def test_order_coordinates_roundtrip():
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    target = combination(order, (-1, 1, 0, 2))
    scaled = [order.N * c for c in coords(target)]
    assert all(c.denominator == 1 for c in scaled)
    assert _lattice_coordinates(order.rows, [int(c) for c in scaled], 1) == (-1, 1, 0, 2)
    assert _lattice_coordinates(order.rows, order.rows[2], 2) is None  # e_2 / 2


def test_eichler_symbol_closed_values():
    assert eichler_symbol_closed(3, 12, 3, 2) == -1
    assert eichler_symbol_closed(3, 1, 1, 3) == 1
    assert eichler_symbol_closed(15, 60, 3, 5) == 0


def test_nrd_index_closed_values():
    assert nrd_index(3, 12, 3, 2) == 1
    assert nrd_index(3, 1, 1, 3) == 1
    assert nrd_index(15, 60, 3, 5) == 2


def test_local_data_error_paths():
    with pytest.raises(ValueError):
        eichler_symbol_closed(3, 12, 3, 5)  # 5 does not divide 4
    with pytest.raises(ValueError):
        eichler_symbol_closed(3, 12, 3, 4)  # not prime
    with pytest.raises(ValueError):
        nrd_index(3, 12, 3, 7)
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    with pytest.raises(ValueError):
        eichler_symbol_bruteforce(order, 5)
    with pytest.raises(ValueError):
        nrd_index_bruteforce(order, 2)  # odd p only


def test_bruteforce_agrees_with_closed_form_spot():
    for d, m, c in ((3, 1, -1), (3, 0, -1), (7, 3, 1), (15, 2, -1)):
        idx = SurfaceIndex(d, m, c, 1)
        order = build_order(pullback_circle(idx))
        drd = reduced_discriminant(order)
        d0 = order.params.d0
        for p, _ in factorize(drd).factors:
            assert eichler_symbol_bruteforce(order, p) == eichler_symbol_closed(
                d, order.D, d0, p
            )
            if p != 2:
                assert nrd_index_bruteforce(order, p) == nrd_index(d, order.D, d0, p)


def test_integral_form_matches_elements():
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    assert_forms_match_elements(order, (2, -1, 3, 1))


SMALL_COORDS = st.tuples(*[st.integers(-6, 6)] * 4)


@given(st.sampled_from(SMALL_CIRCLES), SMALL_COORDS, SMALL_COORDS)
def test_matrix_rep_shape_and_homomorphism(idx, u, v):
    """rho-images have the shape [[X, D Y], [conj(Y), conj(X)]], and the
    integer product `_quat_mul` that closure_defect runs is rho(u) rho(v)
    read back: the matrix product is its independent reference."""
    alg = QuaternionAlgebra(-idx.d, surface_invariants(idx)[1])
    ma = matrix_rep(alg, *u)
    e00, e01, e10, e11 = ma.entries()
    assert e11 == e00.conjugate()
    assert e10 == e01.conjugate().scale(Fraction(1, alg.D))
    assert _quat_mul(alg.a_alg, alg.b_alg, u, v) == coords(ma @ matrix_rep(alg, *v))
    assert ma.det().im == 0


def test_rho_prime_identity_and_multiplicativity():
    order = build_order(pullback_circle(SurfaceIndex(3, 1, -1, 1)))
    one, e1, e2, _ = basis(order)
    assert rho_prime(order, one) == Mat2.identity(3)
    assert rho_prime(order, e1 @ e2) == rho_prime(order, e1) @ rho_prime(order, e2)
    assert rho_prime(order, e1 + e2) == rho_prime(order, e1) + rho_prime(order, e2)


def test_rho_prime_sends_order_into_field_integers():
    for d in (3, 7, 15):
        for idx, d0, D in surfaces_under(d, 60):
            order = build_order(pullback_circle(idx))
            for e in basis(order):
                img = rho_prime(order, e)
                assert all(x.is_field_integer() for x in img.entries())


def test_norm_one_units_stabilize_circle():
    idx = SurfaceIndex(3, 1, -1, 1)
    circle = pullback_circle(idx)
    order = build_order(circle)
    wits = norm_one_elements(order, bound=6, limit=4)
    assert wits, "no norm-one witnesses in range, so the stabilizer check would test nothing"
    H = circle_matrix(circle)
    for w in wits:
        assert nrd(w) == 1
        m = rho_prime(order, w)
        assert m.conj_transpose() @ H @ m == H
        assert m.det().re == 1 and m.det().im == 0
