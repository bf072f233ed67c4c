import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchisurf.classgroup import (
    QuadraticForm,
    class_group,
    compose,
    form_power,
    four_rank,
    is_admissible,
    principal_form,
    reduced_forms,
)
from bianchisurf.ntkernel import character, factorize, is_squarefree


def test_principal_form():
    assert principal_form(3) == QuadraticForm(1, 1, 1)
    assert principal_form(23) == QuadraticForm(1, 1, 6)
    assert principal_form(3).discriminant == -3


def test_reduced_forms_small():
    assert reduced_forms(3) == [QuadraticForm(1, 1, 1)]
    assert reduced_forms(23) == [
        QuadraticForm(1, 1, 6),
        QuadraticForm(2, -1, 3),
        QuadraticForm(2, 1, 3),
    ]
    assert len(reduced_forms(39)) == 4


def test_reduced_forms_are_reduced_primitive():
    for d in (3, 7, 11, 15, 19, 23, 39, 47, 71):
        for f in reduced_forms(d):
            assert f.is_reduced() and f.is_primitive()
            assert f.discriminant == -d


def test_reduce_is_idempotent_and_class_preserving():
    f = QuadraticForm(13, 11, 3)  # discriminant -35
    r = f.reduced()
    assert r.is_reduced()
    assert r.discriminant == f.discriminant
    assert r.reduced() == r


def test_compose_identity_and_inverse():
    for d in (23, 39, 47):
        e = principal_form(d)
        for f in reduced_forms(d):
            assert compose(f, e) == f
            assert compose(f, f.inverse()) == e


def test_compose_closure_sorted_into_reduced_set():
    for d in (23, 39, 47, 71):
        forms = set(reduced_forms(d))
        for f in forms:
            for g in forms:
                assert compose(f, g) in forms


@given(st.sampled_from([23, 31, 39, 47, 59, 71, 87]))
@settings(max_examples=40, deadline=None)
def test_compose_commutative_associative(d):
    forms = reduced_forms(d)
    for f in forms:
        for g in forms:
            assert compose(f, g) == compose(g, f)
    f, g, h = forms[0], forms[len(forms) // 2], forms[-1]
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_form_power_cycles():
    d = 23
    g = QuadraticForm(2, 1, 3)
    e = principal_form(d)
    assert form_power(g, 3, e) == e
    assert form_power(g, 1, e) == g
    assert form_power(g, 0, e) == e


def test_class_group_orders():
    assert class_group(3).order == 1
    assert class_group(7).order == 1
    assert class_group(15).order == 2
    assert class_group(23).order == 3
    assert class_group(39).order == 4
    assert class_group(71).order == 7


def test_class_group_invariants():
    assert class_group(3).elementary_divisors == ()
    assert class_group(15).elementary_divisors == (2,)
    assert class_group(23).elementary_divisors == (3,)
    assert class_group(39).elementary_divisors == (4,)


def test_elementary_divisors_divide_in_turn():
    for d in (15, 23, 39, 47, 71, 87, 95):
        st_ = class_group(d)
        divs = st_.elementary_divisors
        prod = 1
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        for v in divs:
            prod *= v
        assert prod == st_.order


def test_class_group_against_form_free_oracles():
    # Neither oracle reads a form: the order is the analytic class number
    # -(w / 2d) sum_{a<d} a chi(a), and genus theory gives 2-rank omega(d) - 1.
    fields = [d for d in range(3, 1000, 4) if is_squarefree(d)]
    assert len(fields) == 204
    for d in fields:
        st_ = class_group(d)
        w = 6 if d == 3 else 2
        chi_sum = int(np.dot(np.arange(d), character(d).table))
        assert 2 * d * st_.order == -w * chi_sum, d
        two_rank = sum(1 for v in st_.elementary_divisors if v % 2 == 0)
        assert two_rank == factorize(d).num_distinct - 1, d


def test_admissibility_verdicts():
    for d in (3, 7, 11, 15, 19, 23):
        res = is_admissible(d)
        assert res.admissible and res.reason is None
    res39 = is_admissible(39)
    assert not res39.admissible
    assert res39.class_number == 4
    assert res39.invariants == (4,)
    assert "4" in res39.reason
    assert not is_admissible(12).admissible  # not square-free
    assert is_admissible(12).reason == "not square-free"
    for d in (0, -3):
        res = is_admissible(d)
        assert not res.admissible and res.reason == "not positive"
    assert not is_admissible(21).admissible  # 21 = 1 mod 4
    assert is_admissible(4).admissible  # constant-chain special case


def test_four_rank_matches_the_class_group():
    # Redei's matrix against the elementary divisors, over every field below 2000
    fields = [d for d in range(3, 2000, 4) if is_squarefree(d)]
    assert len(fields) == 408
    for d in fields:
        assert four_rank(d) == sum(1 for v in class_group(d).elementary_divisors if v % 4 == 0), d
    assert four_rank(39) == 1 and four_rank(15) == 0
    assert four_rank(1000000007) == 0  # prime: t = 1, no symbol read


def test_four_rank_refuses_other_d():
    for d in (0, -1, 4, 12, 21, 75):
        with pytest.raises(ValueError, match="four_rank needs square-free d = 3 mod 4"):
            four_rank(d)
