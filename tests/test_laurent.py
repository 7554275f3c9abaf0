import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies.laurent import LaurentPoly, format_laurent

V = ("a", "b", "c")


def poly_of(terms):
    return LaurentPoly(V, terms)


@st.composite
def polys(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(-3, 3)) for _ in V)
        terms[e] = terms.get(e, 0) + draw(st.integers(-4, 4))
    return poly_of(terms)


@given(p=polys(), q=polys(), r=polys())
@settings(max_examples=150)
def test_ring_axioms(p, q, r):
    assert (p + q) == (q + p)
    assert (p * q) == (q * p)
    assert ((p + q) + r) == (p + (q + r))
    assert (p * (q + r)) == (p * q + p * r)
    assert (p - p) == LaurentPoly.zero(V)
    assert (p * LaurentPoly.one(V)) == p


@given(p=polys(), q=polys())
@settings(max_examples=100)
def test_eval_is_a_homomorphism(p, q):
    prime = 10007
    point = {"a": 17, "b": 5001, "c": 9998}
    lhs = (p * q).eval_mod_p(point, prime)
    rhs = p.eval_mod_p(point, prime) * q.eval_mod_p(point, prime) % prime
    assert lhs == rhs
    assert (p + q).eval_mod_p(point, prime) == (
        p.eval_mod_p(point, prime) + q.eval_mod_p(point, prime)
    ) % prime


@given(p=polys(), e=st.integers(0, 4))
@settings(max_examples=60)
def test_pow_matches_repeated_product(p, e):
    expected = LaurentPoly.one(V)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def test_eval_negative_exponents():
    p = LaurentPoly.monomial(V, (-1, 0, 2), 3)
    prime = 101
    val = p.eval_mod_p({"a": 2, "b": 7, "c": 5}, prime)
    assert val == 3 * pow(2, -1, prime) * 25 % prime
    with pytest.raises(ZeroDivisionError):
        p.eval_mod_p({"a": 0, "b": 1, "c": 1}, prime)


def test_strongly_min_and_max():
    # 1 + b + a*b has a strongly minimal term but fails at the top
    p = poly_of({(0, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1})
    assert p.strongly_min_term() == ((0, 0, 0), 1)
    assert p.strongly_max_term() == ((1, 1, 0), 1)
    q = poly_of({(1, 0, 0): 1, (0, 1, 0): 1})
    assert q.strongly_min_term() is None
    assert q.strongly_max_term() is None
    assert LaurentPoly.zero(V).strongly_min_term() is None


def test_format_is_stable():
    p = poly_of({(1, 0, 0): 1, (0, 0, 0): -2, (0, 2, -1): 1})
    assert format_laurent(p) == "- 2 + b^2*c^-1 + a"
    assert format_laurent(LaurentPoly.zero(V)) == "0"


def test_mixed_universes_refused():
    p = LaurentPoly.one(("a",))
    q = LaurentPoly.one(("b",))
    with pytest.raises(ValueError):
        _ = p + q
