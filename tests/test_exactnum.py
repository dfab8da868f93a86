import random
from fractions import Fraction

import pytest

from superspin.exactnum import (
    SqrtNumber,
    canonical,
    inverse,
    scalar_json,
    sqrt_rational,
    square_free_decompose,
)


def test_square_free_decompose():
    assert square_free_decompose(8) == (2, 2)
    assert square_free_decompose(9) == (3, 1)
    assert square_free_decompose(360) == (6, 10)
    assert square_free_decompose(1) == (1, 1)
    with pytest.raises(ValueError):
        square_free_decompose(0)


def test_sqrt_rational_examples():
    assert sqrt_rational(2).terms == {2: Fraction(1)}
    # the value decides the type: a root without a radical is rational
    assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    assert type(sqrt_rational(Fraction(9, 4))) is Fraction
    assert sqrt_rational(8).terms == {2: Fraction(2)}
    assert sqrt_rational(0) == 0 and type(sqrt_rational(0)) is int
    assert sqrt_rational(Fraction(16, 4)) == 2 and type(sqrt_rational(Fraction(16, 4))) is int
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_multiply_examples():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    assert r2 * r2 == 2 and type(r2 * r2) is int
    assert r2 * r3 == sqrt_rational(6)
    x = 1 + r2
    y = -1 + r2
    assert x * y == 1 and type(x * y) is int
    assert type(r2 * Fraction(1, 2) * r2) is int
    assert type(x - r2) is int and type(-r2 + r2) is int
    assert r2 * 0 == 0 and type(r2 * 0) is int


def test_invert_examples():
    r2 = sqrt_rational(2)
    assert (1 + r2).invert() == -1 + r2
    assert inverse(Fraction(3, 2)) == Fraction(2, 3)
    assert sqrt_rational(6).invert() == sqrt_rational(6) * Fraction(1, 6)
    assert r2 / r2 == 1 and type(r2 / r2) is int
    assert 1 / r2 == r2 / 2
    with pytest.raises(ZeroDivisionError):
        r2 / (r2 - r2)


def test_sign_examples():
    assert (sqrt_rational(2) - Fraction(3, 2)).sign() == -1
    assert (sqrt_rational(6) - 2).sign() == 1
    # close comparison forcing nontrivial interval work
    assert (sqrt_rational(2) + sqrt_rational(3) - sqrt_rational(Fraction(9801, 1009))).sign() != 0


def test_field_axioms_random():
    rng = random.Random(1)
    rads = [1, 2, 3, 5, 6, 7, 10]

    def rand():
        return SqrtNumber.from_terms(
            (rng.choice(rads), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        )

    for _ in range(1000):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_invert_roundtrip_random():
    rng = random.Random(2)
    rads = [1, 2, 3, 5, 6, 7, 10, 13]
    count = 0
    while count < 1000:
        x = SqrtNumber.from_terms(
            (rng.choice(rads), Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
            for _ in range(rng.randint(1, 4))
        )
        if not x:
            continue
        count += 1
        assert x * inverse(x) == 1


def test_normalization_idempotent_and_unique():
    x = SqrtNumber.from_terms([(8, Fraction(1)), (2, Fraction(-2))])
    assert x == 0 and type(x) is int  # sqrt(8) = 2 sqrt(2)
    y = SqrtNumber.from_terms([(12, Fraction(1, 2))])
    assert y.terms == {3: Fraction(1)}
    assert SqrtNumber.from_terms(y.terms.items()) == y


def test_ordering_and_float():
    assert sqrt_rational(2) < sqrt_rational(3)
    assert 2 > sqrt_rational(2) and sqrt_rational(2) > 1
    assert sqrt_rational(2) <= sqrt_rational(2) and not sqrt_rational(2) < sqrt_rational(2)
    assert abs(float(sqrt_rational(2)) - 2**0.5) < 1e-12


def test_json_roundtrip():
    x = SqrtNumber.from_terms(
        [(6, Fraction(-1, 2)), (1, Fraction(3, 7)), (2, Fraction(5))]
    )
    obj = x.to_json()
    assert obj == {
        "terms": [
            {"radicand": 1, "coeff": "3/7"},
            {"radicand": 2, "coeff": "5/1"},
            {"radicand": 6, "coeff": "-1/2"},
        ]
    }
    assert SqrtNumber.from_json(obj) == x
    # a term map without a radical reads back as its rational value
    half = SqrtNumber.from_json({"terms": [{"radicand": 4, "coeff": "1/4"}]})
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_rational_hash_matches_python():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(st.integers(), st.fractions()))
    def check(q):
        x = SqrtNumber.from_terms([(1, q)])
        assert x == q and type(x) is type(canonical(q))
        assert hash(x) == hash(q)
        assert x in {q} and q in {x} and len({x, q}) == 1

    check()
    r2 = sqrt_rational(2)
    assert hash(r2) == hash(SqrtNumber.from_terms([(8, Fraction(1, 2))]))


def test_scalar_helpers():
    r2 = sqrt_rational(2)
    for q in (0, 1, -3, Fraction(3, 2), Fraction(-7, 5)):
        # the rational part of q + sqrt(2) in SqrtNumber's own wire format
        want = [t for t in (q + r2).to_json()["terms"] if t["radicand"] == 1]
        assert scalar_json(q) == {"terms": want}
    assert scalar_json(r2) == r2.to_json()
    assert canonical(Fraction(4, 2)) == 2 and type(canonical(Fraction(4, 2))) is int
    assert type(canonical(Fraction(1, 2))) is Fraction
    assert canonical(r2) is r2
    assert inverse(-1) == -1 and type(inverse(-1)) is int
    assert inverse(3) == Fraction(1, 3)
    assert inverse(Fraction(-1, 3)) == -3 and type(inverse(Fraction(-1, 3))) is int
    assert inverse(1 + r2) == r2 - 1
    with pytest.raises(ZeroDivisionError):
        inverse(0)


def test_sign_inverse_and_sqrt_match_sympy():
    # sympy, computing on its own radical expressions, is an independent oracle
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    def from_raw(raw):
        return sympy.Add(*(sympy.Rational(q) * sympy.sqrt(d) for d, q in raw))

    def to_sym(x):
        return from_raw(x.terms.items() if isinstance(x, SqrtNumber) else [(1, x)])

    def assert_rule(r, e, *operands):
        """r has the value e, in the type the value decides: a SqrtNumber iff
        sympy finds e irrational, and an int iff it finds e an integer.  The
        last holds for what exactnum computes; Python's own arithmetic on two
        rational operands may leave an integral Fraction."""
        e = sympy.expand(e)
        assert sympy.expand(to_sym(r) - e) == 0
        assert type(r) in (int, Fraction, SqrtNumber)
        assert isinstance(r, SqrtNumber) == (not e.is_Rational)
        if not operands or any(isinstance(a, SqrtNumber) for a in operands):
            assert (type(r) is int) == e.is_Integer

    raw_numbers = st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 30]),
            st.fractions(-6, 6, max_denominator=5),
        ),
        max_size=4,
    )
    rationals = st.one_of(
        st.fractions(0, 50, max_denominator=50),
        st.integers(1, 40).map(lambda k: Fraction(k * k, 9)),  # perfect squares
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(raw_numbers, raw_numbers, rationals)
    def check(xs, ys, q):
        x, y = SqrtNumber.from_terms(xs), SqrtNumber.from_terms(ys)
        ex, ey = from_raw(xs), from_raw(ys)
        sign = x.sign() if isinstance(x, SqrtNumber) else (x > 0) - (x < 0)
        assert sign == sympy.sign(ex)
        diff = sympy.sign(ex - ey)
        assert ((x < y), (x == y), (x > y)) == (diff < 0, diff == 0, diff > 0)
        assert_rule(x, ex)
        assert_rule(SqrtNumber.from_json(scalar_json(x)), ex)
        assert_rule(sqrt_rational(q), sympy.sqrt(sympy.Rational(q)))
        assert_rule(-x, -ex, x)
        assert_rule(x + y, ex + ey, x, y)
        assert_rule(x - y, ex - ey, x, y)
        assert_rule(x * y, ex * ey, x, y)
        # quotients: the value is checked by multiplying back
        if x:
            r = inverse(x)
            assert sympy.expand(to_sym(r) * ex) == 1
            assert_rule(r, to_sym(r))
        if y:
            r = x * inverse(y)
            assert sympy.expand(to_sym(r) * ey - ex) == 0
            assert_rule(r, to_sym(r), x, y)
            if isinstance(y, SqrtNumber):
                assert x / y == r == x * y.invert()

    check()
    # a near cancellation: sqrt(2) + sqrt(3) against a close rational square root
    x = sqrt_rational(2) + sqrt_rational(3) - sqrt_rational(Fraction(9801, 1009))
    assert x.sign() == sympy.sign(to_sym(x))
