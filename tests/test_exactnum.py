import random
from fractions import Fraction

import pytest

from superspin.exactnum import (
    ONE,
    PrecisionExceeded,
    SqrtNumber,
    ZERO,
    canonical,
    inverse,
    rational,
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
    assert sqrt_rational(Fraction(9, 4)) == rational(Fraction(3, 2))
    assert sqrt_rational(8).terms == {2: Fraction(2)}
    assert sqrt_rational(0).is_zero()
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_multiply_examples():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    assert r2 * r2 == rational(2)
    assert r2 * r3 == sqrt_rational(6)
    x = rational(1) + r2
    y = rational(-1) + r2
    assert x * y == ONE


def test_invert_examples():
    r2 = sqrt_rational(2)
    assert (rational(1) + r2).invert() == rational(-1) + r2
    assert rational(Fraction(3, 2)).invert() == rational(Fraction(2, 3))
    assert sqrt_rational(6).invert() == sqrt_rational(6) * rational(Fraction(1, 6))
    with pytest.raises(ZeroDivisionError):
        SqrtNumber().invert()


def test_sign_examples():
    assert (sqrt_rational(2) - rational(Fraction(3, 2))).sign() == -1
    assert SqrtNumber().sign() == 0
    assert (sqrt_rational(6) - rational(2)).sign() == 1
    # close comparison forcing nontrivial interval work
    assert (sqrt_rational(2) + sqrt_rational(3) - sqrt_rational(Fraction(9801, 1009))).sign() != 0


def test_sign_precision_cap(monkeypatch):
    monkeypatch.setenv("SUPERSPIN_MAX_BITS", "16")
    # decided already at the starting precision: the cap is never consulted
    assert (sqrt_rational(2) - rational(1)).sign() == 1
    monkeypatch.setenv("SUPERSPIN_MAX_BITS", "128")
    # continued-fraction convergent of sqrt(2) within ~1/q^2 < 2^-170
    p, q = 1, 1
    while q < 2**85:
        p, q = p + 2 * q, p + q
    with pytest.raises(PrecisionExceeded):
        (sqrt_rational(2) - rational(Fraction(p, q))).sign()


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
        if x.is_zero():
            continue
        count += 1
        assert x * x.invert() == ONE


def test_normalization_idempotent_and_unique():
    x = SqrtNumber.from_terms([(8, Fraction(1)), (2, Fraction(-2))])
    assert x.is_zero()  # sqrt(8) = 2 sqrt(2)
    y = SqrtNumber.from_terms([(12, Fraction(1, 2))])
    assert y.terms == {3: Fraction(1)}
    assert SqrtNumber.from_terms(y.terms.items()) == y


def test_ordering_and_float():
    assert sqrt_rational(2) < sqrt_rational(3)
    assert rational(2) > sqrt_rational(2)
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


def test_rational_hash_matches_python():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(st.integers(), st.fractions()))
    def check(q):
        assert hash(rational(q)) == hash(q)
        assert rational(q) in {q}
        assert q in {rational(q)}
        assert len({rational(q), q}) == 1

    check()
    assert len({ONE, 1}) == 1 and 1 in {ONE} and 0 in {ZERO}
    r2 = sqrt_rational(2)
    assert hash(r2) == hash(SqrtNumber.from_terms([(8, Fraction(1, 2))]))


def test_scalar_helpers():
    for q in (0, 1, -3, Fraction(3, 2), Fraction(-7, 5)):
        assert scalar_json(q) == rational(q).to_json()
    assert scalar_json(sqrt_rational(2)) == sqrt_rational(2).to_json()
    assert canonical(Fraction(4, 2)) == 2 and type(canonical(Fraction(4, 2))) is int
    assert type(canonical(Fraction(1, 2))) is Fraction
    assert canonical(ONE) is ONE
    assert inverse(-1) == -1 and type(inverse(-1)) is int
    assert inverse(3) == Fraction(1, 3)
    assert inverse(Fraction(-1, 3)) == -3 and type(inverse(Fraction(-1, 3))) is int
    assert inverse(ONE + sqrt_rational(2)) == sqrt_rational(2) - ONE
    with pytest.raises(ZeroDivisionError):
        inverse(0)


def test_sign_inverse_and_sqrt_match_sympy():
    # sympy, computing on its own radical expressions, is an independent oracle
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    def to_sym(x: SqrtNumber):
        return sympy.Add(*(
            sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
            for d, q in x.terms.items()
        ))

    numbers = st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 5, 6, 7, 8, 10, 12, 30]),
            st.fractions(-6, 6, max_denominator=5),
        ),
        max_size=4,
    ).map(SqrtNumber.from_terms)
    rationals = st.one_of(
        st.fractions(0, 50, max_denominator=50),
        st.integers(1, 40).map(lambda k: Fraction(k * k, 9)),  # perfect squares
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(numbers, rationals)
    def check(x, q):
        e = to_sym(x)
        assert x.sign() == sympy.sign(e)
        if x:
            assert sympy.expand(e * to_sym(x.invert())) == 1
        root = sqrt_rational(q)
        want = sympy.sqrt(sympy.Rational(q.numerator, q.denominator))
        assert sympy.expand(to_sym(root) - want) == 0

    check()
    # a near cancellation: sqrt(2) + sqrt(3) against a close rational square root
    x = sqrt_rational(2) + sqrt_rational(3) - sqrt_rational(Fraction(9801, 1009))
    assert x.sign() == sympy.sign(to_sym(x))
