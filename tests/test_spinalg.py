import random
from fractions import Fraction

import pytest

from superspin import linalg
from superspin import spinalg as sa
from superspin.exactnum import SqrtNumber, canonical, sqrt_rational
from superspin.linalg import Echelon, kernel


def test_dimension_is_factorial():
    import math

    for n in range(1, 8):
        assert sa.dimension(n) == math.factorial(n)


def test_canonical_form_examples():
    sw = sa.canonical_form([1, 1], 2)
    assert sw.sign == 1 and sw.perm == (1, 2)
    a = sa.canonical_form([1, 3], 4)
    b = sa.canonical_form([3, 1], 4)
    assert a.perm == b.perm and a.sign == -b.sign
    assert sa.canonical_form([1, 2, 1], 3) == sa.canonical_form([2, 1, 2], 3)
    with pytest.raises(ValueError):
        sa.canonical_form([5], 3)


def test_canonical_word_evaluates_back():
    for n in (3, 4, 5):
        ctx = sa.context(n)
        for pidx, perm in enumerate(ctx.perms):
            assert sa.perm_of_word(ctx.words[pidx], n) == perm
            # canonical word is reduced
            assert len(ctx.words[pidx]) == ctx.lengths[pidx]


def test_multiply_examples():
    t1 = sa.SpinElement.generator(1, 3)
    t2 = sa.SpinElement.generator(2, 3)
    one = sa.SpinElement.one(3)
    assert t1 * t1 == one
    assert (t1 + t2) * (t1 - t2) == t2 * t1 - t1 * t2
    with pytest.raises(ValueError):
        t1 * sa.SpinElement.generator(1, 4)


def test_multiply_associativity_random():
    rng = random.Random(7)
    n = 5
    N = sa.dimension(n)

    def rand():
        return sa.SpinElement(
            n,
            {
                rng.randrange(N): rng.randint(1, 3)
                for _ in range(rng.randint(1, 4))
            },
        )

    for _ in range(500):
        x, y, z = rand(), rand(), rand()
        assert (x * y) * z == x * (y * z)


def test_transposition_element_examples():
    assert sa.transposition_element(1, 2, 3) == sa.SpinElement.generator(1, 3)
    t13 = sa.transposition_element(1, 3, 3)
    assert t13 * t13 == sa.SpinElement.one(3)
    t12 = sa.transposition_element(1, 2, 4)
    t34 = sa.transposition_element(3, 4, 4)
    assert t12 * t34 == -(t34 * t12)
    assert sa.transposition_element(2, 1, 3) == -sa.transposition_element(1, 2, 3)
    with pytest.raises(ValueError):
        sa.transposition_element(2, 2, 4)


def test_jm_examples():
    assert sa.jm_element(1, 5).is_zero()
    pi2 = sa.jm_element(2, 3)
    assert pi2 * pi2 == sa.SpinElement.one(3)
    p2, p4 = sa.jm_element(2, 4), sa.jm_element(4, 4)
    assert (p2 * p4 + p4 * p2).is_zero()


def test_supercenter_examples():
    assert len(sa.supercenter_basis(3)) == 2
    assert len(sa.supercenter_basis(5)) == 3
    # any even part makes the cycle sum cancel
    assert sa.cycle_sum((2,), 3).is_zero()
    assert sa.cycle_sum((4,), 4).is_zero()
    assert sa.cycle_sum((2, 2), 4).is_zero()
    for n in range(1, 8):
        basis = sa.supercenter_basis(n)
        assert len(basis) == len(sa.odd_partitions(n))
        assert sa.span_dim(basis) == len(basis)


def test_supercenter_elements_supercommute():
    for n in (3, 4, 5):
        gens = [sa.SpinElement.generator(i, n) for i in range(1, n)]
        for c in sa.supercenter_basis(n):
            assert c.parity() in (0, None)
            for g in gens:
                assert c * g == g * c  # even elements: supercommute = commute


def test_supercentralizer_examples():
    s21 = sa.supercentralizer(2, 1)
    assert len(s21) == 2  # all of the rank-2 algebra
    for n in (2, 3, 4, 5):
        assert sa.spans_equal(sa.supercentralizer(n, n), sa.supercenter_basis(n))
        szn1 = sa.supercentralizer(n, n - 1) if n > 1 else []
        if n > 1:
            assert sa.span_contains(szn1, [sa.jm_element(n, n)])
    # one rank check, 1 <= m <= k <= n, for the whole centralizer family
    for call in (
        lambda: sa.supercentralizer(3, 5),
        lambda: sa.graded_centralizer_spin(3, 5),
        lambda: sa.graded_center(3, within=5),
        lambda: sa.even_part_centralizer(3, 5),
        lambda: sa.graded_centralizer_spin(3, 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_supercentralizer_recheck_and_generation():
    # every solution supercommutes with the subalgebra generators, and the
    # supercentralizer is generated by the lower supercenter plus pi_n
    for n in (3, 4, 5):
        basis = sa.supercentralizer(n, n - 1)
        gens = [sa.SpinElement.generator(i, n) for i in range(1, n - 1)]
        for x in basis:
            eps = x.parity()
            assert eps is not None
            for g in gens:
                lhs = x * g
                rhs = g * x if eps == 0 else -(g * x)
                assert lhs == rhs
        lower = [
            sa.SpinElement(n, dict(e.coeffs))
            for e in sa.supercentralizer(n, n)
        ]
        # embed SZ(A_{n-1}) via the inclusion of word bases
        lifted = []
        ctxn = sa.context(n)
        ctxm = sa.context(n - 1)
        for e in sa.supercentralizer(n - 1, n - 1):
            coeffs = {}
            for idx, c in e.coeffs.items():
                perm = ctxm.perms[idx] + (n,)
                coeffs[ctxn.index[perm]] = c
            lifted.append(sa.SpinElement(n, coeffs))
        generated = sa.subalgebra_span(n, lifted + [sa.jm_element(n, n)])
        assert sa.spans_equal(generated, sa.subalgebra_span(n, basis))


def _commutation_kernel(n, others, eps_of):
    """The x = sum c_u word_u with x y = eps_of(u) * y x for every y in others,
    as the kernel of the linear constraints read off SpinElement products;
    eps_of(u) None forces c_u = 0.  The independent oracle for the sign solve."""
    constraints, rows = [], {}
    for u in range(sa.dimension(n)):
        eps = eps_of(u)
        if eps is None:
            constraints.append({u: 1})
            continue
        word = sa.SpinElement(n, {u: 1})
        for k, y in enumerate(others):
            for t, c in (word * y - (y * word).scale(eps)).coeffs.items():
                rows.setdefault((k, t), {})[u] = c
    ker = kernel(constraints + list(rows.values()), sa.dimension(n))
    return [sa.SpinElement(n, v) for v in ker]


def test_sign_solve_matches_commutation_kernel():
    for n in range(1, 5):
        ctx = sa.context(n)
        parity = ctx.parity
        for m in range(1, n + 1):
            gens = [sa.SpinElement.generator(g, n) for g in range(1, m)]
            superc = _commutation_kernel(n, gens, lambda u: -1 if parity[u] else 1)
            got = sa.supercentralizer(n, m)
            assert len(got) == len(superc) and sa.spans_equal(got, superc), (n, m)
            plain = _commutation_kernel(n, gens, lambda u: None if parity[u] else 1)
            twisted = _commutation_kernel(n, gens, lambda u: None if parity[u] else -1)
            got = sa.graded_centralizer_spin(n, m)[0]
            assert sa.spans_equal(got, plain + twisted), (n, m)
            assert len(got) == sa.span_dim(plain + twisted)
            # the even part's centralizer, against every even word of A_m
            even_words = [
                sa.SpinElement(n, {b: 1})
                for b, perm in enumerate(ctx.perms)
                if not parity[b] and perm[m:] == tuple(range(m + 1, n + 1))
            ]
            even = _commutation_kernel(n, even_words, lambda u: None if parity[u] else 1)
            assert sa.spans_equal(sa.even_part_centralizer(n, m), even), (n, m)


def test_graded_centralizer_commutative():
    for n in (2, 3, 4, 5):
        basis, commutative = sa.graded_centralizer_spin(n, n - 1)
        assert commutative


def test_graded_center_of_rank3():
    # even ordinary center (2 blocks) plus one twisted-even direction
    assert len(sa.graded_center(3)) == 3


def test_identity_suite():
    for n in (2, 3, 4, 5):
        report = sa.verify_identity_suite(n)
        failures = [r for r in report if r["status"] == "fail"]
        assert not failures, failures[:3]
    typo = [
        r
        for r in sa.verify_identity_suite(3)
        if r["status"] == "rejected-typo"
    ]
    assert typo, "the printed triple-product form should be flagged"


def test_even_presentation():
    for n in (3, 4, 5, 6):
        report = sa.even_presentation_check(n)
        assert all(r["status"] == "pass" for r in report)
    assert any(
        "y_1 y_4" in r["identity"] for r in sa.even_presentation_check(6)
    )


def test_gz_algebras():
    for n in (2, 3, 4):
        out = sa.gz_algebras(n)
        assert out["maximality_flag"]
        assert out["sgz_equals_pi_algebra"]
        assert out["sz_equals_pi2_algebra"]
        assert out["inclusions_ok"]
    out = sa.gz_algebras(3)
    # SGZ spanned by monomials in pi_2, pi_3
    pis = [sa.jm_element(k, 3) for k in (2, 3)]
    monos = [sa.SpinElement.one(3)]
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            monos.append(pis[0] ** a * pis[1] ** b)
    assert sa.span_dim(monos) == len(out["sgz_basis"])


def test_spin_element_json_roundtrip():
    x = sa.jm_element(3, 4).scale(sqrt_rational(2)) + sa.SpinElement.one(4)
    obj = x.to_json()
    assert obj["n"] == 4
    assert all(len(t["perm"]) == 4 for t in obj["terms"])
    assert sa.SpinElement.from_json(obj) == x


def test_even_part_centralizer_lemma():
    # the graded centralizer equals the ordinary centralizer of the even parts
    for n in (3, 4, 5):
        graded = sa.graded_centralizer_spin(n, n - 1)[0]
        even = sa.even_part_centralizer(n, n - 1)
        assert len(graded) == len(even)
        assert sa.spans_equal(graded, even)


def test_even_part_simple_count():
    # graded simple modules correspond to simple modules of the even part:
    # the even part's center dimension is 2 #M + #Q
    from superspin import seminormal as sn

    for n in (2, 3, 4, 5):
        center_even_part = sa.even_part_centralizer(n, n)
        blocks = sn.regular_decompose("A", n).blocks
        m_count = sum(1 for b in blocks if b.btype == "M")
        q_count = sum(1 for b in blocks if b.btype == "Q")
        assert len(center_even_part) == 2 * m_count + q_count


# -- the scalar rule: rational coefficients against sympy arithmetic -----------


def _lift(x, sympy):
    """The slow reference: the same element with sympy.Rational coefficients,
    which the scalar rule leaves alone."""
    return sa.SpinElement(x.n, {i: sympy.Rational(c) for i, c in x.coeffs.items()})


def _unlift(x):
    """The reference element back with Fraction coefficients."""
    return sa.SpinElement(x.n, {i: Fraction(int(c.p), int(c.q)) for i, c in x.coeffs.items()})


def _coeff_types(elements) -> set:
    return {type(c) for e in elements for c in e.coeffs.values()}


def test_rational_arithmetic_matches_lifted():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    n = 4
    scalars = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4).map(canonical),
    )
    elements = st.dictionaries(st.integers(0, sa.dimension(n) - 1), scalars, max_size=6).map(
        lambda d: sa.SpinElement(n, {i: c for i, c in d.items() if c})
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(elements, elements, scalars)
    def check(x, y, c):
        lx, ly, lc = _lift(x, sympy), _lift(y, sympy), sympy.Rational(c)
        for got, want in (
            (x * y, lx * ly),
            (x + y, lx + ly),
            (x - y, lx - ly),
            (x.scale(c), lx.scale(lc)),
            (x * c, lx.scale(lc)),
        ):
            want = _unlift(want)
            assert got == want
            # rational in, canonical rational out: int whenever integral
            assert all(type(v) is type(canonical(v)) for v in got.coeffs.values())
            assert _coeff_types([got]) <= {int, Fraction}
            assert got.to_json() == want.to_json()

    check()


def test_bases_hold_int_coefficients():
    for n in range(1, 5):
        assert _coeff_types(sa.supercenter_basis(n)) == {int}
        for m in range(1, n + 1):
            assert _coeff_types(sa.supercentralizer(n, m)) == {int}
        if n >= 2:
            out = sa.gz_algebras(n)
            for key in ("gz_basis", "sgz_basis", "sz_basis"):
                assert _coeff_types(out[key]) == {int}, (n, key)
    assert _coeff_types([sa.jm_element(4, 4) * sa.jm_element(4, 4)]) == {int}


def test_rational_json_roundtrip_gives_rationals():
    half = sa.jm_element(3, 4).scale(Fraction(1, 2)) + sa.SpinElement.one(4)
    for x in sa.supercenter_basis(5) + [half]:
        obj = x.to_json()
        for term, i in zip(obj["terms"], sorted(x.coeffs)):
            c = Fraction(x.coeffs[i])
            assert term["coeff"] == {
                "terms": [{"radicand": 1, "coeff": f"{c.numerator}/{c.denominator}"}]
            }
        back = sa.SpinElement.from_json(obj)
        assert back == x
        assert _coeff_types([back]) == _coeff_types([x]) <= {int, Fraction}
    assert _coeff_types([sa.SpinElement.from_json(sa.supercenter_basis(5)[0].to_json())]) == {int}
    radical = sa.SpinElement.from_json(sa.jm_element(3, 4).scale(sqrt_rational(2)).to_json())
    assert _coeff_types([radical]) == {SqrtNumber}


# -- the span queries against the Echelon loops they replaced ------------------


def _subalgebra_span_reference(n, generators):
    ech = Echelon()
    basis, queue = [], []
    for e in [sa.SpinElement.one(n)] + list(generators):
        if e and ech.add(e.vec()):
            basis.append(e)
            queue.append(e)
    while queue:
        e = queue.pop(0)
        for g in generators:
            prod = e * g
            if prod and ech.add(prod.vec()):
                basis.append(prod)
                queue.append(prod)
    return basis


def _echelon_of(elements):
    ech = Echelon()
    for e in elements:
        ech.add(e.vec())
    return ech


def test_subalgebra_span_matches_the_reference_loop():
    # the generator lists of gz_algebras: same elements, in the same order
    for n in range(2, 5):
        pis = [sa.jm_element(k, n) for k in range(1, n + 1)]
        for gens in (
            [e for k in range(1, n + 1) for e in sa.graded_center(n, k)],
            [e for k in range(1, n) for e in sa._supercentralizer(n, k + 1, k)],
            [e for k in range(1, n + 1) for e in sa._supercentralizer(n, k, k)],
            pis,
            [p * p for p in pis],
        ):
            assert sa.subalgebra_span(n, gens) == _subalgebra_span_reference(n, gens)
        for k in range(1, n + 1):
            both = sa._sign_solutions(n, k, k, 0, +1) + sa._sign_solutions(n, k, k, 0, -1)
            ech = Echelon()
            assert sa.graded_center(n, k) == [e for e in both if ech.add(e.vec())]


def test_span_queries_match_the_echelon_reference(monkeypatch):
    out = sa.gz_algebras(4)
    gz, sgz, sz = out["gz_basis"], out["sgz_basis"], out["sz_basis"]
    root2 = sqrt_rational(2)
    # the same span as gz (sqrt2 I + reversal is invertible), with radical entries
    radical = [e.scale(root2) + f for e, f in zip(gz, reversed(gz))]
    seen = []
    certified = linalg._certified_rref

    def record(vecs):
        seen.append(certified(vecs))
        return seen[-1]

    monkeypatch.setattr(linalg, "_certified_rref", record)
    cases = [(gz, sz), (sz, gz), (sgz, gz), (gz, radical), (radical, sgz), (gz, gz[:-1]), ([], gz)]
    answers = set()
    for a, b in cases:
        ea, eb = _echelon_of(a), _echelon_of(b)
        contains = all(ea.contains(e.vec()) for e in b)
        assert sa.span_dim(a) == ea.rank
        assert sa.span_contains(a, b) == contains
        assert sa.spans_equal(a, b) == (ea.rank == eb.rank and contains)
        answers.add((contains, ea.rank == eb.rank))
    assert answers == {(True, True), (True, False), (False, False)}
    assert None in seen  # the radical spans took the exact path
