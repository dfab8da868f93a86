"""linalg against independent references.

sympy (rref, nullspace, linear solves) is the reference on rational data; a
textbook incremental Gauss-Jordan with combination tracking, kept below, is
the slow reference on data with radicals and on the commutant solves.  The
certified elimination modulo a prime, which every rational system takes, is
checked against sympy and against the exact path, forced by making
`_certified_rref` decline.
"""

import ast
import importlib.util
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from superspin import gradedstruct, linalg, seminormal
from superspin.exactnum import SqrtNumber, canonical, inverse, rational_of, sqrt_rational
from superspin.linalg import (
    Echelon,
    Mat,
    Subspace,
    _deflate,
    _poly_mul,
    eigensplit,
    kernel,
    min_poly,
    poly_factors,
)
from superspin.shiftedcomb import strict_partitions

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FAST = settings(max_examples=40, deadline=None)


# -- slow reference: Gauss-Jordan kept fully reduced on every insert -------------


class GaussJordan:
    """Rows kept in reduced row echelon form after every insert, each with its
    combination of the accepted inputs."""

    def __init__(self):
        self.pivots: dict[int, tuple[dict, dict]] = {}  # column -> (row, combo)

    def reduce(self, vec):
        rem, combo = {i: v for i, v in vec.items() if v}, {}
        for p in sorted(self.pivots):
            c = rem.get(p)
            if c:
                row, rcombo = self.pivots[p]
                rem = _axpy(rem, row, -c)
                combo = _axpy(combo, rcombo, c)
        return rem, combo

    def add(self, vec) -> bool:
        rem, combo = self.reduce(vec)
        if not rem:
            return False
        combo = _axpy({len(self.pivots): 1}, combo, -1)
        p = min(rem)
        inv = inverse(rem[p])
        rem = {i: v * inv for i, v in rem.items()}
        combo = {i: v * inv for i, v in combo.items()}
        for q, (row, rcombo) in list(self.pivots.items()):
            c = row.get(p)
            if c:
                self.pivots[q] = (_axpy(row, rem, -c), _axpy(rcombo, combo, -c))
        self.pivots[p] = (rem, combo)
        return True


def _axpy(u, v, c):
    out = dict(u)
    for i, x in v.items():
        s = out.get(i, 0) + c * x
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def reference_kernel(constraints, ncols):
    gj = GaussJordan()
    for row in constraints:
        gj.add(row)
    out = []
    for f in range(ncols):
        if f not in gj.pivots:
            v = {f: 1}
            for p in sorted(gj.pivots):
                c = gj.pivots[p][0].get(f)
                if c:
                    v[p] = -c
            out.append(v)
    return out


def reference_coords(basis, vec):
    """Coordinates of vec in an independent basis, or None outside its span."""
    gj = GaussJordan()
    for b in basis:
        assert gj.add(b)
    rem, combo = gj.reduce(vec)
    return None if rem else combo


def reference_min_poly(m: Mat):
    gj = GaussJordan()
    power, deg = Mat.identity(m.nrows), 0
    while True:
        vec = {
            r * m.ncols + c: v for r, row in power.rows.items() for c, v in row.items()
        }
        if not gj.add(vec):
            _, combo = gj.reduce(vec)
            return [-combo.get(i, 0) for i in range(deg)] + [1]
        power, deg = power * m, deg + 1


# -- conversions -----------------------------------------------------------------


def to_vec(values) -> dict:
    return {i: canonical(v) for i, v in enumerate(values) if v}


def to_dense(vec: dict, n: int) -> list:
    return [Fraction(vec.get(i, 0)) for i in range(n)]


def sym(rows) -> "sympy.Matrix":
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
    )


def from_sym(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


scalars = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
).map(Fraction)


def matrices(max_rows=5, max_cols=6, entries=scalars):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    )


# -- rational data against sympy -------------------------------------------------


@FAST
@given(matrices())
def test_kernel_matches_sympy_nullspace(rows):
    ncols = len(rows[0])
    got = [to_dense(v, ncols) for v in kernel([to_vec(r) for r in rows], ncols)]
    want = [[from_sym(x) for x in v] for v in sym(rows).nullspace()]
    assert got == want
    # the kernel is read off the reduced rows, which must equal sympy's rref
    ech = Echelon()
    for r in rows:
        ech.add(to_vec(r))
    reduced, pivots = sym(rows).rref()
    assert sorted(ech.rref()) == list(pivots)
    assert [to_dense(ech.rows[p], ncols) for p in pivots] == [
        [from_sym(x) for x in reduced.row(i)] for i in range(len(pivots))
    ]


@FAST
@given(matrices(), st.data())
def test_rank_and_contains_match_sympy(rows, data):
    ncols = len(rows[0])
    ech = Echelon()
    for r in rows:
        ech.add(to_vec(r))
    assert ech.rank == sym(rows).rank()
    weights = data.draw(st.lists(scalars, min_size=len(rows), max_size=len(rows)))
    inside = [
        sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0)) for j in range(ncols)
    ]
    assert ech.contains(to_vec(inside))
    other = data.draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    assert ech.contains(to_vec(other)) == (sym(rows + [other]).rank() == ech.rank)


@FAST
@given(matrices(), st.data())
def test_subspace_coords_match_sympy(rows, data):
    ncols = len(rows[0])
    sub = Subspace(ncols, [to_vec(r) for r in rows])  # dependent inputs are dropped
    assert sub.dim == sym(rows).rank()
    # the basis is the reduced echelon form: in pivot order, each vector 1 at
    # its own pivot and 0 at every other one, and it spans the input
    pivots = [min(b) for b in sub.basis]
    assert pivots == sorted(set(pivots))
    for b, p in zip(sub.basis, pivots):
        assert [b.get(q, 0) for q in pivots] == [int(q == p) for q in pivots]
    dense = [to_dense(b, ncols) for b in sub.basis]
    assert sym(rows + dense).rank() == sub.dim
    basis = sym(dense) if sub.dim else None
    weights = data.draw(st.lists(scalars, min_size=sub.dim, max_size=sub.dim))
    inside = {}
    for w, b in zip(weights, sub.basis):
        for j, x in b.items():
            inside[j] = inside.get(j, 0) + w * x
    inside = {j: v for j, v in inside.items() if v}
    assert to_dense(sub.coords_of(inside), sub.dim) == weights
    other = data.draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    coords = sub.coords_of(to_vec(other))
    if basis is None:
        assert (coords is None) == any(other)
        return
    try:
        sol, params = basis.T.gauss_jordan_solve(sym([other]).T)
    except ValueError:  # inconsistent: outside the span
        assert coords is None
        return
    assert params.shape[0] == 0
    assert to_dense(coords, sub.dim) == [from_sym(x) for x in sol]


def square(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def to_mat(rows) -> Mat:
    n = len(rows)
    return Mat.from_entries(
        n, n, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    )


@FAST
@given(square(st.integers(-2, 2).map(Fraction), 4))
def test_min_poly_matches_sympy(rows):
    n = len(rows)
    m = to_mat([[canonical(v) for v in row] for row in rows])
    got = [Fraction(c) for c in min_poly(m)]
    # sympy: the first power that is a combination of the lower ones
    vecs = [sympy.eye(n).reshape(n * n, 1)]
    while True:
        nxt = (sym(rows) ** len(vecs)).reshape(n * n, 1)
        try:
            sol, _ = sympy.Matrix.hstack(*vecs).gauss_jordan_solve(nxt)
            break
        except ValueError:
            vecs.append(nxt)
    assert got == [-from_sym(x) for x in sol] + [Fraction(1)]


# -- radicals and the commutant solves against the slow reference ----------------

RADICALS = [
    0, 0, 1, -1, sqrt_rational(2), sqrt_rational(3),
    1 + sqrt_rational(2), Fraction(1, 2) - sqrt_rational(6),
]


@FAST
@given(square(st.sampled_from(RADICALS), 5), st.integers(1, 5))
def test_radical_systems_match_gauss_jordan(rows, nrows):
    ncols = len(rows[0])
    vecs = [{i: v for i, v in enumerate(r) if v} for r in rows[:nrows]]
    assert kernel(vecs, ncols) == reference_kernel(vecs, ncols)
    sub = Subspace(ncols, vecs)
    probes = vecs + [{i: 1 for i in range(ncols)}]
    want = [reference_coords(sub.basis, v) for v in probes]
    assert [sub.coords_of(v) for v in probes] == want
    sub._ech.rref()  # a second back-substitution changes no coordinate
    assert [sub.coords_of(v) for v in probes] == want
    m = to_mat(rows)
    assert min_poly(m) == reference_min_poly(m)


def _small_models():
    """The dense modules of the small built models."""
    for n in range(1, 5):
        for shape in strict_partitions(n):
            yield seminormal.build_rep_plain(shape).dense()
    for n in range(1, 4):
        for shape in strict_partitions(n):
            yield seminormal.build_rep_clifford_tensor(shape).dense()


def test_module_commutant_matches_gauss_jordan(monkeypatch):
    mods = list(_small_models())
    entries = [
        v for mod in mods for g in mod.generator_mats() for row in g.rows.values()
        for v in row.values()
    ]
    assert any(isinstance(v, SqrtNumber) for v in entries), "no model carries a radical"
    cases = [(mod, x) for mod in mods for x in (0, 1)]
    fast = [seminormal.module_commutant(*case) for case in cases]
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_certified_rref", lambda vecs: None)
        assert fast == [seminormal.module_commutant(*case) for case in cases]
    monkeypatch.setattr(gradedstruct, "kernel", reference_kernel)
    assert fast == [seminormal.module_commutant(*case) for case in cases]


# -- rational data against the exact path -------------------------------------
#
# Rational data computes in int/Fraction arithmetic, and its eliminations are
# certified modulo a prime; the slow reference is the same call with every
# elimination forced onto the exact path.  Values and types must agree, and
# rational results come in canonical type (int when integral).  The test names
# keep the "lifted" of an earlier reference, the same data as SqrtNumbers,
# which the scalar rule no longer allows.


def typed(vecs) -> list:
    """The vectors with each entry paired with its type, so == compares both."""
    return [{i: (type(x), x) for i, x in v.items()} for v in vecs]


def exact_path(fn, *args):
    """fn(*args) with every certified elimination declined."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_certified_rref", lambda vecs: None)
        return fn(*args)


def family(values) -> set:
    return {"sqrt" if isinstance(v, SqrtNumber) else "rational" for v in values}


def assert_rational(values):
    values = list(values)
    assert family(values) <= {"rational"}
    assert all(type(canonical(v)) is type(v) for v in values)


def rational_vecs(rows) -> list:
    return [{i: canonical(v) for i, v in enumerate(r) if v} for r in rows]


@FAST
@given(matrices(), st.lists(scalars, min_size=6, max_size=6))
def test_rational_kernel_and_coords_match_lifted(rows, probe):
    ncols = len(rows[0])
    rat = rational_vecs(rows)
    got, want = kernel(rat, ncols), exact_path(kernel, rat, ncols)
    assert typed(got) == typed(want)
    assert_rational(x for v in got for x in v.values())
    ech = Echelon()
    for v in rat:
        ech.add(v)
    assert_rational(x for row in ech.rows.values() for x in row.values())

    sub, sub_exact = Subspace(ncols, rat), exact_path(Subspace, ncols, rat)
    assert typed(sub.basis) == typed(sub_exact.basis)
    for vec in rat + rational_vecs([probe[:ncols]]):
        got, want = sub.coords_of(vec), sub_exact.coords_of(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert typed([got]) == typed([want])
            assert_rational(got.values())


@FAST
@given(square(st.integers(-2, 2).map(Fraction), 4))
def test_rational_min_poly_matches_lifted(rows):
    m = to_mat([[canonical(v) for v in r] for r in rows])
    got, want = min_poly(m), exact_path(min_poly, m)
    assert typed([dict(enumerate(got))]) == typed([dict(enumerate(want))])
    assert_rational(got)


def upper_triangular(n_max=4):
    return square(scalars, n_max).map(
        lambda rows: [[v if c >= r else 0 for c, v in enumerate(row)] for r, row in enumerate(rows)]
    )


def split_of(m: Mat) -> list:
    """eigensplit of the full space by m and m^2, as (basis, label) pairs."""
    full = Subspace.full(m.nrows)
    return [(piece.basis, label) for piece, label in eigensplit([full], [m, m * m])]


def typed_split(split) -> list:
    return [(typed(basis), typed([dict(enumerate(label))])) for basis, label in split]


@FAST
@given(upper_triangular())
def test_rational_eigensplit_matches_lifted(rows):
    # triangular, so every eigenvalue is rational: the diagonal entries
    m = to_mat([[canonical(v) for v in r] for r in rows])
    got, want = split_of(m), exact_path(split_of, m)
    assert typed_split(got) == typed_split(want)
    assert_rational(x for basis, label in got for v in basis for x in v.values())
    assert_rational(lam for _, label in got for lam in label)
    eigenvalues = {from_sym(x) for x in sym(rows).eigenvals()}
    assert [label[0] for _, label in got] == sorted(eigenvalues)


def test_rational_eigensplit_with_radical_eigenvalues():
    # [[0, 2], [1, 0]] (+) [3] has eigenvalues -sqrt(2), sqrt(2) and 3: the
    # split is over Q, so the factor x^2 - 2 has no root and the split refuses
    m = Mat(3, 3, {0: {1: 2}, 1: {0: 1}, 2: {2: 3}})
    assert poly_factors(min_poly(m)) == [([-3, 1], 3), ([-2, 0, 1], None)]
    with pytest.raises(linalg.CheckFailed, match="^minimal polynomial did not split over the field$"):
        split_of(m)


# -- polynomial factors against the earlier two root finders --------------------
#
# The factoriser replaced two routines, `poly_roots` (every root, and whether
# the polynomial split completely) and `poly_partial_factors` (pairwise-coprime
# factors), each over its own rational root search.  Both are kept below as
# references, less their search for quadratic and biquadratic roots in the
# multi-quadratic field: splitting is over Q now.


def ref_rational_roots(int_coeffs):
    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in reversed(small) if d * d != n]

    while int_coeffs and int_coeffs[-1] == 0:
        int_coeffs = int_coeffs[:-1]
    roots = []
    low = 0
    while low < len(int_coeffs) and int_coeffs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        int_coeffs = int_coeffs[low:]
    if len(int_coeffs) <= 1:
        return roots
    a0, an = int_coeffs[0], int_coeffs[-1]
    seen = set(roots)
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                acc = Fraction(0)
                for c in reversed(int_coeffs):
                    acc = acc * cand + c
                if acc == 0:
                    seen.add(cand)
                    roots.append(cand)
    return roots


def ref_divide_rational_roots(work):
    roots = []
    values = [rational_of(c) for c in work]
    if any(q is None for q in values):
        return roots, work
    denom = 1
    for q in values:
        denom = denom * q.denominator // gcd(denom, q.denominator)
    for r in ref_rational_roots([int(q * denom) for q in values]):
        rr = canonical(r)
        while len(work) > 1:
            quotient, remainder = _deflate(work, rr)
            if remainder:
                break
            roots.append(rr)
            work = quotient
    return roots, work


def ref_poly_roots(coeffs):
    work = list(coeffs)
    roots = []
    changed = True
    while len(work) > 1 and changed:
        found, work = ref_divide_rational_roots(work)
        roots.extend(found)
        changed = bool(found)
        if len(work) == 2:
            roots.append(-work[0])
            work = [1]
            changed = True
    roots.sort()
    return roots, len(work) == 1


def ref_poly_partial_factors(coeffs):
    factors = []
    found, work = ref_divide_rational_roots(list(coeffs))
    roots = {rr: found.count(rr) for rr in found}
    for rr, mult in sorted(roots.items()):
        factor = [1]
        for _ in range(mult):
            factor = _poly_mul(factor, [-rr, 1])
        factors.append(factor)
    if len(work) > 1:
        factors.append(work)
    return factors


def poly_product(polys):
    out = [1]
    for f in polys:
        out = [canonical(c) for c in _poly_mul(out, f)]
    return out


def check_factors_against_references(coeffs):
    """poly_factors(coeffs) against the earlier factoriser and root finder."""
    got = poly_factors(coeffs)
    factors = [f for f, _ in got]
    assert factors == ref_poly_partial_factors(coeffs)
    assert poly_product(factors) == coeffs
    for f, root in got:
        if root is not None:
            assert f == poly_product([[-root, 1]] * (len(f) - 1))
            assert type(root) is type(canonical(root))
    roots, complete = ref_poly_roots(coeffs)
    if complete:
        assert sorted(root for _, root in got) == sorted(set(roots))
    else:
        assert any(root is None for _, root in got)
    return got


R2 = sqrt_rational(2)
# (x - r)^k, x^2 - d, x^2 + 1, (x^2 - 2)(x^2 - 3), and (x - sqrt 2)^k, whose
# radical coefficients leave nothing to the rational root search; all but the
# first have no rational root, so each stays one factor, rootless if not linear
poly_factor_draws = st.one_of(
    st.tuples(st.fractions(-3, 3, max_denominator=3), st.integers(1, 3)).map(
        lambda rk: [[-canonical(rk[0]), 1]] * rk[1]
    ),
    st.sampled_from([2, 3, 5, 6]).map(lambda d: [[-d, 0, 1]]),
    st.just([[1, 0, 1]]),
    st.just([[-2, 0, 1], [-3, 0, 1]]),
    st.integers(1, 2).map(lambda k: [[-R2, 1]] * k),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(poly_factor_draws, min_size=1, max_size=3))
def test_poly_factors_match_the_earlier_root_finders(draws):
    check_factors_against_references(poly_product([f for fs in draws for f in fs]))


@pytest.mark.parametrize(
    "draw",
    [[[-d, 0, 1]] for d in (2, 3, 5, 6)] + [[[1, 0, 1]], [[-2, 0, 1], [-3, 0, 1]], [[-R2, 1]] * 2],
)
def test_poly_factors_leave_irrational_roots_whole(draw):
    coeffs = poly_product(draw)
    assert check_factors_against_references(coeffs) == [(coeffs, None)]


def test_rational_roots_of_large_prime_constant():
    got = check_factors_against_references([-1000000007, 1])
    assert got == [([-1000000007, 1], 1000000007)] and type(got[0][1]) is int


def test_rational_roots_order():
    # (x - 1)(x + 1)(x - 3/2)(x - 6) = x^4 - 15/2 x^3 + 8 x^2 + 15/2 x - 9
    coeffs = [-9, Fraction(15, 2), 8, Fraction(-15, 2), 1]
    got = check_factors_against_references(coeffs)
    assert [root for _, root in got] == [-1, 1, Fraction(3, 2), 6]


# -- certified elimination modulo a prime against sympy and the exact path -------


def exact_kernel_and_basis(vecs, ncols):
    """kernel and Subspace basis by exact elimination alone."""
    return exact_path(kernel, vecs, ncols), exact_path(Subspace, ncols, vecs).basis


# entries past the reconstruction bound, whose reduced rows the prime alone
# cannot rebuild: these must fall back, or be certified only when right
large = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(-(10**6), 10**6, max_denominator=10**6),
    st.sampled_from([linalg._P, 2 * linalg._P, Fraction(1, linalg._P)]),
)


@FAST
@given(matrices(6, 7, st.one_of(scalars, scalars, large).map(canonical)))
def test_certified_kernel_and_subspace_match_sympy_and_exact(rows):
    ncols = len(rows[0])
    vecs = rational_vecs(rows)
    ker, basis = kernel(vecs, ncols), Subspace(ncols, vecs).basis
    want_ker, want_basis = exact_kernel_and_basis(vecs, ncols)
    assert typed(ker) == typed(want_ker)
    assert typed(basis) == typed(want_basis)

    def dense(v):
        return [v.get(i, 0) for i in range(ncols)]

    assert [dense(v) for v in ker] == [
        [from_sym(x) for x in v] for v in sym(rows).nullspace()
    ]
    reduced, pivots = sym(rows).rref()
    assert [dense(b) for b in basis] == [
        [from_sym(x) for x in reduced.row(i)] for i in range(len(pivots))
    ]


@pytest.mark.parametrize(
    "rows",
    [
        [[7, 1]],  # the pivot is 0 mod 7: the rank mod 7 is right, the pivot not
        [[1, 1], [1, 8]],  # rank 2, but rank 1 mod 7
        [[Fraction(1, 7), 1], [0, 3]],  # a denominator divisible by 7
        [[1, 2]],  # 2 mod 7 has no rebuild within the bound 1
        [[1, 8]],  # 8 mod 7 rebuilds as 1, which the check refuses
        # rank 3, but the last row is 8 * row 0 + row 1 mod 7, zero at column 2
        # where that combination is 7: only the zero entry tells
        [[1, 0, 1], [0, 1, -1], [8, 1, 0]],
    ],
)
def test_unlucky_prime_falls_back_to_the_exact_answer(monkeypatch, rows):
    ncols = len(rows[0])
    vecs = rational_vecs(rows)
    want_ker, want_basis = exact_kernel_and_basis(vecs, ncols)
    monkeypatch.setattr(linalg, "_P", 7)
    monkeypatch.setattr(linalg, "_BOUND", 1)
    assert linalg._certified_rref(vecs) is None
    assert typed(kernel(vecs, ncols)) == typed(want_ker)
    assert typed(Subspace(ncols, vecs).basis) == typed(want_basis)
    # the small prime itself works: a system it can rebuild is certified
    assert linalg._certified_rref([{0: 1, 1: -1}, {1: 1}]) == {0: {0: 1}, 1: {1: 1}}


def test_radical_data_takes_the_exact_path():
    assert linalg._certified_rref([{0: 1}, {1: sqrt_rational(2)}]) is None
    # a rational value built as a SqrtNumber is an int, and is certified
    one = SqrtNumber.from_terms([(1, 1)])
    assert linalg._certified_rref([{0: one}]) == {0: {0: 1}}
    r2 = sqrt_rational(2)
    assert linalg._certified_rref([{0: r2 * r2, 1: r2 / r2}]) == {0: {0: 1, 1: Fraction(1, 2)}}


def record_rref_inputs(monkeypatch, runs):
    """The inputs and results of every certified elimination of the oracle runs."""
    seen = []
    certified = linalg._certified_rref

    def record(vecs):
        rows = certified(vecs)
        seen.append(([dict(v) for v in vecs], rows))
        return rows

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_certified_rref", record)
        for tag, n in runs:
            seminormal.regular_decompose(tag, n)
    return seen


def test_oracle_kernels_are_certified(monkeypatch):
    # a silent fallback to the exact path would only show as lost speed
    seen = record_rref_inputs(monkeypatch, [("A", 4), ("CA", 3)])
    assert seen and all(rows is not None for _, rows in seen)


def test_oracle_kernels_and_subspaces_match_exact(monkeypatch):
    seen = record_rref_inputs(monkeypatch, [("A", n) for n in range(1, 6)] + [
        ("CA", n) for n in range(1, 5)
    ])
    # the oracle's data is rational at every size, so every elimination is certified
    for vecs, rows in seen:
        assert not any(isinstance(x, SqrtNumber) for v in vecs for x in v.values())
        assert rows is not None
    for vecs, _ in seen:
        ncols = 1 + max((i for v in vecs for i in v), default=0)
        want_ker, want_basis = exact_kernel_and_basis(vecs, ncols)
        assert typed(kernel(vecs, ncols)) == typed(want_ker)
        assert typed(Subspace(ncols, vecs).basis) == typed(want_basis)


def test_centralizer_examples():
    units = [Mat(2, 2, {r: {c: 1}}) for r in range(2) for c in range(2)]
    assert linalg.centralizer(units, (), linalg.vecize) == units
    # x z = -z x for z = diag(1, -1): the off-diagonal units, in basis order
    z = Mat(2, 2, {0: {0: 1}, 1: {1: -1}})
    anti = linalg.centralizer(units, [z], linalg.vecize, lambda g: -g)
    assert anti == [units[1], units[2]]


def test_only_linalg_names_echelon():
    # outside linalg a span is a Subspace or a closure, never a raw Echelon,
    # a minimal-polynomial split is linalg.coprime_split, and a solve in a
    # span is linalg.centralizer; gradedstruct's module_commutant alone forms
    # its own kernel, over matrix entries
    package = Path(__file__).resolve().parent.parent / "src" / "superspin"
    for name, owners in [
        ("Echelon", ["linalg.py"]),
        ("min_poly", ["linalg.py"]),
        ("poly_factors", ["linalg.py"]),
        ("kernel", ["gradedstruct.py", "linalg.py"]),
    ]:
        named = [p.name for p in sorted(package.glob("*.py")) if name in p.read_text()]
        assert named == owners, name


def test_every_private_definition_is_referenced():
    # a private function, class or method defined in a module is named, or
    # reached as an attribute, somewhere in the package: none is left for the
    # tests alone
    package = Path(__file__).resolve().parent.parent / "src" / "superspin"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert defined
    assert sorted(f"{mod}:{name}" for mod, name in defined if name not in referenced) == []


def test_no_import_inside_a_function():
    # every module imports at its top, so its header shows all it depends on
    package = Path(__file__).resolve().parent.parent / "src" / "superspin"
    found = set()
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(found) == []


def _tracer_targets():
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_module_level_import_is_used():
    # a name a module imports is used in it, re-exported in its __all__, or
    # a benchmark tracer target that the module reaches through the import
    package = Path(__file__).resolve().parent.parent / "src" / "superspin"
    traced = {(f"{mod}.py", path) for mod, path, _name, _kind in _tracer_targets()}
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]: node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name: node.lineno for a in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used | exported and (path.name, name) not in traced
        ]
    assert sorted(unused) == []
