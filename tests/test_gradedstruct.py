import pytest

from superspin import gradedstruct as gs
from superspin import linalg
from superspin import spinalg as sa
from superspin.exactnum import SqrtNumber
from superspin.linalg import Echelon, Mat


def regular_algebra(n):
    # the +-1 entries come from the public SqrtNumber constructor, which
    # returns them as ints by the scalar rule
    ctx = sa.context(n)
    N = len(ctx.perms)
    gens = []
    for g in range(1, n):
        rows = {}
        for p in range(N):
            s, q = ctx.left_mul_gen(g, p)
            rows.setdefault(q, {})[p] = SqrtNumber.from_terms([(1, s)])
        gens.append((f"tau_{g}", Mat(N, N, rows)))
    return gs.GradedMatrixAlgebra(N, tuple(ctx.parity), gens)


def vecize(m):
    return {r * m.ncols + c: v for r, row in m.rows.items() for c, v in row.items()}


def test_homogeneity_enforced():
    bad = Mat(2, 2, {0: {0: 1, 1: 1}})
    with pytest.raises(ValueError):
        gs.GradedMatrixAlgebra(2, (0, 1), [("bad", bad)])


def test_restrict_keeps_labels_within_one_block():
    mod = gs.GradedMatrixAlgebra(3, (0, 0, 1), [("one", Mat.identity(3))], labels=("a", "b", "b"))
    lines = linalg.Subspace(3, [{2: 1}, {0: 1}])
    # the even unknowns are the entries between equal labels of equal parity
    assert gs.module_commutant(mod, 0) == [Mat(3, 3, {i: {i: 1}}) for i in range(3)]
    assert mod.restrict(lines).labels == ("a", "b")
    with pytest.raises(linalg.CheckFailed, match="spans two labelled blocks"):
        mod.restrict(linalg.Subspace(3, [{0: 1, 1: 1}]))


def test_supercommutant_examples():
    # Schur: the full graded matrix algebra has scalar supercommutant
    assert len(gs.supercommutant(gs.m_algebra(1, 1))) == 1
    # Q(1) on its standard module: dimension 2 with an odd square-scalar element
    sc = gs.supercommutant(gs.q_algebra(1))
    assert len(sc) == 2
    odd = [
        x
        for x in sc
        if gs.matrix_parity(x, (0, 1)) == 1
    ]
    assert len(odd) == 1
    sq = odd[0] * odd[0]
    assert sq == Mat.scalar(2, sq.entry(0, 0)) and sq.entry(0, 0)


def test_double_supercommutant():
    q1 = gs.q_algebra(1)
    prime = gs.supercommutant(q1)
    algp = gs.GradedMatrixAlgebra(
        q1.dim, q1.parity, [(f"x{i}", m) for i, m in enumerate(prime)]
    )
    second = gs.supercommutant(algp)
    e1, e2 = Echelon(), Echelon()
    for m in gs.span_closure(q1.generator_mats()):
        e1.add(vecize(m))
    for m in second:
        e2.add(vecize(m))
    assert e1.rank == e2.rank
    assert all(e1.contains(vecize(m)) for m in second)


def _span_closure_reference(gens):
    # the breadth-first loop that span_closure replaced with linalg.closure
    gens = [g for g in gens if not g.is_zero()]
    ech = Echelon()
    basis, queue = [], []
    for g in gens:
        if ech.add(vecize(g)):
            basis.append(g)
            queue.append(g)
    while queue:
        m = queue.pop(0)
        for g in gens:
            prod = m * g
            if not prod.is_zero() and ech.add(vecize(prod)):
                basis.append(prod)
                queue.append(prod)
    return basis


def test_span_closure_matches_the_reference_loop():
    for alg in (regular_algebra(3), regular_algebra(4), gs.q_algebra(2)):
        gens = alg.generator_mats()
        assert gs.span_closure(gens) == _span_closure_reference(gens)


def test_classify_module_examples():
    assert gs.classify_module(gs.m_algebra(2, 1))["kind"] == "M"
    assert gs.classify_module(gs.m_algebra(2, 1))["params"] == (2, 1)
    q = gs.classify_module(gs.q_algebra(2))
    assert q["kind"] == "Q" and q["params"] == 2


def direct_sum(a, b):
    """Block-diagonal sum of two modules with the same generator names."""
    gens = []
    for (name, ga), (_, gb) in zip(a.generators, b.generators):
        rows = {r: dict(row) for r, row in ga.rows.items()}
        for r, row in gb.rows.items():
            rows[a.dim + r] = {a.dim + c: v for c, v in row.items()}
        gens.append((name, Mat(a.dim + b.dim, a.dim + b.dim, rows)))
    return gs.GradedMatrixAlgebra(a.dim + b.dim, a.parity + b.parity, gens)


def parity_shift(a):
    return gs.GradedMatrixAlgebra(a.dim, tuple(1 - p for p in a.parity), a.generators)


@pytest.mark.parametrize(
    "dsum, dims",
    [
        (direct_sum(gs.m_algebra(2, 1), parity_shift(gs.m_algebra(2, 1))), (2, 2)),
        (direct_sum(gs.m_algebra(1, 1), gs.m_algebra(1, 1)), (4, 0)),
        (direct_sum(gs.q_algebra(1), gs.q_algebra(1)), (4, 4)),
    ],
    ids=["M21+PiM21", "M11+M11", "Q1+Q1"],
)
def test_reducible_sum_with_fused_pattern(dsum, dims):
    # each sum has the supercommutant dimensions of a fused irreducible, but
    # its even commutant splits, so it is not typed as one
    out = gs.classify_module(dsum)
    assert out["supercommutant_dims"] == dims
    assert out["kind"] == "reducible"
    assert len(gs.split_into_irreducibles(dsum)) == 2


def j_module(c):
    """Q^2 with one even generator J = [[0, c], [1, 0]], so J^2 = c."""
    return gs.GradedMatrixAlgebra(2, (0, 0), [("j", Mat(2, 2, {0: {1: c}, 1: {0: 1}}))])


def test_split_over_q_refuses_an_irrational_commutant():
    # J^2 = 2: the commutant Q(sqrt 2) is a field, as x^2 - 2 has no root in
    # Q, but no real division algebra, since J has trace 0 and J^2 = 2 > 0
    jmod = j_module(2)
    refusal = "^could not split module over Q "
    with pytest.raises(linalg.CheckFailed, match=refusal):
        gs.split_into_irreducibles(jmod)
    with pytest.raises(linalg.CheckFailed, match=refusal):
        gs.classify_module(gs.graded_tensor(gs.q_algebra(1), jmod))
    # J^2 = -2: the commutant Q(sqrt -2) is complex, the fused antipodal pair
    rotation = j_module(-2)
    assert gs.split_into_irreducibles(rotation) == [rotation]
    out = gs.classify_module(gs.graded_tensor(gs.q_algebra(1), rotation))
    assert (out["kind"], out["params"], out["pattern"]) == ("M", (1, 1), "antipodal_pair")


def test_decompose_regular_representations():
    rep3 = gs.decompose_semisimple(regular_algebra(3))
    assert rep3.summary() == [("Q", 1), ("M", (1, 1))]
    assert rep3.total_block_dim() == 6
    rep4 = gs.decompose_semisimple(regular_algebra(4))
    assert rep4.summary() == [("Q", 2), ("M", (2, 2))]
    assert rep4.total_block_dim() == 24
    # idempotents are orthogonal and sum to the identity
    blocks = rep4.sorted_blocks()
    total = Mat.zero(24)
    for b in blocks:
        assert b.idempotent * b.idempotent == b.idempotent
        total = total + b.idempotent
    assert total == Mat.identity(24)
    assert (blocks[0].idempotent * blocks[1].idempotent).is_zero()


@pytest.mark.parametrize(
    "alg_dim, even_dim, btype, params",
    [(1, 1, "M", (1, 0)), (2, 1, "Q", 1), (16, 8, "M", (2, 2)), (32, 16, "Q", 4)],
)
def test_simple_block_reads_the_type_off_the_dimension(alg_dim, even_dim, btype, params):
    # M(r, s) has dimension (r + s)^2, Q(q) has 2 q^2, never a square
    block = gs.simple_block(alg_dim, even_dim)
    assert (block.btype, block.params, block.dimension) == (btype, params, alg_dim)


@pytest.mark.parametrize(
    "alg_dim, even_dim, message",
    [(8, 3, "Q-block"), (2, 2, "Q-block"), (9, 4, "M-block")],
)
def test_simple_block_refuses_inconsistent_dimensions(alg_dim, even_dim, message):
    with pytest.raises(linalg.CheckFailed, match=f"inconsistent {message} dimensions"):
        gs.simple_block(alg_dim, even_dim)


def test_decompose_single_block():
    rep = gs.decompose_semisimple(gs.m_algebra(1, 0))
    assert rep.summary() == [("M", (1, 0))]


def test_graded_tensor_identities():
    adj = gs.tensor_formula_adjudication()
    assert adj["classifications"]["Q1xQ1"] == ("M", (1, 1))
    assert adj["classifications"]["M11xQ2"] == ("Q", 4)
    assert adj["classifications"]["M11xM11"] == ("M", (2, 2))
    assert adj["selected_variant"] == "corrected"


def test_graded_tensor_associative_up_to_blocks():
    a, b, c = gs.q_algebra(1), gs.m_algebra(1, 1), gs.q_algebra(1)
    left = gs.decompose_semisimple(gs.graded_tensor(gs.graded_tensor(a, b), c))
    right = gs.decompose_semisimple(gs.graded_tensor(a, gs.graded_tensor(b, c)))
    assert left.summary() == right.summary()


def test_adjoin_epsilon():
    # trivial grading: C[eps] = C + C
    trivial = gs.GradedMatrixAlgebra(1, (0,), [("one", Mat(1, 1, {0: {0: 1}}))])
    assert len(gs.decompose_semisimple(gs.adjoin_epsilon(trivial)).blocks) == 2
    # Q(1)[eps] is the full 2x2 matrix algebra: a single block
    assert len(gs.decompose_semisimple(gs.adjoin_epsilon(gs.q_algebra(1))).blocks) == 1
    # simple-module count of A[eps] = 2 #M + #Q.  Over the real field the two
    # modules of an M pair can be conjugate-fused, so the count is read off
    # the center dimension (stable under scalar extension) rather than by
    # splitting central idempotents.
    for n in (3, 4):
        an = regular_algebra(n)
        base = gs.decompose_semisimple(an)
        m_count = sum(1 for b in base.blocks if b.btype == "M")
        q_count = sum(1 for b in base.blocks if b.btype == "Q")
        eps = gs.adjoin_epsilon(an)
        span = gs.span_closure(eps.generator_mats())
        ev, od = gs.center_of_span(span, eps.generator_mats(), eps.parity)
        assert len(ev) + len(od) == 2 * m_count + q_count


def test_graded_centralizer():
    a3 = regular_algebra(3)
    z = gs.graded_centralizer(a3, a3.generator_mats())
    # graded center of the rank-3 algebra: dim 3 (= dim Z(A_0))
    assert len(z["basis"]) == 3 and z["is_commutative"]
    a4 = regular_algebra(4)
    z43 = gs.graded_centralizer(a4, a4.generator_mats()[:2])
    assert z43["is_commutative"]
    # Z(A,B) has the dimension of Z(A_0, B_0)
    spin_dim = len(sa.graded_centralizer_spin(4, 3)[0])
    assert len(z43["basis"]) == spin_dim
    outside = Mat(6, 6, {0: {0: 1}})  # a matrix unit is not in the image
    with pytest.raises(ValueError):
        gs.graded_centralizer(a3, [outside])


# the solves that center_of_span and graded_centralizer replaced with
# linalg.centralizer: a kernel over the homogeneous parts of the span, and a
# kernel over the whole span with its odd parts forced to vanish


def _vanishing_combinations(mats):
    rows = {}
    for i, m in enumerate(mats):
        for r, row in m.rows.items():
            for c, v in row.items():
                rows.setdefault((r, c), {})[i] = v
    return list(rows.values())


def _combine(mats, coeffs, dim):
    out = Mat.zero(dim)
    for i, c in coeffs.items():
        out = out + mats[i].scale(c)
    return out


def _center_of_span_reference(span, gens, parity):
    parts = (part for b in span for part in gs.parity_parts(b, parity))
    homog = linalg.closure(parts, (), vecize)
    constraints = []
    for g in gens:
        constraints.extend(_vanishing_combinations([b * g - g * b for b in homog]))
    even_out, odd_out = [], []
    dim = homog[0].nrows if homog else 0
    for sol in linalg.kernel(constraints, len(homog)):
        m = _combine(homog, sol, dim)
        (even_out if gs.matrix_parity(m, parity) == 0 else odd_out).append(m)
    return even_out, odd_out


def _graded_centralizer_reference(a, b_generators):
    span = gs.span_closure(a.generator_mats())
    oddity = _vanishing_combinations([gs.parity_parts(m, a.parity)[1] for m in span])
    solutions = []
    for twisted in (False, True):
        constraints = []
        for bg in b_generators:
            tb = gs.theta(bg, a.parity) if twisted else bg
            constraints.extend(_vanishing_combinations([m * bg - tb * m for m in span]))
        sols = linalg.kernel(constraints + oddity, len(span))
        solutions.extend(_combine(span, sol, a.dim) for sol in sols)
    return linalg.closure(solutions, (), vecize)


def test_centralizer_solves_match_the_reference_kernels():
    algebras = [
        regular_algebra(3),
        regular_algebra(4),
        gs.adjoin_epsilon(regular_algebra(3)),
        gs.graded_tensor(gs.m_algebra(1, 1), gs.q_algebra(2)),
        gs.m_algebra(2, 1),
    ]
    for alg in algebras:
        gens = alg.generator_mats()
        span = gs.span_closure(gens)
        # center_of_span solves over the span itself, which is homogeneous
        assert all(gs.matrix_parity(m, alg.parity) is not None for m in span)
        assert gs.center_of_span(span, gens, alg.parity) == _center_of_span_reference(
            span, gens, alg.parity
        )
        for b_gens in (gens, gens[:2]):
            got = gs.graded_centralizer(alg, b_gens)["basis"]
            want = _graded_centralizer_reference(alg, b_gens)
            assert len(got) == len(want)
            assert linalg.Subspace(alg.dim**2, [vecize(m) for m in got]).basis == (
                linalg.Subspace(alg.dim**2, [vecize(m) for m in want]).basis
            )


def test_regular_algebra_reaches_the_certified_path(monkeypatch):
    # the algebra's data is rational by value, so every kernel and subspace
    # elimination of its decomposition must be certified modulo the prime
    results = []
    certified = linalg._certified_rref

    def record(vecs):
        results.append(certified(vecs))
        return results[-1]

    monkeypatch.setattr(linalg, "_certified_rref", record)
    rep = gs.decompose_semisimple(regular_algebra(4))
    assert rep.summary() == [("Q", 2), ("M", (2, 2))]
    assert results and all(rows is not None for rows in results)


def test_grading_independence_of_semisimplicity():
    # the nongraded simple-component count is the full center dimension; each
    # Q block contributes two nongraded components, each M block one.  (The
    # center dimension is stable under scalar extension, while an idempotent
    # split over the real field can fuse conjugate components, e.g. at n=4.)
    for n in (3, 4, 5):
        alg = regular_algebra(n)
        graded = gs.decompose_semisimple(alg)
        m_count = sum(1 for b in graded.blocks if b.btype == "M")
        q_count = sum(1 for b in graded.blocks if b.btype == "Q")
        span = gs.span_closure(alg.generator_mats())
        ev, od = gs.center_of_span(span, alg.generator_mats(), alg.parity)
        assert len(ev) == m_count + q_count
        assert len(od) == q_count
        assert len(ev) + len(od) == m_count + 2 * q_count
        assert graded.total_block_dim() == alg.dim


def test_block_report_json():
    rep = gs.decompose_semisimple(regular_algebra(3))
    obj = rep.to_json()
    assert obj["schema"] == "superspin/1"
    assert len(obj["blocks"]) == 2
    assert obj["blocks"][0]["type"] == "Q"
    assert obj["blocks"][0]["idempotent"] is not None
