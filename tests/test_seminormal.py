import ast
import contextlib
import io
import json
import operator
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from superspin import cli, gradedstruct, linalg
from superspin import seminormal as sn
from superspin import shiftedcomb as sc
from superspin import spinalg
from superspin.exactnum import SqrtNumber, rational_of, scalar_json
from superspin.linalg import CheckFailed, Mat
from superspin.shiftedcomb import StrictPartition, strict_partitions


def shapes_up_to(n):
    return [s for k in range(1, n + 1) for s in strict_partitions(k)]


def test_clifford_module_relations():
    for m in range(0, 10):
        dim, gens, parity = sn.clifford_module(m)
        assert len(gens) == m
        for i, e in enumerate(gens):
            assert e * e == Mat.identity(dim)
            for j in range(i + 1, m):
                assert (e * gens[j] + gens[j] * e).is_zero()
            for r, row in e.rows.items():
                for c in row:
                    assert (parity[r] + parity[c]) % 2 == 1


_X2 = [[0, 1], [1, 0]]
_Z2 = [[1, 0], [0, -1]]
_Y2 = [[0, -1], [1, 0]]
_I2 = [[1, 0], [0, 1]]


def _kron(blocks):
    out = [[1]]
    for b in blocks:
        out = [[x * y for x in ra for y in rb] for ra in out for rb in b]
    return out


def test_clifford_module_is_a_kronecker_product():
    # generators 2j-1 and 2j are Z^(j-1) (X or Y) I^(k-j) on the k paired
    # slots, then I or Y on the realification slot; one generator is X alone
    for m in range(0, 15):
        k = (m + 1) // 2
        if m == 1:
            blocks, slots = [[_X2]], 1
        else:
            blocks, slots = [], (k + 1 if m else 0)
            for j in range(1, k + 1):
                pre, post = [_Z2] * (j - 1), [_I2] * (k - j)
                blocks += [pre + [_X2] + post + [_I2], pre + [_Y2] + post + [_Y2]]
        dim, gens, parity = sn.clifford_module(m)
        assert dim == 2**slots
        dense = [[[g.entry(r, c) for c in range(dim)] for r in range(dim)] for g in gens]
        assert dense == [_kron(b) for b in blocks[:m]]
        # odd on the paired slots; the realification slot, bit 0, is even
        real = 1 if m >= 2 else 0
        assert parity == tuple(bin(r >> real).count("1") % 2 for r in range(dim))


def _signed_perm_form(g, dim):
    """(f, c, k) with g sending r to r XOR f with sign (-1)^(popcount(r & c) + k),
    checked at every r."""
    ((f, s0),) = g.rows[0].items()
    c = sum(1 << b for b in range(dim.bit_length() - 1) if g.rows[1 << b][1 << b ^ f] != s0)
    k = 0 if s0 == 1 else 1
    for r in range(dim):
        assert g.rows[r] == {r ^ f: (-1) ** ((r & c).bit_count() + k)}
    return f, c, k


def test_clifford_module_is_faithful():
    # each generator is a signed permutation r -> r XOR f with sign
    # (-1)^(<r, c> + k), so word u is one with the XOR of its generators' f and
    # c.  Words with different f have disjoint supports, and words with the same
    # f differ by the character (-1)^<r, c>, so distinct (f, c) pairs make the
    # 2^m words linearly independent: expansion is injective.  Only the word 1
    # has (f, c) = (0, 0), so every other word has trace 0.
    for m in range(0, 15):
        dim, gens, _ = sn.clifford_module(m)
        forms = [_signed_perm_form(g, dim) for g in gens]
        flips, masks = [0], [0]
        for u in range(1, 1 << m):
            low = (u & -u).bit_length() - 1
            flips.append(flips[u & (u - 1)] ^ forms[low][0])
            masks.append(masks[u & (u - 1)] ^ forms[low][1])
            if m <= 6:  # the XOR rule against the composed word action
                action = sn._word_action(m, u)
                assert {r ^ c for r, c, _ in action} == {flips[u]}, (m, u)
                signs = {(-1) ** (r & masks[u]).bit_count() * s for r, c, s in action}
                assert len(signs) == 1, (m, u)
        assert len(set(zip(flips, masks))) == 1 << m, m


def test_build_and_verify_all_shapes():
    for shape in shapes_up_to(5):
        for builder in (sn.build_rep_plain, sn.build_rep_clifford_tensor):
            rep = builder(shape)
            report = sn.verify_relations(rep)
            assert all(r["status"] == "pass" for r in report), (shape, builder)
            assert rep.dim == len(rep.tableaux) * rep.block_dim


def test_variant_adjudication():
    rep = sn.build_rep_plain(StrictPartition((4, 2)))
    assert rep.build_report["case_iii_variant"] == "corrected"
    assert rep.build_report["variant_outcomes"]["printed"].startswith("fail")
    assert rep.build_report["variant_distinguishable"]
    rep31 = sn.build_rep_plain(StrictPartition((3, 1)))
    # with a zero member the two scalars coincide
    assert not rep31.build_report["variant_distinguishable"]
    assert rep31.build_report["variant_outcomes"]["printed"] == "pass"


def test_mutated_rep_fails():
    rep = sn.build_rep_plain(StrictPartition((3,)))
    report = sn.verify_relations(rep, sn.mutated_rep(rep))
    failures = [r for r in report if r["status"] == "fail"]
    assert failures and failures[0]["defect_norm"] > 0
    # the model itself is left as it was
    assert all(r["status"] == "pass" for r in sn.verify_relations(rep))


def _fails_with(value):
    return {"row": 0, "col": 0, "value": {"terms": [{"radicand": 1, "coeff": value}]}}


_BRAID_DEFECT = {"row": 0, "col": 2, "value": {"terms": [{"radicand": 3, "coeff": "1/1"}]}}


@pytest.mark.parametrize("parts, failures", [
    ((2,), [("tau_1^2 = 1", _fails_with("-2/1"))]),
    ((3,), [("tau_1^2 = 1", _fails_with("-2/1")),
            ("tau_1 tau_2 tau_1 = tau_2 tau_1 tau_2", _BRAID_DEFECT)]),
    ((3, 1), [("tau_1^2 = 1", _fails_with("-2/1")),
              ("tau_1 tau_2 tau_1 = tau_2 tau_1 tau_2", _BRAID_DEFECT),
              ("(tau_1 tau_3)^2 = -1", _fails_with("2/1"))]),
], ids=["2", "3", "3,1"])
def test_negative_control_fails_where_it_always_has(parts, failures):
    # the shapes of check-all's criterion 0.  The control flips a dense entry:
    # at (2,) tau_1 is one Clifford word, so flipping any factored coefficient
    # gives -tau_1, which passes every relation
    rep = sn.build_rep_plain(StrictPartition(parts))
    report = sn.verify_relations(rep, sn.mutated_rep(rep))
    assert [(r["identity"], r["first_defect"]) for r in report if r["status"] == "fail"] == failures
    if parts == (2,):
        (el,) = rep.generator("tau_1").blocks.values()
        assert len(el) == 1
        negated = [("tau_1", -rep.generator("tau_1"))]
        assert all(r["status"] == "pass" for r in sn.verify_relations(rep, negated))


def _dense_spectrum(rep):
    """`spectrum_of` by dense products on the expanded generators, with its
    three messages: the slow-path reference."""
    mod, w = rep.dense(), rep.block_dim
    pis = {1: Mat.zero(mod.dim)}
    avecs = [[] for _ in rep.tableaux]
    for i in range(1, rep.n + 1):
        pm = sn.yjm_matrix(mod.generator, i, pis)
        if any(r // w != c // w for r, row in pm.rows.items() for c in row):
            raise sn.RelationError(f"pi_{i} not block-diagonal")
        sq = pm * pm
        for t, avec in enumerate(avecs):
            val = sq.entry(t * w, t * w)
            block = range(t * w, (t + 1) * w)
            if any(sq.rows.get(r, {}) != ({r: val} if val else {}) for r in block):
                raise sn.RelationError(f"pi_{i}^2 not scalar on block {t}")
            a = rational_of(val)
            if a.__class__ is not int:
                raise sn.RelationError(f"pi_{i}^2 eigenvalue not an integer")
            avec.append(a)
    return sorted(map(tuple, avecs))


def _outcome(spectrum, rep):
    try:
        return spectrum(rep)
    except sn.RelationError as exc:
        return str(exc)


def _edited_tau1(builder, parts, edit):
    """The model of parts with tau_1 replaced by edit(tau_1), both factored."""
    rep = builder(StrictPartition(parts))
    (name, tau1), *rest = rep.generators
    return sn.GradedRep.new(rep.shape, rep.has_clifford, [(name, edit(tau1)), *rest])


def _rejected_as(model, message):
    """model's spectrum fails with message, and so does the dense reference."""
    assert _outcome(sn.spectrum_of, model) == message == _outcome(_dense_spectrum, model)


@pytest.mark.parametrize(
    "builder, parts",
    [(sn.build_rep_plain, (3, 1)), (sn.build_rep_clifford_tensor, (2, 1))],
)
def test_spectrum_rejects_mutated_model(builder, parts):
    # tau_1's first block is one word h; adding the odd word a b h, for two
    # other generators a and b, makes pi_2^2 = (h + a b h)^2 = 2 a b there
    def add_word(tau1):
        ((u, _),) = tau1.blocks[0, 0].items()
        a, b = [1 << i for i in range(tau1.m) if not u >> i & 1][:2]
        return tau1 + sn.CliffordMat(tau1.g, tau1.m, {(0, 0): {u | a | b: 1}})

    _rejected_as(_edited_tau1(builder, parts, add_word), "pi_2^2 not scalar on block 0")


def test_spectrum_rejects_off_block_pi():
    # one odd word of tau_1 = pi_2 joining blocks 0 and 1 of the two tableaux
    def join(tau1):
        return tau1 + sn.CliffordMat(tau1.g, tau1.m, {(0, 1): {1: 1}})

    _rejected_as(_edited_tau1(sn.build_rep_plain, (3, 1), join), "pi_2 not block-diagonal")


def test_spectrum_rejects_a_fractional_eigenvalue():
    # tau_1 / 2 = pi_2 / 2 squares to 1 / 4 on every block
    def halve(tau1):
        return tau1.scale(Fraction(1, 2))

    model = _edited_tau1(sn.build_rep_plain, (3, 1), halve)
    _rejected_as(model, "pi_2^2 eigenvalue not an integer")


def test_a_vectors_reject_a_fractional_eigenvalue():
    # the joint spectrum is not truncated to an a-vector of integers
    piece = linalg.Subspace.full(1)
    with pytest.raises(CheckFailed, match="^eigenvalue 5/2 not an integer$"):
        sn._a_vectors(piece, [Mat.scalar(1, Fraction(5, 2))])
    assert sn._a_vectors(piece, [Mat.scalar(1, 3), Mat.scalar(1, 0)]) == [(3, 0)]


def test_mutated_rep_has_its_own_pi():
    # pi_2 = tau_1, so the x_i relations of the mutated generators must use
    # their own pi_k even after the model's pi cache has been filled
    rep = sn.build_rep_clifford_tensor(StrictPartition((3,)))
    assert rep.pi(2).blocks == rep.generator("tau_1").blocks
    bad = sn.mutated_rep(rep)
    fresh = sn._construct(rep.shape, True, "corrected")  # nothing cached
    report = sn.verify_relations(rep, bad)
    assert report == sn.verify_relations(fresh, bad)
    assert any(r["identity"].startswith("x_") and r["status"] == "fail" for r in report)
    assert rep.pi(2).blocks == rep.generator("tau_1").blocks


def test_irreducible_summand_is_split_once(monkeypatch):
    calls = []
    split = sn.split_into_irreducibles

    def counting(mod):
        calls.append(mod.dim)
        return split(mod)

    monkeypatch.setattr(sn, "split_into_irreducibles", counting)
    rep = sn._construct(StrictPartition((3, 1)), False, "corrected")
    first = sn.first_summand(rep)[0]
    assert sn.first_summand(rep)[0] is first
    assert calls == [rep.dim]
    # branching reuses the summand and splits only its restriction
    sn.restrict_and_branch(rep)
    assert calls == [rep.dim, first.dim]


def test_mutated_rep_has_its_own_summand():
    rep = sn.build_rep_plain(StrictPartition((3,)))
    good = sn.first_summand(rep)[0]
    dense = rep.dense()
    mutated = gradedstruct.GradedMatrixAlgebra(dense.dim, dense.parity, sn.mutated_rep(rep))
    bad = min(sn.split_into_irreducibles(mutated), key=lambda p: (p.dim, p.parity))
    assert sn.first_summand(rep)[0] is good
    assert bad.generator("tau_1") != good.generator("tau_1")
    assert sn.classify_module(good)["pattern"] == "antipodal_pair"
    assert sn.classify_module(bad)["pattern"] == "single"


def test_spectrum_examples():
    assert sn.spectrum_of(sn.build_rep_plain(StrictPartition((3,)))) == [(0, 1, 3)]
    assert sn.spectrum_of(sn.build_rep_plain(StrictPartition((2, 1)))) == [(0, 1, 0)]
    assert sn.spectrum_of(sn.build_rep_plain(StrictPartition((3, 1)))) == [
        (0, 1, 0, 3),
        (0, 1, 3, 0),
    ]
    rep2 = sn.build_rep_clifford_tensor(StrictPartition((2,)))
    assert sn.spectrum_of(rep2) == [(0, 1)]


def test_spectrum_matches_tableaux():
    for shape in shapes_up_to(5):
        want = sorted(
            sc.spectrum_vector(t).a for t in sc.standard_tableaux(shape)
        )
        for builder in (sn.build_rep_plain, sn.build_rep_clifford_tensor):
            assert sn.spectrum_of(builder(shape)) == want


def test_classification_against_oracle():
    oracle = {}
    for n in (2, 3, 4, 5):
        for b in sn.regular_decompose("A", n).blocks:
            oracle[tuple(b.partition)] = (b.btype, b.params)
    for parts, want in oracle.items():
        cls = sn.classify_module(sn.first_summand(sn.build_rep_plain(StrictPartition(parts)))[0])
        assert (cls["kind"], cls["params"]) == want, parts


def test_fused_pair_over_real_field():
    # the shape (3) module is complex-type: its minimal field model is the
    # fused antipodal pair of the M(1,1) module, with dims twice the complex
    # module and supercommutant pattern (2, 2)
    irr = sn.first_summand(sn.build_rep_plain(StrictPartition((3,))))[0]
    cls = sn.classify_module(irr)
    assert irr.dim == 4
    assert cls == {
        "kind": "M",
        "params": (1, 1),
        "pattern": "antipodal_pair",
        "complex_count": 2,
        "supercommutant_dims": (2, 2),
    }


def test_q_module_ungraded_split():
    # the (2,1) module is Q(1): 1-dimensional ungraded pieces with tau_i = +-1
    from superspin.linalg import kernel

    # the generic route, on the dense module, so that irr carries the dense tau's
    rep = sn.build_rep_plain(StrictPartition((2, 1)))
    irr = min(sn.split_into_irreducibles(rep.dense()), key=lambda p: (p.dim, p.parity))
    assert irr.dim == 2
    t1, t2 = irr.generator("tau_1"), irr.generator("tau_2")
    assert t1 == t2  # forced by pi_3 = 0 on this module
    assert t1 * t1 == Mat.identity(2)
    for sign in (1, -1):
        shifted = t1 - Mat.identity(2).scale(
            Mat.identity(1).entry(0, 0) if sign > 0 else -Mat.identity(1).entry(0, 0)
        )
        assert kernel(list(shifted.rows.values()), 2), sign


def test_intertwiner_examples():
    rep = sn.build_rep_clifford_tensor(StrictPartition((3, 1)))
    P3 = sn.intertwiner_p(3, rep)
    w = rep.block_dim
    # maps each block into its transposed partner
    for t in range(2):
        touched = {
            r // w
            for c in range(t * w, (t + 1) * w)
            for r in P3.cols().get(c, {})
        }
        assert touched == {1 - t}
    pi = {k: rep.pi(k).expand() for k in range(1, 5)}
    p = {k: rep.generator(f"p_{k}").expand() for k in range(1, 5)}
    assert ((pi[3] * pi[3]) * P3 - P3 * (pi[4] * pi[4])).is_zero()
    for i, si in [(1, 1), (2, 2), (3, 4), (4, 3)]:
        assert (P3 * pi[i] - pi[si] * P3).is_zero()
        assert (P3 * p[i] - p[si] * P3).is_zero()
    with pytest.raises(ValueError):
        sn.intertwiner_p(1, sn.build_rep_plain(StrictPartition((3, 1))))


def test_intertwiner_braid_well_defined():
    # the product of intertwiners along a reduced admissible word is
    # independent of the word: braid and far commutation hold as matrices
    rep = sn.build_rep_clifford_tensor(StrictPartition((3, 2)))
    ps = {i: sn.intertwiner_p(i, rep) for i in range(1, 5)}
    for i in range(1, 4):
        assert (ps[i] * ps[i + 1] * ps[i] - ps[i + 1] * ps[i] * ps[i + 1]).is_zero()
    for i in range(1, 5):
        for j in range(i + 2, 5):
            assert (ps[i] * ps[j] - ps[j] * ps[i]).is_zero()


def test_analyze_local_pair():
    rep3 = sn.build_rep_plain(StrictPartition((3,)))
    out = sn.analyze_local_pair(rep3, 1)
    assert len(out) == 1
    an = out[0]
    assert an.case == "fused" and an.delta == 0 and an.pair == (0, 1)
    assert an.ratio_action_matches
    rep31 = sn.build_rep_plain(StrictPartition((3, 1)))
    split3 = sn.analyze_local_pair(rep31, 3)
    assert all(a.case == "split" for a in split3)
    assert {a.partner_block for a in split3} == {0, 1}
    fused2 = sn.analyze_local_pair(rep31, 2)
    assert all(a.case == "fused" for a in fused2)
    assert {a.pair for a in fused2} == {(1, 3), (1, 0)}


def test_restrict_and_branch_examples():
    out = sn.restrict_and_branch(sn.build_rep_plain(StrictPartition((3,))))
    assert len(out) == 1
    assert out[0]["shape"].parts == (2,)
    assert out[0]["type"] == "Q" and out[0]["multiplicity"] >= 1
    out = sn.restrict_and_branch(sn.build_rep_plain(StrictPartition((3, 1))))
    assert {e["shape"].parts for e in out} == {(3,), (2, 1)}
    out = sn.restrict_and_branch(sn.build_rep_plain(StrictPartition((2,))))
    assert out[0]["shape"].parts == (1,) and out[0]["type"] == "M"
    with pytest.raises(ValueError):
        sn.restrict_and_branch(sn.build_rep_plain(StrictPartition((1,))))


def test_branching_supports_match_covers():
    for n in (3, 4, 5):
        for shape in strict_partitions(n):
            out = sn.restrict_and_branch(sn.build_rep_plain(shape))
            got = {e["shape"].parts for e in out}
            want = {c.parts for c in shape.covers()}
            assert got == want, shape
            assert all(e["multiplicity"] == 1 for e in out)


def test_branching_graph_from_reps_matches():
    for n in (2, 3, 4):
        g1 = sc.schur_branching_graph(n)
        g2 = sn.branching_graph_from_reps(n)
        g2.validate()
        assert set(g1.vertices) == set(g2.vertices)
        assert g1.edges == g2.edges
        assert g1.orbit_edge_support() == g2.orbit_edge_support()


def test_regular_decompose_examples():
    rep3 = sn.regular_decompose("A", 3)
    assert [(b.btype, b.params) for b in rep3.sorted_blocks()] == [
        ("Q", 1),
        ("M", (1, 1)),
    ]
    assert [b.spectrum for b in rep3.sorted_blocks()] == [
        [(0, 1, 0)],
        [(0, 1, 3)],
    ]
    rep4 = sn.regular_decompose("A", 4)
    assert rep4.total_block_dim() == 24
    assert [(b.btype, b.params) for b in rep4.sorted_blocks()] == [
        ("Q", 2),
        ("M", (2, 2)),
    ]
    rep5 = sn.regular_decompose("A", 5)
    assert len(rep5.blocks) == 3 and rep5.total_block_dim() == 120
    repc3 = sn.regular_decompose("CA", 3)
    assert repc3.algebra_dim == 48
    assert [(b.btype, b.params) for b in repc3.sorted_blocks()] == [
        ("M", (2, 2)),
        ("Q", 4),
    ]
    with pytest.raises(ValueError, match="n <= 5 for the plain"):
        sn.regular_decompose("A", 6)
    with pytest.raises(ValueError, match="n <= 4 for the Clifford-extended"):
        sn.regular_decompose("CA", 5)
    for tag in ("A_n", "plain", "clifford_tensor_A_n", "tensor"):
        with pytest.raises(ValueError, match="unknown algebra tag"):
            sn.regular_decompose(tag, 3)


def test_regular_idempotents():
    rep = sn.regular_decompose("A", 4)
    total = Mat.zero(24)
    for b in rep.blocks:
        assert b.idempotent * b.idempotent == b.idempotent
        total = total + b.idempotent
    assert total == Mat.identity(24)


def test_empirical_type_matches_conjecture():
    for n in range(2, 7):
        for shape in strict_partitions(n):
            assert sn.empirical_type(shape) == sc.conjectured_type(shape), shape


def test_graded_rep_json_roundtrip():
    for shape in shapes_up_to(4):
        for builder in (sn.build_rep_plain, sn.build_rep_clifford_tensor):
            rep = builder(shape)
            obj = rep.to_json()
            assert obj["schema"] == "superspin/2"
            back = sn.GradedRep.from_json(obj)
            assert back.document() == rep.document(), (shape, builder)
            assert sn.spectrum_of(back) == sn.spectrum_of(rep)


def test_only_graded_rep_new_makes_a_model():
    # built, loaded and mutated models all come from GradedRep.new: nothing else
    # in the package calls GradedRep(...), GradedRep's cls(...) or a dataclass replace
    package = Path(sn.__file__).resolve().parent
    found = []

    def visit(node, scope, path):
        if isinstance(node, ast.Call) and scope != ["GradedRep", "new"]:
            callee = ast.unparse(node.func)
            if callee in ("GradedRep", "replace", "dataclasses.replace") or (
                callee == "cls" and scope[:1] == ["GradedRep"]
            ):
                found.append(f"{path.name}:{node.lineno}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path)
    assert found == []


def test_size_limits():
    with pytest.raises(ValueError):
        sn.build_rep_plain(StrictPartition((8,)))


def test_pi_anticommutation_in_matrices():
    rep = sn.build_rep_plain(StrictPartition((3, 1)))
    pis = [rep.pi(k).expand() for k in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert (pis[i] * pis[j] + pis[j] * pis[i]).is_zero()


def test_large_instance_smoke():
    import time

    start = time.time()
    rep = sn.build_rep_plain(StrictPartition((4, 2, 1)))
    report = sn.verify_relations(rep)
    assert all(r["status"] == "pass" for r in report)
    assert time.time() - start < 300


def test_large_instance_tensor_smoke():
    import time

    start = time.time()
    rep = sn.build_rep_clifford_tensor(StrictPartition((4, 2, 1)))
    report = sn.verify_relations(rep)
    assert all(r["status"] == "pass" for r in report)
    assert time.time() - start < 300


# -- fast path against slow path: the YJM recurrence and the variant shortcut ----


def _reference_pi(generator, k, cache):
    """pi_k = t_1k + ... + t_{k-1,k}, with t_{i,i+1} = tau_i and
    t_ij = -t_{i,j-1} tau_{j-1} t_{i,j-1}: the sum of transposition images.
    It takes the arguments of `yjm_matrix` and reads pi_1 = 0 alone off cache."""
    total = cache[1]
    for i in range(1, k):
        t = generator(f"tau_{i}")
        for j in range(i + 2, k + 1):
            t = -(t * generator(f"tau_{j - 1}") * t)
        total = total + t
    return total


def _dense_report(rep):
    """verify_relations of rep's expanded generators, by dense products."""
    return sn.verify_relations(rep, rep.dense().generators)


def _reference_build_report(shape, tensor):
    """Both variants constructed and fully verified densely, pi from the
    reference sum."""
    outcomes, chosen = {}, None
    for variant in ("corrected", "printed"):
        rep = sn._construct(shape, tensor, variant)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sn, "yjm_matrix", _reference_pi)
            report = _dense_report(rep)
        bad = [r for r in report if r["status"] == "fail"]
        outcomes[variant] = "pass" if not bad else f"fail:{bad[0]['identity']}"
        if not bad and chosen is None:
            chosen = (variant, rep, report)
    variant, rep, report = chosen
    return {
        "case_iii_variant": variant,
        "variant_outcomes": outcomes,
        "variant_distinguishable": any(
            a[i - 1] + a[i] != (a[i - 1] - a[i]) ** 2 and a[i - 1] > 0 and a[i] > 0
            for a in rep.avecs
            for i in range(1, rep.n)
        ),
        "relations_checked": len(report),
    }


def test_yjm_recurrence_matches_transposition_sum():
    for shape in shapes_up_to(5):
        for builder in (sn.build_rep_plain, sn.build_rep_clifford_tensor):
            rep = builder(shape)
            mod = rep.dense()
            for k in range(1, rep.n + 1):
                want = _reference_pi(mod.generator, k, {1: Mat.zero(mod.dim)})
                assert rep.pi(k).expand() == want, (shape, builder, k)


@pytest.mark.parametrize(
    "shape, tensor",
    [(s, False) for s in shapes_up_to(6)] + [(s, True) for s in shapes_up_to(5)],
    ids=str,
)
def test_build_report_matches_full_adjudication(shape, tensor):
    builder = sn.build_rep_clifford_tensor if tensor else sn.build_rep_plain
    assert builder(shape).build_report == _reference_build_report(shape, tensor)


# -- the factored form against the dense one: word products, reports, spectra ---


def _holds_no_mat(rep):
    return all(isinstance(g, sn.CliffordMat) for _, g in rep.generators)


def test_word_product_matches_dense_words():
    for m in range(7):
        dim, gens, _ = sn.clifford_module(m)
        words = []
        for u in range(1 << m):
            prod = Mat.identity(dim)
            for i in range(m):
                if u >> i & 1:
                    prod = prod * gens[i]
            assert sn.CliffordMat(1, m, {(0, 0): {u: 1}}).expand() == prod, (m, u)
            words.append(prod)
        for u, wu in enumerate(words):
            for v, wv in enumerate(words):
                sign, w = sn.word_product(u, v)
                assert wu * wv == words[w].scale(sign), (m, u, v)


@pytest.mark.parametrize(
    "shape, tensor, variant",
    [
        (s, tensor, variant)
        for s in shapes_up_to(6) + [StrictPartition((4, 2, 1))]
        for tensor in ((False, True) if s.n <= 6 else (False,))
        for variant in ("corrected", "printed")
    ],
    ids=str,
)
def test_factored_checks_match_dense(shape, tensor, variant):
    # the dense checks of the expanded generators are the slow-path reference
    rep = sn._construct(shape, tensor, variant)
    assert _holds_no_mat(rep)
    assert sn.verify_relations(rep) == _dense_report(rep)
    assert _outcome(sn.spectrum_of, rep) == _outcome(_dense_spectrum, rep)


@pytest.mark.parametrize(
    "shape, tensor",
    [(s, tensor) for s in shapes_up_to(7) for tensor in (False, True)],
    ids=str,
)
def test_loaded_files_take_the_factored_path(shape, tensor):
    # a superspin/2 file loads to the builder's factored generators, and
    # nothing else; its checks give the report of the expanded generators, the
    # slow-path reference
    rep = (sn.build_rep_clifford_tensor if tensor else sn.build_rep_plain)(shape)
    loaded = sn.GradedRep.from_json(json.loads(json.dumps(rep.to_json())))
    assert loaded is not rep and _holds_no_mat(loaded)
    assert [(name, f.g, f.m, f.blocks) for name, f in loaded.generators] == [
        (name, f.g, f.m, f.blocks) for name, f in rep.generators
    ]
    assert sn.verify_relations(loaded) == _dense_report(loaded)
    assert _outcome(sn.spectrum_of, loaded) == _outcome(_dense_spectrum, loaded)


def test_verify_of_a_builders_file_reuses_the_build_report(monkeypatch, tmp_path, capsys):
    checks = sn._relation_checks
    calls = []
    monkeypatch.setattr(sn, "_relation_checks", lambda rep, *a: calls.append(rep) or checks(rep, *a))
    path = tmp_path / "model.json"
    assert cli.main(["build-rep", "3,2", "--out", str(path)]) == 0
    # a process that only verifies the file checks its relations once, in
    # factored form, and reads the report the build gives
    monkeypatch.setattr(sn, "_BUILD_CACHE", {})
    calls.clear()
    assert cli.main(["verify", str(path)]) == 0
    assert len(calls) == 1 and _holds_no_mat(calls[0])
    report = json.loads(capsys.readouterr().out)["report"]
    built = sn.build_rep_plain(StrictPartition((3, 2)))
    assert report == _dense_report(built)
    # a copy: changing what verify_relations returned changes no later report
    sn.verify_relations(built)[0]["status"] = "fail"
    assert sn.verify_relations(built) == report
    # a sign-flipped superspin/2 file is checked once, in factored form, and
    # gets the report of its expanded generators
    obj = json.loads(path.read_text())
    term = obj["generators"][0]["blocks"][0][2][0][1]["terms"][0]
    term["coeff"] = term["coeff"][1:] if term["coeff"].startswith("-") else "-" + term["coeff"]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(obj))
    calls.clear()
    assert cli.main(["verify", str(flipped)]) == 1
    assert len(calls) == 1 and _holds_no_mat(calls[0])
    report = json.loads(capsys.readouterr().out)["report"]
    assert report == _dense_report(sn.GradedRep.from_json(obj))
    assert any(r["status"] == "fail" and "first_defect" in r for r in report)


@pytest.mark.parametrize("parts, tensor", [((5, 1), False), ((3, 2), True)])
def test_builds_take_the_factored_path(monkeypatch, parts, tensor):
    # a silent fall-back to the dense check would multiply Mats
    def refuse(self, other):
        raise AssertionError("dense product while checking a built or loaded model")

    obj = sn._build(StrictPartition(parts), tensor).to_json()
    monkeypatch.setattr(linalg.Mat, "__mul__", refuse)
    rep = sn._build(StrictPartition(parts), tensor)
    loaded = sn.GradedRep.from_json(obj)
    for model in (rep, loaded):
        assert all(r["status"] == "pass" for r in sn.verify_relations(model))
        assert sn.spectrum_of(model) == sorted(model.avecs)


def test_build_and_verify_expand_nothing(monkeypatch, tmp_path):
    # only a failing defect is expanded: a build, its file and the verify of
    # that file make no dense matrix of a generator
    expand, calls = sn.CliffordMat.expand, []
    monkeypatch.setattr(sn.CliffordMat, "expand", lambda self: calls.append(self) or expand(self))
    monkeypatch.setattr(sn, "_BUILD_CACHE", {})
    path = tmp_path / "model.json"
    assert cli.main(["build-rep", "4,2,1", "--algebra", "tensor", "--out", str(path)]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path)]) == 0
        assert calls == []
        # the count sees expansions: a sign-flipped file names its defects
        obj = json.loads(path.read_text())
        term = obj["generators"][0]["blocks"][0][2][0][1]["terms"][0]
        term["coeff"] = term["coeff"][1:] if term["coeff"].startswith("-") else "-" + term["coeff"]
        path.write_text(json.dumps(obj))
        assert cli.main(["verify", str(path)]) == 1
    assert calls


def test_printed_variant_is_scanned_before_its_model_is_made(monkeypatch):
    # the printed variant of (4,2) fails its factored scan, so the corrected
    # model is the only one made
    made, new = [], sn.GradedRep.new.__func__
    monkeypatch.setattr(sn.GradedRep, "new", classmethod(lambda cls, *a: made.append(a) or new(cls, *a)))
    rep = sn._build(StrictPartition((4, 2)), False)
    assert rep.build_report["variant_distinguishable"]
    assert rep.build_report["variant_outcomes"]["printed"].startswith("fail:")
    assert [a[0] for a in made] == [StrictPartition((4, 2))]


def test_failure_names_the_first_defect_entry():
    rep = sn.build_rep_plain(StrictPartition((3, 1)))
    bad = sn.mutated_rep(rep)
    t = {i: dict(bad)[f"tau_{i}"] for i in range(1, 4)}
    one = Mat.identity(rep.dim)
    defects = {
        "tau_1^2 = 1": t[1] * t[1] - one,
        "tau_2^2 = 1": t[2] * t[2] - one,
        "tau_3^2 = 1": t[3] * t[3] - one,
        "tau_1 tau_2 tau_1 = tau_2 tau_1 tau_2": t[1] * t[2] * t[1] - t[2] * t[1] * t[2],
        "tau_2 tau_3 tau_2 = tau_3 tau_2 tau_3": t[2] * t[3] * t[2] - t[3] * t[2] * t[3],
        "(tau_1 tau_3)^2 = -1": t[1] * t[3] * t[1] * t[3] + one,
    }
    report = sn.verify_relations(rep, bad)
    assert [r["identity"] for r in report] == list(defects)
    assert any(r["status"] == "fail" for r in report)
    for entry in report:
        defect = defects[entry["identity"]]
        cells = [(r, c) for r in range(rep.dim) for c in range(rep.dim) if defect.entry(r, c)]
        if not cells:
            assert entry == {"identity": entry["identity"], "status": "pass", "defect_norm": 0.0}
            continue
        r, c = cells[0]
        assert entry["status"] == "fail"
        assert entry["first_defect"] == {
            "row": r, "col": c, "value": scalar_json(defect.entry(r, c)),
        }


# -- the oracle's certified fast path against the exact path and sympy ----------
#
# The oracle's data is rational, so by the scalar rule it computes in
# int/Fraction arithmetic and its kernels and subspaces are certified modulo a
# prime.  The slow reference is the same run with every elimination forced onto
# the exact path; sympy checks the idempotents independently.  The test name
# keeps the SqrtNumber reference that the scalar rule no longer allows.

def _entry_types(m: Mat) -> set:
    return {type(v) for row in m.rows.values() for v in row.values()}


def _typed_rows(m: Mat) -> dict:
    """The rows with each entry paired with its type, so == compares both."""
    return {r: {c: (type(v), v) for c, v in row.items()} for r, row in m.rows.items()}


@pytest.mark.parametrize("tag, n", [("A", 3), ("A", 4), ("CA", 3)])
def test_oracle_fast_path_matches_sqrtnumber_arithmetic(monkeypatch, tag, n):
    sympy = pytest.importorskip("sympy")
    built: list = []
    operators: list = []
    matrix, span = spinalg.SpinElement.matrix, spinalg.subalgebra_span
    project = sn.lagrange_projector

    def build(x):
        built.append(matrix(x))
        return built[-1]

    def spans(generators):
        operators.extend(generators)
        return span(generators)

    def projector(one, terms):
        operators.extend(op for op, _, _ in terms)
        return project(one, terms)

    with monkeypatch.context() as mp:
        mp.setattr(spinalg.SpinElement, "matrix", build)
        mp.setattr(spinalg, "subalgebra_span", spans)
        mp.setattr(sn, "lagrange_projector", projector)
        fast = sn.regular_decompose(tag, n)
    # the record sees every matrix the oracle builds: one per block, the
    # idempotent it prints
    assert len(built) == len(fast.blocks)
    assert all(m is b.idempotent for m, b in zip(built, fast.blocks))
    # the oracle's operators (the total YJM square and the n squares pi_k^2)
    # have int coefficients alone
    assert len({id(x) for x in operators}) == 1 + n
    assert {type(c) for x in operators for c in x.coeffs.values()} == {int}
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_certified_rref", lambda vecs: None)
        slow = sn.regular_decompose(tag, n)
    assert slow.to_json() == fast.to_json()
    # the same values in the same canonical types, down to the idempotents
    assert [_typed_rows(b.idempotent) for b in slow.blocks] == [
        _typed_rows(b.idempotent) for b in fast.blocks
    ]
    assert set().union(*(_entry_types(b.idempotent) for b in fast.blocks)) <= {int, Fraction}
    # sympy: orthogonal idempotents that sum to the identity
    dim = fast.blocks[0].idempotent.nrows
    mats = [
        sympy.Matrix(dim, dim, lambda r, c, m=b.idempotent: sympy.Rational(m.entry(r, c)))
        for b in fast.blocks
    ]
    assert sum(mats, sympy.zeros(dim, dim)) == sympy.eye(dim)
    for i, e in enumerate(mats):
        for j, f in enumerate(mats):
            assert e * f == (e if i == j else sympy.zeros(dim, dim))


# -- the oracle's word action: relations, word products and centrality ----------


def _odd_center(ctx):
    """A basis of the odd part of the ordinary center, as elements of signs:
    the sign centralizer of the generators over the odd words, which
    conjugation by a generator keeps odd."""
    gens = [(g,) for g in range(1, len(ctx.left) + 1)]
    odd = [idx for idx, p in enumerate(ctx.parity) if p]
    return [spinalg.SpinElement(ctx, sol) for sol in spinalg.sign_centralizer(ctx, odd, gens)]


def _left_mult_mat(ctx, coeffs):
    """The reference left multiplication by the sum of c * word_idx over
    coeffs on the word basis of a context, one letter at a time per column,
    accumulating each entry."""
    size = len(ctx.words)
    rows = {}
    for idx, coeff in coeffs.items():
        letters = ctx.words[idx]
        for col in range(size):
            sign, q = ctx.left_mul_word(letters, col)
            tgt = rows.setdefault(q, {})
            val = tgt.get(col, 0) + (coeff if sign > 0 else -coeff)
            if val:
                tgt[col] = val
            elif col in tgt:
                del tgt[col]
    return Mat(size, size, rows)


@pytest.mark.parametrize(
    "tag, n", [("A", 3), ("A", 4), ("A", 5), ("CA", 2), ("CA", 3), ("CA", 4)]
)
def test_element_products_match_left_multiplication(tag, n):
    # seeded random pairs: x * y, x.apply(v) and x.matrix() against the
    # reference left multiplication
    ctx = spinalg.context(n, clifford=tag == "CA")
    rng = random.Random(f"{tag}{n}")
    scalars = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]

    def rand():
        size = rng.randint(1, 6)
        return {rng.randrange(len(ctx.words)): rng.choice(scalars) for _ in range(size)}

    for _ in range(12):
        x, y = spinalg.SpinElement(ctx, rand()), spinalg.SpinElement(ctx, rand())
        lx, ly = _left_mult_mat(ctx, x.coeffs), _left_mult_mat(ctx, y.coeffs)
        assert (x * y).coeffs == lx.apply(y.coeffs)
        assert _left_mult_mat(ctx, (x * y).coeffs) == lx * ly
        v = rand()
        assert x.apply(v) == lx.apply(v)
        assert x.matrix() == lx
    # a plain and an extended element of the same rank do not mix
    plain = spinalg.SpinElement.one(n)
    ext = spinalg.SpinElement(spinalg.context(n, clifford=True), {plain.ctx.identity: 1})
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError):
            op(plain, ext)
        with pytest.raises(ValueError):
            op(ext, plain)


@pytest.mark.parametrize(
    "tag, n", [("A", 3), ("A", 4), ("A", 5), ("CA", 2), ("CA", 3), ("CA", 4)]
)
def test_oracle_word_action_is_central(tag, n):
    ext = spinalg.context(n, clifford=tag == "CA")
    ctx, N = spinalg.context(n), len(ext.words)
    nclif = n if tag == "CA" else 0
    one, zero = Mat.scalar(N, 1), Mat.zero(N)

    def index(subset, spin_word):
        """Index of e_S t_w, read off the definition of the word basis."""
        sw = spinalg.canonical_form(spin_word, n)
        assert sw.sign == 1
        return sum(1 << (i - 1) for i in subset) * len(ctx.perms) + ctx.index[sw.perm]

    taus = [_left_mult_mat(ext, {index((), [g]): 1}) for g in range(1, n)]
    ps = [_left_mult_mat(ext, {index((i,), []): 1}) for i in range(1, nclif + 1)]
    gens = taus + ps
    # the generator matrices satisfy the defining relations
    for i, t in enumerate(taus, start=1):
        assert t * t == one
        if i + 1 < n:
            u = taus[i]
            assert t * u * t == u * t * u
        for u in taus[i + 1 :]:
            assert t * u * t * u == -one
        for p in ps:
            assert t * p + p * t == zero
    for i, p in enumerate(ps):
        assert p * p == one
        for q in ps[i + 1 :]:
            assert p * q + q * p == zero
    # every word acts as the product of its letters, e_S first, then t_p
    for idx in range(N):
        s, perm = divmod(idx, len(ctx.perms))
        prod = one
        for i in range(1, nclif + 1):
            if (s >> (i - 1)) & 1:
                prod = prod * ps[i - 1]
        for g in ctx.words[perm]:
            prod = prod * taus[g - 1]
        assert _left_mult_mat(ext, {idx: 1}) == prod, idx
    # the odd centre has one element per Q block; it and the central
    # splitting elements commute with every generator.  Tensoring with the
    # Clifford superalgebra on n generators, of type Q for odd n, swaps M and Q.
    squares = [p * p for p in (spinalg.jm_element(k, n) for k in range(1, n + 1))]
    central = [sum(squares, spinalg.SpinElement.zero(n))] + spinalg.supercenter_basis(n)
    central_mats = [_left_mult_mat(ext, z.coeffs) for z in central]
    odd_mats = [_left_mult_mat(ext, z.coeffs) for z in _odd_center(ext)]
    n_q = sum(
        1
        for shape in strict_partitions(n)
        if (sc.conjectured_type(shape) == "Q") != (tag == "CA" and n % 2 == 1)
    )
    assert len(odd_mats) == n_q
    for z in central_mats + odd_mats:
        assert not z.is_zero()
        for g in gens:
            assert z * g == g * z
    if tag == "A":
        # on the spin algebra the action is the product in spinalg
        for z, zm in zip(central, central_mats):
            for col in range(N):
                prod = z * spinalg.SpinElement(ext, {col: 1})
                assert zm.cols().get(col, {}) == prod.coeffs


@pytest.mark.parametrize("tag, n", [("A", 3), ("CA", 2)])
def test_oracle_checks_its_parity_vector(monkeypatch, tag, n):
    ctx = spinalg.context(n, clifford=tag == "CA")
    monkeypatch.setattr(ctx, "parity", [1 - ctx.parity[0]] + ctx.parity[1:])
    with pytest.raises(CheckFailed, match="is not odd"):
        sn.regular_decompose(tag, n)


# -- the oracle's idempotent blocks against blocks built as subspaces -----------


def _subspace_blocks(tag, n):
    """The oracle's report computed on each block as a subspace of the word
    space: cut by `split_module_by_central`, with graded dimensions and the
    joint spectrum read on the whole block.  The type is the odd centre's:
    Q(q) when some odd central element is nonzero on the block, else M(r, s)
    with r + s and r^2 + s^2 solved from the graded dimensions."""
    ext = spinalg.context(n, clifford=tag == "CA")
    squares = [p * p for p in (spinalg.jm_element(k, n) for k in range(1, n + 1))]
    total = sum(squares, spinalg.SpinElement.zero(n))
    central = _left_mult_mat(ext, total.coeffs)
    pi2_mats = [_left_mult_mat(ext, sq.coeffs) for sq in squares]
    odd_mats = [_left_mult_mat(ext, z.coeffs) for z in _odd_center(ext)]
    report = gradedstruct.BlockReport(algebra_dim=len(ext.words))
    for piece, proj in gradedstruct.split_module_by_central(len(ext.words), [central]):
        spectrum = sn._a_vectors(piece, pi2_mats)
        dim, even = piece.dim, gradedstruct.subspace_parity(piece, ext.parity).count(0)
        if any(z.apply(b) for z in odd_mats for b in piece.basis):
            q = isqrt(dim // 2)
            assert (2 * q * q, q * q) == (dim, even)
            btype, params = "Q", q
        else:
            t, u = isqrt(dim), isqrt(2 * even - dim)
            assert (t * t, u * u) == (dim, 2 * even - dim)
            btype, params = "M", ((t + u) // 2, (t - u) // 2)
        block = gradedstruct.Block(
            btype,
            params,
            dim,
            idempotent=proj,
            spectrum=spectrum,
            partition=sn._shape_of_avec(spectrum[0]).parts if spectrum else None,
        )
        report.blocks.append(block)
    return report


@pytest.mark.parametrize(
    "tag, n",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("CA", 1), ("CA", 2), ("CA", 3), ("CA", 4)],
)
def test_idempotent_blocks_match_subspace_blocks(tag, n):
    fast = sn.regular_decompose(tag, n)
    slow = _subspace_blocks(tag, n)
    assert fast.to_json() == slow.to_json()
    assert [_typed_rows(b.idempotent) for b in fast.blocks] == [
        _typed_rows(b.idempotent) for b in slow.blocks
    ]


def test_oracle_builds_no_block_subspace(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle worked on a block as a subspace")

    sizes, splits = [], []
    init, split = linalg.Subspace.__init__, sn.eigensplit

    def record(self, dim_ambient, basis):
        init(self, dim_ambient, basis)
        sizes.append(self.dim)

    def count(pieces, ops):
        splits.append(len(pieces))
        return split(pieces, ops)

    monkeypatch.setattr(gradedstruct, "split_module_by_central", refuse)
    monkeypatch.setattr(linalg.Subspace, "__init__", record)
    monkeypatch.setattr(sn, "eigensplit", count)
    report = sn.regular_decompose("A", 5)
    # the largest span formed is C[pi^2], of dimension 6, the number of
    # standard shifted tableaux of size 5, far below the smallest block; one
    # eigensplit reads its joint spectrum
    assert sorted(b.dimension for b in report.blocks) == [16, 32, 72]
    assert max(sizes) == 6 == sum(len(sc.standard_tableaux(s)) for s in strict_partitions(5))
    assert splits == [1]


# -- the labelled rational module of a built model ------------------------------
#
# A built model is classified and branched on its labelled rational module:
# rational generators, each basis index labelled with its tableau's a-vector,
# solved over the tableau blocks.  The generic route is the same calls on a
# model with no labelled module, which splits its dense module, unlabelled
# (`GradedRep.dense`, first_summand's fallback); the kernel is the reduced basis
# of the solutions, so the two routes must solve the same sequence of modules
# to the same commutants, in value, type and order.

_SHADOW_MODELS = [(s, False) for s in shapes_up_to(6)] + [(s, True) for s in shapes_up_to(5)]


def _classify_and_branch(rep):
    """(classification, branching, each solve as (dim, parity, x_parity, commutant))
    of a model whose first summand is not yet found."""
    solve, seen = gradedstruct.module_commutant, []

    def recorded(mod, x):
        out = solve(mod, x)
        seen.append((mod.dim, mod.parity, x, [_typed_rows(m) for m in out]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradedstruct, "module_commutant", recorded)
        cls = sn.first_summand(rep)[1]
        branches = sn.restrict_and_branch(rep) if rep.n > 1 else None
    return cls, branches, seen


@pytest.mark.parametrize("shape, tensor", _SHADOW_MODELS, ids=str)
def test_shadow_solve_matches_the_generic_solve(shape, tensor):
    rep = sn._build(shape, tensor)  # a fresh model: nothing solved yet
    # plain (1) has no generator and nothing to label
    assert (rep.rational_shadow() is None) == (not rep.generators)
    labelled = _classify_and_branch(rep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sn, "_rational_shadow", lambda rep: None)
        generic = _classify_and_branch(sn._build(shape, tensor))
    assert labelled[2], "no module solved"
    assert labelled == generic


_RADICAL_OPS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__neg__", "invert", "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("shape, tensor", _SHADOW_MODELS, ids=str)
def test_classification_eliminates_no_radical_row(monkeypatch, shape, tensor):
    # once the labelled module is made, classifying and branching do no
    # arithmetic with a radical at all
    rep = sn._build(shape, tensor)
    rep.rational_shadow()
    calls = []

    def radical_op(name):
        def fail(*args):
            calls.append(name)
            raise AssertionError(f"SqrtNumber.{name} while classifying or branching")
        return fail

    for name in _RADICAL_OPS:
        monkeypatch.setattr(SqrtNumber, name, radical_op(name))
    sn.first_summand(rep)
    if rep.n > 1:
        sn.restrict_and_branch(rep)
    assert not calls


def test_identify_shape_reads_one_shape_off_the_labels():
    mod = sn.build_rep_plain(StrictPartition((3, 1))).rational_shadow()
    assert sn.identify_shape(mod, 4) == StrictPartition((3, 1))
    # one rank down, the tableaux of (3, 1) fall into (3) and (2, 1)
    with pytest.raises(CheckFailed, match=r"shapes \[\(2, 1\), \(3,\)\]"):
        sn.identify_shape(mod, 3)


def _tampered(rep, name, key, change, keep_pi=False):
    """rep with block `key` of its factored generator `name` changed; with
    keep_pi, rep's YJM elements are kept, so that block alone breaks a premise."""
    gen = rep.generator(name)
    blocks = {**gen.blocks, key: change(gen.blocks.get(key, {}))}
    gens = [(k, sn.CliffordMat(gen.g, gen.m, blocks) if k == name else g)
            for k, g in rep.generators]
    model = sn.GradedRep.new(rep.shape, rep.has_clifford, gens)
    if keep_pi:
        model._pi_cache.update(rep._pi_cache)
    return model


def test_models_that_fail_a_premise_take_the_generic_solve(monkeypatch):
    shape = StrictPartition((4, 2))
    rep = sn.build_rep_plain(shape)
    off = min(k for k in rep.generator("tau_5").blocks if k[0] != k[1])

    def double_one(el):  # its coefficients are no longer +- one scalar
        return {**el, min(el): 2 * el[min(el)]}

    def add_h1(el):  # h_1 is in no diagonal block of pi_5 or pi_6
        return {**el, 1: 1}

    models = {
        "printed": sn._construct(shape, False, "printed"),
        "off-diagonal": _tampered(rep, "tau_5", off, double_one),
        "off-diagonal, rep's pi": _tampered(rep, "tau_5", off, double_one, keep_pi=True),
        "diagonal, rep's pi": _tampered(rep, "tau_5", (off[1], off[1]), add_h1, keep_pi=True),
    }
    assert rep.rational_shadow() is not None
    # record the number of unknowns and skip the solve itself
    ncols = []
    monkeypatch.setattr(gradedstruct, "kernel", lambda rows, n: ncols.append(n) or [])
    generic = sum((p + q + 1) % 2 for p in rep.parity for q in rep.parity)
    for name, model in models.items():
        assert model.rational_shadow() is None, name
        gradedstruct.module_commutant(model.dense(), 0)
        assert ncols.pop() == generic, name
    gradedstruct.module_commutant(rep.rational_shadow(), 0)
    assert ncols.pop() == len(rep.tableaux) * rep.block_dim ** 2 // 2
