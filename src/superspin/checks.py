"""Aggregated acceptance checks, shared by the CLI and the test suite.

Each check returns a dict {criterion, description, status, details}; check_all
collects them up to a level cap.  Everything here is exact: a check passes
only on exact equality at the stated sizes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import gradedstruct, seminormal, shiftedcomb, spinalg
from .exactnum import Scalar, SqrtNumber, inverse, sqrt_rational
from .shiftedcomb import StrictPartition, strict_partitions


def _entry(criterion: int, description: str, ok: bool, details: str = "") -> dict:
    return {
        "criterion": criterion,
        "description": description,
        "status": "pass" if ok else "fail",
        "details": details,
    }


def check_counting(max_n: int) -> dict:
    expected = [1, 1, 2, 2, 3, 4, 5]
    ok = True
    details = []
    for n in range(1, min(max_n, 7) + 1):
        r = shiftedcomb.odd_partition_count_check(n)
        ok = ok and r["all_equal"] and r["strict_count"] == expected[n - 1]
        details.append(f"n={n}:{r['strict_count']}/{r['odd_count']}/{r['supercenter_dim']}")
    return _entry(1, "strict = odd partition counts = supercenter dim", ok, " ".join(details))


def _builds(lo: int, max_n: int):
    """(tag, shape, model or its RelationError) for each plain and tensor model
    with lo <= n <= min(max_n, 6).  A build verifies every relation and the
    spectrum of the model it returns, and raises RelationError otherwise."""
    for n in range(lo, min(max_n, 6) + 1):
        for shape in strict_partitions(n):
            for builder, tag in (
                (seminormal.build_rep_plain, "plain"),
                (seminormal.build_rep_clifford_tensor, "tensor"),
            ):
                try:
                    yield tag, shape, builder(shape)
                except seminormal.RelationError as exc:
                    yield tag, shape, exc


def check_relation_suite(max_n: int) -> dict:
    details = [
        f"{tag}:{shape}:{rep}"
        for tag, shape, rep in _builds(1, max_n)
        if isinstance(rep, seminormal.RelationError)
    ]
    return _entry(2, "seminormal builders satisfy all relations exactly", not details, " ".join(details) or f"all shapes |a|<={min(max_n, 6)}")


def check_oracle_equivalence(max_n: int) -> dict:
    ok = True
    details = []
    for n in range(2, min(max_n, 5) + 1):
        report = seminormal.regular_decompose("A", n)
        total = report.total_block_dim()
        if total != math.factorial(n):
            ok = False
            details.append(f"n={n}: dim {total} != {n}!")
        shapes = {tuple(b.partition) for b in report.blocks}
        want = {s.parts for s in strict_partitions(n)}
        if shapes != want:
            ok = False
            details.append(f"n={n}: partitions {shapes} != {want}")
        for b in report.blocks:
            shape = StrictPartition(tuple(b.partition))
            _, cls = seminormal.first_summand(seminormal.build_rep_plain(shape))
            if cls["kind"] != b.btype or cls["params"] != b.params:
                ok = False
                details.append(
                    f"n={n} {shape}: block {b.btype}{b.params} vs built "
                    f"{cls['kind']}{cls['params']}"
                )
        details.append(f"n={n}:{[f'{b.btype}{b.params}' for b in report.sorted_blocks()]}")
    return _entry(3, "regular-representation oracle matches seminormal builders", ok, " ".join(details))


def check_spectrum_theorem(max_n: int) -> dict:
    ok = True
    details = []
    seen_by_n: dict[int, dict] = {}
    for n in range(1, min(max_n, 6) + 1):
        for shape in strict_partitions(n):
            rep = seminormal.build_rep_plain(shape)
            spec = seminormal.spectrum_of(rep)
            want = sorted(
                shiftedcomb.spectrum_vector(t).a
                for t in shiftedcomb.standard_tableaux(shape)
            )
            if spec != want:
                ok = False
                details.append(f"{shape}: {spec} != {want}")
            if len(set(spec)) != len(spec):
                ok = False
                details.append(f"{shape}: multiplicity in spectrum")
            for avec in spec:
                for a in avec:
                    # a >= 0 first: isqrt refuses a negative argument
                    if a < 0 or (b := (math.isqrt(1 + 8 * a) - 1) // 2) * (b + 1) != 2 * a:
                        ok = False
                        details.append(f"{shape}: a={a} not half-triangular")
            bucket = seen_by_n.setdefault(n, {})
            for avec in spec:
                if avec in bucket:
                    ok = False
                    details.append(f"n={n}: {avec} shared by {bucket[avec]} and {shape}")
                bucket[avec] = shape.parts
    return _entry(4, "joint YJM-square spectra match tableaux and are disjoint", ok, " ".join(details) or f"n<={min(max_n, 6)}")


def check_identity_suites(max_n: int) -> dict:
    ok = True
    details = []
    for n in range(2, min(max_n, 5) + 1):
        bad = [r for r in spinalg.verify_identity_suite(n) if r["status"] == "fail"]
        if bad:
            ok = False
            details.append(f"n={n}: {bad[0]['identity']}")
        if n >= 3:
            bad = [
                r
                for r in spinalg.even_presentation_check(n)
                if r["status"] == "fail"
            ]
            if bad:
                ok = False
                details.append(f"even n={n}: {bad[0]['identity']}")
    return _entry(5, "YJM / F_i / even-presentation identity suites", ok, " ".join(details) or f"n<={min(max_n, 5)}")


def check_tensor_classification(max_n: int) -> dict:
    adj = gradedstruct.tensor_formula_adjudication()
    ok = all(
        adj["classifications"][k] == want for k, want in adj["expected"].items()
    )
    return _entry(
        6,
        "graded tensor products classify per the product identities",
        ok,
        str(adj["classifications"]),
    )


def check_branching(max_n: int) -> dict:
    ok = True
    details = []
    for n in range(2, min(max_n, 5) + 1):
        g1 = shiftedcomb.schur_branching_graph(n)
        g2 = seminormal.branching_graph_from_reps(n)
        g1.validate()
        g2.validate()
        if set(g1.vertices) != set(g2.vertices):
            ok = False
            details.append(f"n={n}: vertex sets differ")
        elif any(
            g1.vertices[v].vtype != g2.vertices[v].vtype for v in g1.vertices
        ):
            ok = False
            details.append(f"n={n}: types differ")
        if g1.orbit_edge_support() != g2.orbit_edge_support():
            ok = False
            details.append(f"n={n}: edge supports differ")
        blocks = shiftedcomb.algebra_from_graph(g2)
        oracle = seminormal.regular_decompose("A", n)
        got = sorted((b["type"], b["params"]) for b in blocks)
        want = sorted((b.btype, b.params) for b in oracle.blocks)
        if got != want:
            ok = False
            details.append(f"n={n}: path counts {got} != oracle {want}")
        _, commutative = spinalg.graded_centralizer_spin(n, n - 1)
        details.append(f"n={n}:Z(A_n,A_n-1) commutative={commutative}")
        if not commutative:
            ok = False
    return _entry(7, "branching graphs agree; path counts match the oracle", ok, " ".join(details))


def check_gz_maximality(max_n: int) -> dict:
    ok = True
    details = []
    for n in range(2, min(max_n, 4) + 1):
        out = spinalg.gz_algebras(n)
        if not (
            out["maximality_flag"]
            and out["sgz_equals_pi_algebra"]
            and out["sz_equals_pi2_algebra"]
            and out["inclusions_ok"]
        ):
            ok = False
        details.append(
            f"n={n}: dims GZ={len(out['gz_basis'])} SGZ={len(out['sgz_basis'])} "
            f"SZ={len(out['sz_basis'])} maximal={out['maximality_flag']}"
        )
    return _entry(8, "Gelfand-Tsetlin algebra is maximal commutative in the even part", ok, " ".join(details))


def check_typo_adjudication(max_n: int) -> dict:
    ok = True
    details = []
    saw_distinguishing = False
    for tag, shape, rep in _builds(2, max_n):
        if isinstance(rep, seminormal.RelationError):
            ok = False
            details.append(f"{tag}:{shape}: no variant passes ({rep})")
            continue
        rep_report = rep.build_report
        if rep_report["variant_outcomes"].get("corrected") != "pass":
            ok = False
            details.append(f"{tag}:{shape}: corrected variant fails")
        if rep_report["variant_distinguishable"]:
            saw_distinguishing = True
            if rep_report["variant_outcomes"].get("printed") == "pass":
                ok = False
                details.append(f"{tag}:{shape}: printed variant unexpectedly passes")
    adj = gradedstruct.tensor_formula_adjudication()
    if adj["selected_variant"] is None:
        ok = False
        details.append("tensor index formula: neither variant matches")
    else:
        details.append(f"tensor index formula: {adj['selected_variant']}")
    if max_n >= 6 and not saw_distinguishing:
        ok = False
        details.append("no distinguishing shape reached")
    details.append(
        "case-(iii): corrected denominator (a_i - a_{i+1})^2 selected"
        + (" (printed fails where distinguishable)" if saw_distinguishing else "")
    )
    return _entry(9, "typo adjudication recorded for case (iii) and tensor formula", ok, " ".join(details))


def check_exactnum(max_n: int) -> dict:
    rng = random.Random(20260810)
    radicands = [1, 2, 3, 5, 6, 7, 10, 15]

    def rand_sqrt() -> Scalar:
        terms = []
        for _ in range(rng.randint(1, 3)):
            d = rng.choice(radicands)
            q = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            terms.append((d, q))
        return SqrtNumber.from_terms(terms)

    ok = True
    details = []
    for trial in range(1000):
        x, y, z = rand_sqrt(), rand_sqrt(), rand_sqrt()
        if (x + y) * z != x * z + y * z or (x * y) * z != x * (y * z) or x * y != y * x:
            ok = False
            details.append(f"field axiom failed at {trial}")
            break
    for trial in range(1000):
        x = rand_sqrt()
        if not x:
            continue
        if x * inverse(x) != 1:
            ok = False
            details.append(f"inverse roundtrip failed at {trial}")
            break
    for trial in range(200):
        p = Fraction(rng.randint(0, 40), rng.randint(1, 7))
        q = Fraction(rng.randint(0, 40), rng.randint(1, 7))
        lhs, rhs = sqrt_rational(p), sqrt_rational(q)
        if (lhs < rhs, lhs == rhs, lhs > rhs) != (p < q, p == q, p > q):
            ok = False
            details.append(f"sign disagrees with rational comparison: {p} vs {q}")
            break
    # normalization idempotence
    for trial in range(200):
        x = rand_sqrt()
        terms = x.terms.items() if isinstance(x, SqrtNumber) else [(1, x)]
        if SqrtNumber.from_terms(terms) != x:
            ok = False
            details.append("normalization not idempotent")
            break
    return _entry(10, "exact-number field axioms, inverses and sign decisions", ok, " ".join(details) or "1000 random cases")


CHECKS = [
    check_counting,
    check_relation_suite,
    check_oracle_equivalence,
    check_spectrum_theorem,
    check_identity_suites,
    check_tensor_classification,
    check_branching,
    check_gz_maximality,
    check_typo_adjudication,
    check_exactnum,
]


def check_all(max_n: int = 5, negative_control: bool = False) -> list[dict]:
    """Run every acceptance criterion up to the requested level."""
    if not 2 <= max_n <= 7:
        raise ValueError("2 <= max_n <= 7")
    results = [fn(max_n) for fn in CHECKS]
    if negative_control:
        shape = (3, 1) if max_n >= 4 else (max_n,)
    else:
        shape = (3,) if max_n >= 3 else (2,)
    rep = seminormal.build_rep_plain(StrictPartition(shape))
    bad = [r for r in seminormal.verify_relations(rep, seminormal.mutated_rep(rep)) if r["status"] == "fail"]
    if negative_control:
        detail = "mutation was NOT detected"
        if bad:
            first = bad[0]["first_defect"]
            detail = (f"injected mutation produced {len(bad)} relation failures; first: {bad[0]['identity']}, "
                      f"defect {SqrtNumber.from_json(first['value'])} at row {first['row']}, column {first['col']}")
        results.append(_entry(0, "negative control: sign-flipped build must fail verification", False, detail))
    else:
        results.append(_entry(0, "mutation sensitivity: flipped sign is detected", bool(bad), f"{len(bad)} relation failures on the mutated build"))
    return results
