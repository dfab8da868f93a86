"""Acceptance criteria, one test per criterion, at their stated sizes.

Every check is exact (tolerance zero); each test prints a single pass/fail
line so the suite doubles as the acceptance report.
"""

import math
import time

import pytest

from superspin import checks, cli, gradedstruct, seminormal, shiftedcomb, spinalg
from superspin.shiftedcomb import StrictPartition, strict_partitions


def _report(num: int, ok: bool, label: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance criterion {num}: {label} ({elapsed:.1f}s)")


def _run(num: int, fn, label: str, budget: float | None = None) -> dict:
    start = time.time()
    result = fn()
    elapsed = time.time() - start
    ok = result["status"] == "pass"
    _report(num, ok, label, elapsed)
    assert ok, result["details"]
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    return result


def test_criterion_1_counting():
    _run(
        1,
        lambda: checks.check_counting(7),
        "strict/odd partition counts and supercenter dimensions (n <= 7)",
        budget=60.0,
    )


def test_criterion_2_relation_suite():
    _run(
        2,
        lambda: checks.check_relation_suite(6),
        "both builders satisfy all relations exactly for |shape| <= 6",
        budget=300.0,
    )


def test_criterion_3_oracle_equivalence():
    _run(
        3,
        lambda: checks.check_oracle_equivalence(5),
        "regular decomposition matches builders; dimensions sum to n!",
    )
    rep3 = seminormal.regular_decompose("A", 3)
    assert [(b.btype, b.params) for b in rep3.sorted_blocks()] == [
        ("Q", 1),
        ("M", (1, 1)),
    ]
    assert rep3.total_block_dim() == 2 + 4 == 6
    rep4 = seminormal.regular_decompose("A", 4)
    assert [(b.btype, b.params) for b in rep4.sorted_blocks()] == [
        ("Q", 2),
        ("M", (2, 2)),
    ]
    assert rep4.total_block_dim() == 8 + 16 == 24


def test_criterion_4_spectrum_theorem():
    _run(
        4,
        lambda: checks.check_spectrum_theorem(6),
        "spectra equal tableau multisets, half-triangular, disjoint (n <= 6)",
        budget=300.0,
    )


def test_criterion_4_fails_on_a_negative_a_value(monkeypatch, capsys):
    # a negative a-value fails the criterion (exit 1); it must not reach isqrt
    seminormal.build_rep_plain(StrictPartition((1,)))
    two = seminormal.build_rep_plain(StrictPartition((2,)))
    spectrum = seminormal.spectrum_of
    monkeypatch.setattr(
        seminormal, "spectrum_of", lambda rep: [(0, -1)] if rep is two else spectrum(rep)
    )
    result = checks.check_spectrum_theorem(2)
    assert result["status"] == "fail"
    assert "2: a=-1 not half-triangular" in result["details"]
    assert cli.main(["check-all", "--max-n", "2"]) == 1
    assert "[FAIL] criterion 4:" in capsys.readouterr().out


def test_criterion_5_identity_suites():
    _run(
        5,
        lambda: checks.check_identity_suites(5),
        "F_i lemma, pi anticommutation, pi^2 expansion, even presentation (n <= 5)",
        budget=120.0,
    )


def test_criterion_6_tensor_classification():
    _run(
        6,
        lambda: checks.check_tensor_classification(5),
        "tensor product block classifications reproduce the three identities",
    )


def test_criterion_7_branching_coherence():
    _run(
        7,
        lambda: checks.check_branching(5),
        "graphs agree on vertices/edges; path counts match; Z(A_n, A_n-1) commutative",
    )


def test_criterion_8_gz_maximality():
    _run(
        8,
        lambda: checks.check_gz_maximality(4),
        "GZ centralizer inside the even part equals GZ (n <= 4)",
    )


def test_criterion_9_typo_adjudication():
    result = _run(
        9,
        lambda: checks.check_typo_adjudication(6),
        "case-(iii) and tensor index formula variants adjudicated",
    )
    assert "corrected" in result["details"]


def test_criterion_10_exactnum_properties():
    _run(
        10,
        lambda: checks.check_exactnum(5),
        "1000-case field axioms / inverse roundtrips; sign vs rational squares",
        budget=30.0,
    )
