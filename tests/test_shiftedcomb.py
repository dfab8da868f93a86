import math

import pytest

from superspin import shiftedcomb as sc
from superspin.shiftedcomb import StrictPartition


def test_strict_partition_validation():
    with pytest.raises(ValueError):
        StrictPartition((2, 2))
    with pytest.raises(ValueError):
        StrictPartition((3, 0))
    assert StrictPartition.parse("4,2,1").parts == (4, 2, 1)
    # an empty field is an error, never a skipped part
    for text in ["", "3,,1", ",2", "3,"]:
        with pytest.raises(ValueError):
            StrictPartition.parse(text)


def test_strict_partitions_examples():
    assert [p.parts for p in sc.strict_partitions(4)] == [(4,), (3, 1)]
    assert [p.parts for p in sc.strict_partitions(1)] == [(1,)]
    counts = [len(sc.strict_partitions(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 2, 3, 4, 5]
    # the empty partition is the one strict partition of 0; n < 0 has none to list
    assert [p.parts for p in sc.strict_partitions(0)] == [()]
    with pytest.raises(ValueError):
        sc.strict_partitions(-1)


def test_covers_and_successors():
    p = StrictPartition((3, 1))
    assert {c.parts for c in p.covers()} == {(2, 1), (3,)}
    assert {s.parts for s in p.successors()} == {(4, 1), (3, 2)}
    assert {c.parts for c in StrictPartition((1,)).covers()} == set()


def test_standard_tableaux_examples():
    assert len(sc.standard_tableaux(StrictPartition((2, 1)))) == 1
    tabs = sc.standard_tableaux(StrictPartition((3, 1)))
    assert len(tabs) == 2
    # row-filled tableau comes first
    assert tabs[0] == sc.row_filled_tableau(StrictPartition((3, 1)))
    for n in range(1, 8):
        row = StrictPartition((n,))
        assert len(sc.standard_tableaux(row)) == 1


def test_tableau_count_recursion():
    # g(shape) = sum of g over covers, up to n = 7
    for n in range(2, 8):
        for shape in sc.strict_partitions(n):
            total = sum(
                len(sc.standard_tableaux(c)) for c in shape.covers()
            )
            assert total == len(sc.standard_tableaux(shape))


def test_tableau_count_formula():
    for n in range(1, 10):
        for shape in sc.strict_partitions(n):
            assert sc.tableau_count(shape) == len(sc.standard_tableaux(shape))
    assert sc.tableau_count(StrictPartition((6, 5, 4, 3))) == 12376
    assert sc.tableau_count(StrictPartition((7, 6, 5, 4, 3, 2, 1))) == 23178480


def test_spectrum_vector_examples():
    t3 = sc.standard_tableaux(StrictPartition((3,)))[0]
    sv = sc.spectrum_vector(t3)
    assert sv.b == (0, 1, 2) and sv.a == (0, 1, 3)
    t21 = sc.standard_tableaux(StrictPartition((2, 1)))[0]
    assert sc.spectrum_vector(t21).b == (0, 1, 0)
    for n in range(2, 8):
        for shape in sc.strict_partitions(n):
            for t in sc.standard_tableaux(shape):
                b = sc.spectrum_vector(t).b
                assert b[0] == 0 and b[1] == 1


def test_spectrum_injective_and_valid():
    for n in range(1, 8):
        for shape in sc.strict_partitions(n):
            seen = set()
            for t in sc.standard_tableaux(shape):
                b = sc.spectrum_vector(t).b
                assert b not in seen
                seen.add(b)
                assert all(x >= 0 for x in b)
                assert all(b[i] != b[i + 1] for i in range(len(b) - 1))
                assert sc.tableau_from_bvector(b) == t


def test_admissible_transpositions_examples():
    tabs = sc.standard_tableaux(StrictPartition((3, 1)))
    t0 = tabs[0]
    assert sc.spectrum_vector(t0).b == (0, 1, 2, 0)
    assert sc.admissible_transpositions(t0) == [3]
    swapped = sc.apply_transposition(t0, 3)
    assert sc.spectrum_vector(swapped).b == (0, 1, 0, 2)
    assert sc.apply_transposition(swapped, 3) == t0
    for n in (1, 2, 3):
        t = sc.standard_tableaux(StrictPartition((n,)))[0]
        assert sc.admissible_transpositions(t) == []


def test_admissible_matches_split_condition():
    for n in range(2, 8):
        for shape in sc.strict_partitions(n):
            for t in sc.standard_tableaux(shape):
                a = sc.spectrum_vector(t).a
                for i in range(1, n):
                    swappable = sc.apply_transposition(t, i) is not None
                    split = a[i - 1] + a[i] != (a[i - 1] - a[i]) ** 2
                    assert swappable == split


def test_admissible_orbits_connect():
    for n in range(2, 8):
        for shape in sc.strict_partitions(n):
            tabs = sc.standard_tableaux(shape)
            reached = {tabs[0]}
            frontier = [tabs[0]]
            while frontier:
                t = frontier.pop()
                for i in sc.admissible_transpositions(t):
                    nxt = sc.apply_transposition(t, i)
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            assert len(reached) == len(tabs)


def test_spectrum_condition_report():
    for n in range(2, 8):
        r = sc.spectrum_condition_report(n)
        assert r["condition1"] and r["condition2"] and r["condition4"]
        assert r["exceptions_all_degenerate"]
    assert sc.spectrum_condition_report(3)["condition3_exceptions"] == [(0, 1, 0)]


def test_schur_graph_structure():
    g = sc.schur_branching_graph(3)
    g.validate()
    # orbit counts: (1), (2), (3), (2,1) and the two orbit-level cover edges
    orbits = {g.orbit_label(v) for v in g.vertices}
    assert len(orbits) == 4
    assert len({(u, v) for (u, v) in g.orbit_edge_support() if u[0] == 2}) == 2
    types = {
        g.orbit_label(v)[1]: g.vertices[v].vtype for v in g.vertices
    }
    assert types[(2,)] == "Q" and types[(3,)] == "M" and types[(2, 1)] == "Q"
    # omega fixes Q vertices and swaps M pairs
    for vid, v in g.vertices.items():
        if v.vtype == "Q":
            assert g.omega[vid] == vid
        else:
            assert g.omega[vid] != vid


def test_algebra_from_graph():
    g3 = sc.schur_branching_graph(3)
    blocks = sc.algebra_from_graph(g3)
    assert [(b["type"], b["params"]) for b in blocks] == [("Q", 1), ("M", (1, 1))]
    g4 = sc.schur_branching_graph(4)
    blocks4 = sc.algebra_from_graph(g4)
    assert [(b["type"], b["params"]) for b in blocks4] == [("Q", 2), ("M", (2, 2))]
    for n in range(2, 8):
        g = sc.schur_branching_graph(n)
        assert sum(b["dimension"] for b in sc.algebra_from_graph(g)) == math.factorial(n)


def test_algebra_from_single_edge_graph():
    # two sources feeding one antipodal pair, one edge per copy from each source
    g = sc.BranchingGraph(2)
    lo = g.add_vertex(1, StrictPartition((1,)), "M")
    hi = g.add_vertex(2, StrictPartition((2,)), "M")
    g.add_edge(lo[0], hi[0])
    g.add_edge(lo[1], hi[1])
    g.add_edge(lo[1], hi[0])
    g.add_edge(lo[0], hi[1])
    blocks = sc.algebra_from_graph(g)
    assert [(b["type"], b["params"]) for b in blocks] == [("M", (1, 1))]


def test_path_equivalence_classes():
    g3 = sc.schur_branching_graph(3)
    classes = sc.path_equivalence_classes(g3)
    per_top = {}
    for cl in classes:
        per_top[cl[0][-1]] = per_top.get(cl[0][-1], 0) + 1
    # one class per top vertex at n = 3
    assert set(per_top.values()) == {1}
    g4 = sc.schur_branching_graph(4)
    per_top4 = {}
    for cl in sc.path_equivalence_classes(g4):
        per_top4[cl[0][-1]] = per_top4.get(cl[0][-1], 0) + 1
    # class count per top vertex = number of tableaux of its shape
    for vid, count in per_top4.items():
        shape = g4.vertices[vid].partition
        assert count == len(sc.standard_tableaux(shape))
    # with omega = id everywhere, classes are single paths
    g = sc.BranchingGraph(2)
    lo = g.add_vertex(1, StrictPartition((1,)), "Q")
    hi = g.add_vertex(2, StrictPartition((2,)), "Q")
    g.add_edge(lo[0], hi[0])
    classes = sc.path_equivalence_classes(g)
    assert all(len(cl) == 1 for cl in classes)


def test_graph_validation_errors():
    g = sc.BranchingGraph(2)
    lo = g.add_vertex(1, StrictPartition((1,)), "M")
    hi = g.add_vertex(2, StrictPartition((2,)), "Q")
    g.add_edge(lo[0], hi[0])
    with pytest.raises(ValueError):
        g.validate()  # omega-image edge missing


def test_dot_and_json_output():
    g = sc.schur_branching_graph(3)
    dot = g.to_dot()
    assert "digraph" in dot and "style=dashed" in dot
    assert '"1|1|+"' in dot
    obj = g.to_json()
    assert obj["schema"] == "superspin/1"
    assert len(obj["levels"]) == 3
    assert all("multiplicity" in e for e in obj["edges"])


def test_odd_partition_count_check():
    assert sc.odd_partition_count_check(5) == {
        "n": 5,
        "strict_count": 3,
        "odd_count": 3,
        "supercenter_dim": 3,
        "all_equal": True,
    }
    r2 = sc.odd_partition_count_check(2)
    assert (r2["strict_count"], r2["odd_count"], r2["supercenter_dim"]) == (1, 1, 1)
    r7 = sc.odd_partition_count_check(7)
    assert r7["strict_count"] == r7["odd_count"] == r7["supercenter_dim"] == 5
    assert r7["all_equal"]
