import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from superspin import cli, seminormal, spinalg
from superspin.shiftedcomb import StrictPartition, strict_partitions


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


SCHEMA_REFUSED = "schema must be 'superspin/2'"


def _builder(tensor):
    return seminormal.build_rep_clifford_tensor if tensor else seminormal.build_rep_plain


def _v1_document(parts):
    """The plain model of parts in the dense superspin/1 layout, which verify
    refuses: each generator's full matrix, the parity and the basis."""
    rep = seminormal.build_rep_plain(StrictPartition(parts))
    dense = rep.dense()
    return {
        "schema": "superspin/1", "algebra": rep.algebra, "n": rep.n, "shape": list(parts),
        "dim": rep.dim, "block_dim": rep.block_dim, "parity": list(dense.parity),
        "generators": [{"name": name, "matrix": g.to_json()} for name, g in dense.generators],
        "basis": [
            {"tableau": [list(r) for r in t.rows],
             "clifford_word": [s + 1 for s in range(j.bit_length()) if j >> s & 1]}
            for t in rep.tableaux for j in range(rep.block_dim)
        ],
        "build_report": rep.build_report,
    }


def test_strict_partitions(capsys):
    rc, out = run(capsys, "strict-partitions", "4")
    assert rc == 0
    assert out.splitlines() == ["4", "3,1"]
    rc, out = run(capsys, "strict-partitions", "4", "--json")
    obj = json.loads(out)
    assert obj["schema"] == "superspin/1"
    assert obj["partitions"] == [[4], [3, 1]]


def test_tableaux(capsys):
    rc, out = run(capsys, "tableaux", "3,1", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["tableaux"] == [[[1, 2, 3], [4]], [[1, 2, 4], [3]]]


def test_spectrum_example(capsys):
    rc, out = run(capsys, "spectrum", "3,1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == "superspin/1"
    assert obj["spectra"] == [
        {"b": [0, 1, 2, 0], "a": [0, 1, 3, 0]},
        {"b": [0, 1, 0, 2], "a": [0, 1, 0, 3]},
    ]


def test_spectrum_oracle(capsys):
    rc, out = run(capsys, "spectrum", "2,1", "--oracle")
    assert rc == 0
    assert json.loads(out)["oracle_checked"] is True


@pytest.mark.parametrize("command", ["build-rep", "tableaux", "spectrum"])
def test_spectrum_invalid_partition(capsys, command):
    # not decreasing, then empty fields: none names the empty shape or (3, 1)
    for text in ["1,3", "", "3,,1", ",2", "3,"]:
        assert cli.main([command, text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid strict partition {text!r}")


def test_branching_graph_dot(capsys):
    rc, out = run(capsys, "branching-graph", "3", "--dot")
    assert rc == 0
    # 4 orbits and 2 orbit-level cover edges at the top transition
    assert out.count("label=") >= 5
    assert "style=dashed" in out
    rc, out = run(capsys, "branching-graph", "3")
    obj = json.loads(out)
    assert obj["source"] == "combinatorial"
    rc, out = run(capsys, "branching-graph", "3", "--oracle")
    assert rc == 0
    assert json.loads(out)["source"] == "from_reps"


def _dense_report(obj):
    """verify_relations of the file's model by dense products on its expanded
    generators, in JSON form."""
    rep = seminormal.GradedRep.from_json(obj)
    return json.loads(json.dumps(seminormal.verify_relations(rep, rep.dense().generators)))


def _holds_no_mat(rep):
    return all(isinstance(g, seminormal.CliffordMat) for _, g in rep.generators)


def _flip_first_coefficient(obj):
    """Flip the sign of the first coefficient of the first superspin/2 block."""
    term = obj["generators"][0]["blocks"][0][2][0][1]["terms"][0]
    term["coeff"] = term["coeff"][1:] if term["coeff"].startswith("-") else "-" + term["coeff"]


def test_build_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "rep.json"
    rc = cli.main(["build-rep", "2,1", "--out", str(path)])
    assert rc == 0
    rc, out = run(capsys, "verify", str(path))
    assert rc == 0
    report = json.loads(out)["report"]
    assert all(r["status"] == "pass" for r in report)
    obj = json.loads(path.read_text())
    assert obj["schema"] == "superspin/2"
    assert _holds_no_mat(seminormal.GradedRep.from_json(obj))
    # flip one coefficient's sign and expect failure
    _flip_first_coefficient(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc, out = run(capsys, "verify", str(bad))
    assert rc == 1
    # a file that differs from the builder's model is checked in factored form,
    # with the dense verdicts
    assert _holds_no_mat(seminormal.GradedRep.from_json(obj))
    report = json.loads(out)["report"]
    assert any("first_defect" in r for r in report)
    assert report == _dense_report(obj)


def test_verify_without_a_built_model(tmp_path, capsys, monkeypatch):
    # a builder's file is parsed and its relations checked once, in factored
    # form, with no build; the report is the build's and the dense reference's
    path = tmp_path / "rep.json"
    assert cli.main(["build-rep", "3,2", "--out", str(path)]) == 0
    built = seminormal.build_rep_plain(StrictPartition((3, 2)))
    relation_checks, builds, checked = seminormal._relation_checks, [], []

    def no_variant(shape, tensor):
        builds.append(shape)
        raise seminormal.RelationError(f"no case-(iii) variant for shape {shape}")

    monkeypatch.setattr(seminormal, "_build", no_variant)
    monkeypatch.setattr(seminormal, "_BUILD_CACHE", {})
    monkeypatch.setattr(seminormal, "_relation_checks",
                        lambda rep, *a: checked.append(rep) or relation_checks(rep, *a))
    rc, out = run(capsys, "verify", str(path))
    assert (rc, builds, len(checked)) == (0, [], 1) and _holds_no_mat(checked[0])
    monkeypatch.undo()
    report = json.loads(out)["report"]
    assert report == seminormal.verify_relations(built)
    assert report == _dense_report(json.loads(path.read_text()))
    # a copy: changing what verify_relations returned changes no later report
    seminormal.verify_relations(built)[0]["status"] = "fail"
    assert seminormal.verify_relations(built) == report


def _drop_generator(obj):
    obj["generators"].pop()


def _short_parity(obj):
    obj["parity"].pop()


def _ragged_row(obj):
    obj["generators"][0]["matrix"][0].pop()


def _matrix_not_a_list(obj):
    obj["generators"][0]["matrix"] = 5


def _n_disagrees_with_shape(obj):
    # the generators fit n = 2, the shape 2,1 needs n = 3
    obj["n"] = 2
    obj["generators"] = [g for g in obj["generators"] if g["name"] != "tau_2"]


def _unknown_algebra(obj):
    obj["algebra"] = "B_n"


def _extra_generator(obj):
    extra = json.loads(json.dumps(obj["generators"][0]))
    extra["name"] = "tau_3"
    extra["matrix"][0][0] = {"terms": [{"radicand": 1, "coeff": "5/1"}]}
    obj["generators"].append(extra)


def _first_term(obj):
    for cell in obj["generators"][0]["matrix"][0]:
        if cell["terms"]:
            return cell["terms"][0]


def _zero_denominator(obj):
    _first_term(obj)["coeff"] = "1/0"


def _exponent_coeff(obj):
    _first_term(obj)["coeff"] = "1e10000000"


def _huge_radicand(obj):
    _first_term(obj)["radicand"] = (10**9 + 7) * (10**9 + 9)


def _bool_radicand(obj):
    _first_term(obj)["radicand"] = True


def _one_by_one_model(obj):
    # a 1x1 "model" of shape 2,1 where tau_1 = tau_2 = [[1]] holds every relation
    one = [[{"terms": [{"radicand": 1, "coeff": "1/1"}]}]]
    obj.update(dim=1, block_dim=1, parity=[0], basis=obj["basis"][:1])
    obj["generators"] = [{"name": g["name"], "matrix": one} for g in obj["generators"]]


def _empty_shape(obj):
    # no cells and no generators: an empty report
    obj.update(shape=[], n=0, generators=[])


def _nonstandard_tableau(obj):
    for b in obj["basis"]:
        b["tableau"] = [[3, 2], [1]]


def _inhomogeneous_generator(obj):
    # an even entry in the odd generator tau_1
    tau1 = next(g for g in obj["generators"] if g["name"] == "tau_1")
    tau1["matrix"][0][0] = {"terms": [{"radicand": 1, "coeff": "1/1"}]}


def _even_parity(obj):
    # every basis vector even, which makes the odd generators tau_i even
    obj["parity"] = [0] * len(obj["parity"])


def _duplicate_generator(obj):
    # a sign-flipped copy of tau_1 ahead of the real one: a loader keyed by
    # name would keep the last entry and accept the file
    obj["generators"].insert(0, json.loads(json.dumps(obj["generators"][0])))
    term = _first_term(obj)
    term["coeff"] = term["coeff"][1:] if term["coeff"].startswith("-") else "-" + term["coeff"]


def _reordered_generators(obj):
    obj["generators"].reverse()


def _wrong_schema(obj):
    obj["schema"] = "superspin/99"


def _missing_schema(obj):
    del obj["schema"]


def _float_dim(obj):
    # 8.0 == 8 in Python, but the builder writes the integer 8
    obj["dim"] = float(obj["dim"])


def _float_n(obj):
    obj["n"] = 3.0


def _bool_parity(obj):
    obj["parity"] = [bool(p) for p in obj["parity"]]


def _zero_cell_as(name, value):
    """A corruption that puts `value` in the first zero cell of tau_1's first
    row: the loader skips only the writer's zero, {"terms": []}, unread."""
    def corrupt(obj):
        row = obj["generators"][0]["matrix"][0]
        row[row.index({"terms": []})] = value
    corrupt.__name__ = name
    return corrupt


def _bool_shape(obj):
    # the model of shape 1 written by build-rep 1, with the shape part true
    obj.clear()
    obj.update(_V1_SHAPE_1, shape=[True])


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_generator,
        _short_parity,
        _ragged_row,
        _matrix_not_a_list,
        _n_disagrees_with_shape,
        _unknown_algebra,
        _extra_generator,
        _zero_denominator,
        _exponent_coeff,
        _huge_radicand,
        _bool_radicand,
        _one_by_one_model,
        _empty_shape,
        _nonstandard_tableau,
        _even_parity,
        _inhomogeneous_generator,
        _duplicate_generator,
        _reordered_generators,
        _wrong_schema,
        _missing_schema,
        _float_dim,
        _float_n,
        _bool_parity,
        _bool_shape,
        _zero_cell_as("_null_terms_cell", {"terms": None}),
        _zero_cell_as("_empty_dict_cell", {}),
        _zero_cell_as("_list_cell", []),
        _zero_cell_as("_int_cell", 0),
        _zero_cell_as("_zero_radicand_cell", {"terms": [{"radicand": 0, "coeff": "1/1"}]}),
    ],
)
def test_verify_malformed_model(tmp_path, capsys, corrupt):
    # a superspin/1 file, whatever else is wrong with it, is refused at its
    # schema before any other key is read
    path = tmp_path / "rep.json"
    obj = _v1_document((2, 1))
    corrupt(obj)
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"cannot load representation: {SCHEMA_REFUSED}\n"


# superspin/2 corruptions of the plain (3,1) file: two tableaux, words below 2^4,
# generators tau_1, tau_2, tau_3 with diagonal blocks first


def _v2_block(obj, k=0):
    return obj["generators"][0]["blocks"][k]


def _v2_entry(obj):
    return _v2_block(obj)[2][0]


def _v2_set(name, edit):
    def corrupt(obj):
        edit(obj)
    corrupt.__name__ = name
    return corrupt


def _v2_coefficient_term(name, key, value):
    def edit(obj):
        _v2_entry(obj)[1]["terms"][0][key] = value
    return _v2_set(name, edit)


def _v2_duplicate_generator(obj):
    obj["generators"].insert(0, json.loads(json.dumps(obj["generators"][0])))
    _flip_first_coefficient(obj)


def _v2_extra_generator(obj):
    # tau_4, one past the last generator of (3,1)
    extra = json.loads(json.dumps(obj["generators"][0]))
    extra["name"] = "tau_4"
    obj["generators"].append(extra)


# the superspin/1 file that build-rep 1 wrote: with its schema ignored, it
# would load as the model of shape 1
_V1_SHAPE_1 = {
    "algebra": "A_n",
    "basis": [{"clifford_word": [], "tableau": [[1]]}, {"clifford_word": [1], "tableau": [[1]]}],
    "block_dim": 2,
    "build_report": {"case_iii_variant": "corrected", "relations_checked": 0,
                     "variant_distinguishable": False,
                     "variant_outcomes": {"corrected": "pass", "printed": "pass"}},
    "dim": 2, "generators": [], "n": 1, "parity": [0, 1], "schema": "superspin/1", "shape": [1],
}


_V2_CORRUPTIONS = [
    _v2_set("drop_generator", lambda obj: obj["generators"].pop()),
    _v2_set("reordered_generators", lambda obj: obj["generators"].reverse()),
    _v2_set("renamed_generator", lambda obj: obj["generators"][0].update(name="tau_9")),
    _v2_duplicate_generator,
    _v2_set("matrix_for_blocks", lambda obj: obj["generators"][0].update(
        matrix=obj["generators"][0].pop("blocks"))),
    _v2_set("blocks_not_a_list", lambda obj: obj["generators"][0].update(blocks=5)),
    _v2_set("block_not_a_triple", lambda obj: _v2_block(obj).pop()),
    _v2_set("block_as_a_dict", lambda obj: obj["generators"][0]["blocks"].__setitem__(
        0, dict(zip("abc", _v2_block(obj))))),
    _v2_set("row_out_of_range", lambda obj: _v2_block(obj).__setitem__(0, 2)),
    _v2_set("negative_column", lambda obj: _v2_block(obj).__setitem__(1, -1)),
    _v2_set("bool_row", lambda obj: _v2_block(obj).__setitem__(0, False)),
    _v2_set("float_column", lambda obj: _v2_block(obj).__setitem__(1, 0.0)),
    _v2_set("repeated_block", lambda obj: obj["generators"][0]["blocks"].append(
        json.loads(json.dumps(_v2_block(obj))))),
    _v2_set("empty_block", lambda obj: _v2_block(obj).__setitem__(2, [])),
    _v2_set("entries_not_a_list", lambda obj: _v2_block(obj).__setitem__(2, {"2": 1})),
    _v2_set("entry_not_a_pair", lambda obj: _v2_entry(obj).pop()),
    _v2_set("word_too_large", lambda obj: _v2_entry(obj).__setitem__(0, 16)),
    _v2_set("negative_word", lambda obj: _v2_entry(obj).__setitem__(0, -1)),
    _v2_set("bool_word", lambda obj: _v2_entry(obj).__setitem__(0, True)),
    _v2_set("string_word", lambda obj: _v2_entry(obj).__setitem__(0, "2")),
    _v2_set("repeated_word", lambda obj: _v2_block(obj)[2].append(
        json.loads(json.dumps(_v2_entry(obj))))),
    _v2_set("zero_coefficient", lambda obj: _v2_entry(obj).__setitem__(1, {"terms": []})),
    _v2_set("int_coefficient", lambda obj: _v2_entry(obj).__setitem__(1, 1)),
    _v2_set("null_coefficient", lambda obj: _v2_entry(obj).__setitem__(1, None)),
    _v2_coefficient_term("zero_denominator", "coeff", "1/0"),
    _v2_coefficient_term("exponent_coeff", "coeff", "1e10000000"),
    _v2_coefficient_term("huge_radicand", "radicand", (10**9 + 7) * (10**9 + 9)),
    _v2_coefficient_term("bool_radicand", "radicand", True),
    # an even word beside tau_1's odd ones, in one block and across blocks
    _v2_set("inhomogeneous_generator", lambda obj: _v2_block(obj)[2].append(
        [0, {"terms": [{"coeff": "1/1", "radicand": 1}]}])),
    _v2_set("inhomogeneous_across_blocks", lambda obj: _v2_block(obj, 1).__setitem__(
        2, [[3, {"terms": [{"coeff": "1/1", "radicand": 1}]}]])),
    _v2_set("tensor_algebra", lambda obj: obj.update(algebra="clifford_tensor_A_n")),
    _v2_set("unknown_algebra", lambda obj: obj.update(algebra="B_n")),
    _v2_set("other_schema", lambda obj: obj.update(schema="superspin/3")),
    _v2_set("missing_schema", lambda obj: obj.pop("schema")),
    _v2_set("float_dim", lambda obj: obj.update(dim=float(obj["dim"]))),
    _v2_set("wrong_dim", lambda obj: obj.update(dim=obj["dim"] + 1)),
    _v2_set("bool_block_dim", lambda obj: obj.update(block_dim=True)),
    _v2_set("float_n", lambda obj: obj.update(n=4.0)),
    _v2_set("bool_shape", lambda obj: obj.update(shape=[True])),
    _v2_set("eight_cells", lambda obj: obj.update(shape=[7, 1])),
    _v2_set("generators_not_a_list", lambda obj: obj.update(generators={"tau_1": []})),
    # the generators of n = 3 under the shape of n = 4
    _v2_set("n_disagrees_with_shape", lambda obj: obj.update(
        n=3, generators=obj["generators"][:2])),
    _v2_set("empty_shape", lambda obj: obj.update(shape=[], n=0, generators=[])),
    _v2_extra_generator,
    _v2_set("superspin_1_document", lambda obj: obj.clear() or obj.update(_V1_SHAPE_1)),
]


@pytest.mark.parametrize("corrupt", _V2_CORRUPTIONS, ids=lambda c: c.__name__)
def test_verify_malformed_v2_model(tmp_path, capsys, corrupt):
    path = tmp_path / "rep.json"
    assert cli.main(["build-rep", "3,1", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    corrupt(obj)
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load representation: ") and "Traceback" not in err
    if corrupt.__name__ in ("other_schema", "missing_schema", "superspin_1_document"):
        assert err == f"cannot load representation: {SCHEMA_REFUSED}\n"
    if corrupt.__name__.startswith("inhomogeneous"):
        assert err == "cannot load representation: generator tau_1 is not parity-homogeneous\n"


def test_verify_checks_the_header_before_making_the_model(tmp_path, capsys, monkeypatch):
    # a wrong dim is refused before any block is read or any model made
    path = tmp_path / "rep.json"
    assert cli.main(["build-rep", "3,1", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["dim"] += 1
    path.write_text(json.dumps(obj))

    def refuse(*args):
        raise AssertionError("a model was made from a file with a wrong header")

    monkeypatch.setattr(seminormal, "_factored_from_json", refuse)
    monkeypatch.setattr(seminormal.GradedRep, "new", refuse)
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"cannot load representation: dim does not match the builder's model of "
        f"{StrictPartition((3, 1))}\n")


def test_verify_fuzzed_v2_model(tmp_path):
    # the superspin/2 reader holds the exit-code contract on mutated files:
    # 0, 1 or 2, never a traceback, and no hang
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    source = tmp_path / "rep.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build-rep", "3,1", "--algebra", "tensor", "--out", str(source)]) == 0
    base = source.read_text()
    keys = sorted(json.loads(base))
    junk = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**30), 10**30),
        st.text(max_size=8),
        st.lists(st.integers(-3, 9), max_size=4),
    )
    header = st.tuples(
        st.sampled_from(["drop", "set"]),
        st.sampled_from(keys),
        st.one_of(junk, st.sampled_from(["A_n", "clifford_tensor_A_n", "superspin/1"]),
                  st.integers(0, 8)),
    )
    values = st.one_of(
        junk,
        st.integers(-2, 300),
        st.sampled_from(["1/0", "1e10000000", "-0/1", "3/2", " 1/2", 0, 1, 2, 10**18 + 7]),
        st.builds(lambda: {"terms": []}),
        st.builds(lambda: {"terms": [{"coeff": "-1/1", "radicand": 1}]}),
    )
    # (generator, block, entry, where, value): where picks the generator's name
    # or blocks, a block to overwrite, drop or copy, its row, column or
    # entries, an entry to overwrite or drop, or the word, the coefficient or
    # one term's coefficient or radicand of an entry
    edit = st.tuples(
        st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
        st.sampled_from(["name", "blocks", "block", "drop_block", "copy_block", "row", "col",
                         "entries", "entry", "drop_entry", "word", "coefficient", "coeff",
                         "radicand"]),
        values,
    )
    slots = {"row": 0, "col": 1, "entries": 2}

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.lists(header, max_size=2), st.lists(edit, max_size=3))
    def check(headers, edits):
        obj = json.loads(base)
        gens = obj["generators"]
        for g, b, e, where, value in edits:
            gen = gens[g % len(gens)]
            if where in ("name", "blocks"):
                gen[where] = value
                continue
            blocks = gen["blocks"]
            if not isinstance(blocks, list) or not blocks:
                continue
            k = b % len(blocks)
            if where in ("block", "drop_block", "copy_block"):
                if where == "block":
                    blocks[k] = value
                elif where == "drop_block":
                    del blocks[k]
                else:
                    blocks.append(json.loads(json.dumps(blocks[k])))
                continue
            block = blocks[k]
            if not isinstance(block, list) or len(block) != 3:
                continue
            if where in slots:
                block[slots[where]] = value
                continue
            entries = block[2]
            if not isinstance(entries, list) or not entries:
                continue
            i = e % len(entries)
            if where in ("entry", "drop_entry"):
                if where == "entry":
                    entries[i] = value
                else:
                    del entries[i]
                continue
            entry = entries[i]
            if not isinstance(entry, list) or len(entry) != 2:
                continue
            if where in ("word", "coefficient"):
                entry[0 if where == "word" else 1] = value
                continue
            coef = entry[1]
            if isinstance(coef, dict) and isinstance(coef.get("terms"), list) and coef["terms"]:
                if isinstance(coef["terms"][0], dict):
                    coef["terms"][0][where] = value
        for action, key, value in headers:
            if action == "drop":
                obj.pop(key, None)
            else:
                obj[key] = value
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", str(path)])
        assert time.perf_counter() - start < 10
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc != 2:
            # checked in factored form, with the expanded generators' report
            report = json.loads(out.getvalue())["report"]
            assert report == _dense_report(json.loads(path.read_text()))

    check()


def test_commands_fuzzed():
    # every command but verify (fuzzed above) holds the exit-code contract on
    # small and malformed arguments: 0, 1 or 2, never a traceback.  The sizes
    # are bounded per command so that each example runs in about 1 s or less.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    junk = st.sampled_from(["", "x", "2.5", "1e3", "3,,1", " 2", "2,2", "0", "-0"])

    def ints(hi):
        return st.one_of(st.integers(-3, hi).map(str), junk)

    def partitions(size):
        # comma-joined small ints whose absolute values sum to at most size
        lists = st.lists(st.integers(-3, 6), max_size=3).filter(
            lambda ps: sum(map(abs, ps)) <= size
        )
        return st.one_of(lists.map(lambda ps: ",".join(map(str, ps))), junk)

    def flags(*names):
        return st.lists(st.sampled_from(names), max_size=2, unique=True)

    def command(*parts):
        return st.tuples(*parts).map(lambda t: [x for part in t for x in part])

    def one(strategy):
        return strategy.map(lambda x: [x])

    argvs = st.one_of(
        command(st.just(["strict-partitions"]), one(ints(6)), flags("--json")),
        command(st.just(["tableaux"]), one(partitions(15)), flags("--json")),
        command(st.just(["spectrum"]), one(partitions(15))),
        command(st.just(["spectrum"]), one(partitions(6)), st.just(["--oracle"])),
        command(st.just(["branching-graph"]), one(ints(6)), flags("--dot")),
        command(st.just(["branching-graph"]), one(ints(4)), st.just(["--oracle"]), flags("--dot")),
        command(st.just(["build-rep"]), one(partitions(6))),
        command(st.just(["build-rep"]), one(partitions(5)), st.just(["--algebra", "tensor"])),
        command(st.just(["supercenter"]), one(ints(6))),
        command(st.just(["gz"]), one(ints(4))),
        command(st.just(["decompose-regular"]), one(st.sampled_from(["A", "CA", "B"])), one(ints(4))),
        command(st.just(["check-all", "--max-n"]), one(ints(3)), flags("--json", "--negative-control")),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(argvs)
    def check(argv):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                rc = exc.code
        assert time.perf_counter() - start < 5
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    check()


def test_verify_missing_file(capsys):
    rc = cli.main(["verify", "/definitely/not/there.json"])
    assert rc == 2


def test_verify_deeply_nested_json(tmp_path, capsys):
    # json.load recurses once per bracket and raises RecursionError on this file
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot load representation: ")


def _verify(path):
    """(exit code, stdout, stderr) of `verify path`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", str(path)])
    return rc, out.getvalue(), err.getvalue()


def _parsed_verify(text):
    """(exit code, stdout) of verify by the parse path: from_json of the parsed
    text, then verify_relations."""
    report = seminormal.verify_relations(seminormal.GradedRep.from_json(json.loads(text)))
    out = json.dumps({"schema": cli.SCHEMA, "report": report}, sort_keys=True, indent=2)
    return (0 if all(r["status"] == "pass" for r in report) else 1), out + "\n"


def _build_file(path, parts, tensor=False):
    flag = ["--algebra", "tensor"] if tensor else []
    assert cli.main(["build-rep", ",".join(map(str, parts)), *flag, "--out", str(path)]) == 0


@pytest.mark.parametrize(
    "parts, tensor",
    [(s.parts, tensor) for k in range(1, 8) for s in strict_partitions(k) for tensor in (False, True)],
    ids=str,
)
def test_verify_of_a_builders_file_matches_the_parse(tmp_path, parts, tensor):
    # the file is parsed and its model checked in factored form, with the
    # report of the build
    path = tmp_path / "model.json"
    _build_file(path, parts, tensor)
    rc, out, err = _verify(path)
    assert (rc, err) == (0, "")
    text = path.read_text(encoding="utf-8")
    assert (rc, out) == _parsed_verify(text)
    built = _builder(tensor)(StrictPartition(parts))
    assert json.loads(out)["report"] == seminormal.verify_relations(built)
    # the file is compact JSON on one line, the model's document exactly
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == built.to_json()
    # the indented layout that earlier versions wrote verifies alike, byte
    # for byte
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    assert _verify(indented) == (rc, out, err)


def _near_misses(text):
    """label -> the text of the builder's compact file with one change."""
    at = text.rfind(',"shape":') + len(',"shape":')

    def tail(value):
        return text[:at] + json.dumps(value, separators=(",", ":")) + "}\n"

    obj = json.loads(text)
    _flip_first_coefficient(obj)
    return {
        "indent=1": json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n",
        "no final newline": text[:-1],
        "sign flip": json.dumps(obj, sort_keys=True, indent=2) + "\n",
        "[30]": tail([30]),
        "[3, 3]": tail([3, 3]),
        '"x"': tail("x"),
        "unknown algebra": text.replace('"algebra":"A_n"', '"algebra":"B_n"', 1),
        "deep shape": text[:at] + "[" * 5000 + "]" * 5000 + "}\n",
    }


def test_verify_of_near_misses_takes_the_parse_path(tmp_path):
    source = tmp_path / "model.json"
    _build_file(source, (3, 2))
    text = source.read_text(encoding="utf-8")
    builders = _verify(source)
    results = {}
    for label, variant in _near_misses(text).items():
        path = tmp_path / "variant.json"
        path.write_text(variant, encoding="utf-8")
        results[label] = _verify(path)
    assert results["indent=1"] == results["no final newline"] == builders
    rc, out, err = results["sign flip"]
    assert (rc, err) == (1, "")
    report = json.loads(out)["report"]
    assert any("first_defect" in r for r in report)
    assert report == _dense_report(json.loads(_near_misses(text)["sign flip"]))
    assert {label: r for label, r in results.items() if r[0] == 2} == {
        "[30]": (2, "", "cannot load representation: shape 30 must have 1 to 7 cells\n"),
        "[3, 3]": (2, "", "cannot load representation: parts must be strictly decreasing: (3, 3)\n"),
        '"x"': (2, "", "cannot load representation: shape must be a list of integers\n"),
        "unknown algebra": (2, "", "cannot load representation: unknown algebra 'B_n'\n"),
        "deep shape": (2, "", "cannot load representation: maximum recursion depth exceeded "
                              "while decoding a JSON array from a unicode string\n"),
    }


def _parse_path(path):
    """(exit code, stdout, stderr) of verify by the parse path alone: the file
    read as UTF-8 text, parsed, then from_json and verify_relations."""
    try:
        rc, out = _parsed_verify(path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return 2, "", f"cannot load representation: {exc}\n"
    return rc, out, ""


def test_verify_of_changed_bytes_takes_the_parse_path(tmp_path):
    # changed bytes are judged by the parse of their text, with its newline
    # translation and its UTF-8 errors
    source = tmp_path / "model.json"
    _build_file(source, (3, 2))
    data = source.read_bytes()
    builders = _verify(source)
    inside = data.index(b'"blocks":[') + 40  # in the first block of the first generator
    # the indented layout of earlier versions, so that CRLF falls inside the document
    indented = json.dumps(json.loads(data), sort_keys=True, indent=2).encode() + b"\n"
    variants = {
        "CRLF": indented.replace(b"\n", b"\r\n"),
        "bytes after the final newline": data + b"\n",
        "invalid UTF-8": data[:inside] + b"\xff" + data[inside + 1 :],
        "cut mid-blocks": data[:inside],
        "empty": b"",
    }
    results = {}
    for label, variant in variants.items():
        path = tmp_path / "variant.json"
        path.write_bytes(variant)
        results[label] = _verify(path)
        assert results[label] == _parse_path(path), label
    assert results["CRLF"] == results["bytes after the final newline"] == builders
    assert results["invalid UTF-8"] == (
        2, "", f"cannot load representation: 'utf-8' codec can't decode byte 0xff "
               f"in position {inside}: invalid start byte\n")
    assert results["cut mid-blocks"][:2] == (2, "")
    assert results["empty"] == (
        2, "", "cannot load representation: Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_verify_of_a_builders_file_through_a_fifo(tmp_path):
    # a pipe cannot seek: its text is read once and parsed, like a file's
    source, fifo = tmp_path / "model.json", tmp_path / "model.fifo"
    _build_file(source, (3, 2))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(source.read_bytes(),), daemon=True)
    writer.start()
    result = _verify(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert result[0] == 0
    assert result == _verify(source)


def test_supercenter(capsys):
    rc, out = run(capsys, "supercenter", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["dimension"] == 2
    assert len(obj["basis"]) == 2


def test_gz(capsys):
    rc, out = run(capsys, "gz", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["maximality_flag"] is True
    assert obj["gz_dim"] == 3


def test_decompose_regular(capsys):
    rc, out = run(capsys, "decompose-regular", "A", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == "superspin/1"
    assert [b["type"] for b in obj["blocks"]] == ["Q", "M"]


@pytest.mark.parametrize("tag, n", [("A", 4), ("CA", 3)])
def test_decompose_regular_report_holds_central_idempotents(capsys, tag, n):
    # the printed report alone: each block's idempotent read back as an element
    rc, out = run(capsys, "decompose-regular", tag, str(n))
    assert rc == 0
    obj = json.loads(out)
    ctx = spinalg.context(n, clifford=tag == "CA")
    size = len(ctx.words)
    assert obj["algebra_dim"] == size
    es = [spinalg.SpinElement.from_json(b["idempotent"]) for b in obj["blocks"]]
    assert all(e.ctx is ctx for e in es)
    zero, one = spinalg.SpinElement(ctx), spinalg.SpinElement(ctx, {ctx.identity: 1})
    for i, e in enumerate(es):
        for j, f in enumerate(es):
            assert e * f == (e if i == j else zero), (i, j)
    assert sum(es, zero) == one
    # every letter: tau_1 .. tau_{n-1}, and p_1 .. p_n in the extension
    gens = []
    for g in range(1, len(ctx.left) + 1):
        sign, word = ctx.left_mul_gen(g, ctx.identity)
        gens.append(spinalg.SpinElement(ctx, {word: sign}))
    assert len(gens) == (2 * n - 1 if tag == "CA" else n - 1)
    for e, b in zip(es, obj["blocks"]):
        assert all(e * g == g * e for g in gens)
        assert size * e.coeffs.get(ctx.identity, 0) == b["dimension"]


def test_determinism(capsys):
    _, out1 = run(capsys, "branching-graph", "4")
    _, out2 = run(capsys, "branching-graph", "4")
    assert out1 == out2
    _, out1 = run(capsys, "decompose-regular", "A", "3")
    _, out2 = run(capsys, "decompose-regular", "A", "3")
    assert out1 == out2


def test_check_all_small(capsys):
    rc, out = run(capsys, "check-all", "--max-n", "2", "--json")
    assert rc == 0
    results = json.loads(out)["results"]
    assert all(r["status"] == "pass" for r in results)


def test_check_all_negative_control(capsys):
    rc, out = run(capsys, "check-all", "--max-n", "2", "--negative-control")
    assert rc == 1
    assert "FAIL" in out
    # the first failing identity and its first nonzero defect entry, exactly:
    # tau_1 flipped at (0, 0) makes tau_1^2 - 1 read -2 there
    assert out.endswith(
        "       injected mutation produced 1 relation failures; "
        "first: tau_1^2 = 1, defect -2 at row 0, column 0\n"
    )


def test_out_file(tmp_path, capsys):
    path = tmp_path / "parts.json"
    rc = cli.main(["strict-partitions", "5", "--json", "--out", str(path)])
    assert rc == 0
    assert json.loads(path.read_text())["partitions"] == [[5], [4, 1], [3, 2]]


@pytest.mark.parametrize(
    "argv", [["build-rep", "3"], ["strict-partitions", "5", "--json"], ["strict-partitions", "5"]]
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    assert cli.main([*argv, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_closed_stdout_exits_2():
    # the reader takes a few bytes of the 1.7 MB graph and closes the pipe
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "superspin.cli", "branching-graph", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ) as proc:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["strict-partitions", "91"],
        ["tableaux", "7,6,5,4,3,2,1"],
        ["tableaux", "101"],
        ["spectrum", "7,6,5,4,3,2,1"],
        ["supercenter", "9"],
        ["branching-graph", "31"],
        ["branching-graph", "0"],
        ["check-all", "--max-n", "1"],
        ["check-all", "--max-n", "0"],
        ["check-all", "--max-n", "-3"],
        ["check-all", "--max-n", "1", "--negative-control"],
        ["supercenter", "0"],
        ["supercenter", "-2"],
        ["strict-partitions", "-1"],
        ["decompose-regular", "A", "7"],
        ["decompose-regular", "CA", "6"],
    ],
)
def test_size_caps(capsys, argv):
    # refused at once, before any enumeration, with a message and no traceback
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_relation_error_exits_1(capsys, monkeypatch):
    from superspin import seminormal

    def failing_build(shape):
        raise seminormal.RelationError(f"spectrum contract failed for {shape}")

    monkeypatch.setattr(seminormal, "build_rep_plain", failing_build)
    assert cli.main(["spectrum", "3,1", "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "build failed verification: spectrum contract failed for 3,1\n"
    assert cli.main(["build-rep", "3,1"]) == 1
    assert capsys.readouterr().err.startswith("build failed verification: ")


@pytest.mark.parametrize(
    "failure",
    [
        "blocks", "eigen", "unclassified", "omega", "central", "simple", "avec", "bvector",
        "repeated",
    ],
)
def test_internal_check_failure_exits_1(capsys, monkeypatch, failure):
    from superspin import gradedstruct, linalg, seminormal, shiftedcomb

    argv = ["decompose-regular", "A", "3"]
    if failure == "blocks":
        # the root 1 of the total YJM square (the Q(1) block) gets a zero
        # idempotent: the block dimensions no longer sum to 3! = 6
        project = seminormal.lagrange_projector
        monkeypatch.setattr(
            seminormal, "lagrange_projector",
            lambda one, terms: one.scale(0) if terms[0][1] == 1 else project(one, terms),
        )
        message = "check failed: block dimensions 4 do not sum to 6\n"
    elif failure == "repeated":
        # the first two joint eigenspaces of the pi_k^2 on C[pi^2] come back as
        # one two-dimensional piece, as a repeated joint eigenvalue would
        split = seminormal.eigensplit

        def merged(pieces, ops):
            (first, label), (second, _), *rest = split(pieces, ops)
            both = linalg.Subspace(first.dim_ambient, first.basis + second.basis)
            return [(both, label)] + rest

        monkeypatch.setattr(seminormal, "eigensplit", merged)
        message = (
            "check failed: joint spectrum of the pi_k^2 is not simple: "
            "a-vectors [(0, 1, 0)] on C[pi^2] of dimension 2\n"
        )
    elif failure == "eigen":
        # every minimal polynomial stays one factor with no root in the field
        monkeypatch.setattr(linalg, "poly_factors", lambda coeffs: [(list(coeffs), None)])
        message = "check failed: minimal polynomial did not split over the field\n"
    elif failure == "unclassified":
        # fresh models, so that no summand was classified before the patch
        monkeypatch.setattr(seminormal, "_BUILD_CACHE", {})
        monkeypatch.setattr(seminormal, "classify_module", lambda mod: {"kind": "reducible"})
        argv = ["branching-graph", "3", "--oracle"]
        message = "check failed: reference module for 2 did not classify: reducible\n"
    elif failure == "central":
        # criterion 6 loses a central piece of every tensor-product algebra
        split = gradedstruct.split_module_by_central
        monkeypatch.setattr(
            gradedstruct, "split_module_by_central", lambda dim, ops: split(dim, ops)[1:]
        )
        argv = ["check-all", "--max-n", "2"]
        message = (
            "check failed: central split found 0 pieces for 1 central dimensions; "
            "non-semisimple or non-split input\n"
        )
    elif failure == "simple":
        # every block reported twice: a tensor of simple algebras looks split
        decompose = gradedstruct.decompose_semisimple

        def doubled(a):
            report = decompose(a)
            report.blocks += report.blocks
            return report

        monkeypatch.setattr(gradedstruct, "decompose_semisimple", doubled)
        argv = ["check-all", "--max-n", "2"]
        message = "check failed: tensor of simple algebras should stay simple\n"
    elif failure in ("avec", "bvector"):
        # labels that start with an a-vector no tableau has: a_2 = 2 is not
        # triangular, a_2 = 3 gives b = (0, 2), which cannot follow b_1 = 0
        avec = (0, 2) if failure == "avec" else (0, 3)
        shadow = seminormal._rational_shadow

        def relabelled(rep):
            mod = shadow(rep)
            mod.labels = tuple(avec + label[len(avec):] for label in mod.labels)
            return mod

        monkeypatch.setattr(seminormal, "_BUILD_CACHE", {})
        monkeypatch.setattr(seminormal, "_rational_shadow", relabelled)
        argv = ["branching-graph", "3", "--oracle"]
        why = "17 is not a perfect square" if failure == "avec" else "invalid b-vector (0, 2)"
        message = f"check failed: no shifted tableau has a-vector {avec}: {why}\n"
    else:
        # one extra "+" -> "+" edge per cover breaks the omega symmetry
        add_edge = shiftedcomb.BranchingGraph.add_edge

        def lopsided(graph, u, v, mult=1):
            add_edge(graph, u, v, mult + (u.endswith("|+") and v.endswith("|+")))

        monkeypatch.setattr(shiftedcomb.BranchingGraph, "add_edge", lopsided)
        argv = ["branching-graph", "4"]
        message = "check failed: omega is not a graph automorphism\n"
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
