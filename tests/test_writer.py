"""linalg.dump against its reference, json.dumps of the dense plain() form.

The CLI writes every document through linalg.dump, which renders Mat leaves
straight from their sparse rows; the bytes must equal
json.dumps(plain(doc), sort_keys=True, indent=2) for any document.
"""

import io
import json
from fractions import Fraction

import pytest

from superspin import linalg, seminormal
from superspin.exactnum import SqrtNumber
from superspin.linalg import Mat
from superspin.shiftedcomb import StrictPartition


def written(doc) -> str:
    buf = io.StringIO()
    linalg.dump(doc, buf)
    return buf.getvalue()


def reference(doc) -> str:
    return json.dumps(linalg.plain(doc), sort_keys=True, indent=2)


def test_real_documents():
    docs = [
        seminormal.build_rep_plain(StrictPartition((3, 2, 1))),
        seminormal.build_rep_clifford_tensor(StrictPartition((3, 1))),
        seminormal.regular_decompose("A", 4),
        seminormal.regular_decompose("CA", 3),
    ]
    for x in docs:
        doc = x.document()
        assert written(doc) == reference(doc) == json.dumps(x.to_json(), sort_keys=True, indent=2)


def test_edge_shapes_and_plain_payloads():
    one = Mat(1, 1, {0: {0: 1}})
    doc = {"a": Mat(0, 0), "b": [Mat(2, 0), Mat(3, 2, {1: {}}), one], "c": {"d": [[one]]}}
    assert written(doc) == reference(doc)
    assert written(one) == reference(one)
    # no Mat leaf, or a document that holds the placeholder string itself
    for doc in ({"x": [1, "a"], "y": None}, {"\0": one, "k": ["\0", one]}):
        assert written(doc) == reference(doc)
    with pytest.raises(TypeError):
        written({"x": object()})


def test_random_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    radicals = st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7, 10]), rationals), min_size=1, max_size=3
    ).map(lambda terms: SqrtNumber.from_terms([(d, Fraction(q)) for d, q in terms]))
    scalars = st.one_of(rationals, radicals)

    @st.composite
    def mats(draw):
        nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        rows = {}
        for r in range(nrows):
            if draw(st.booleans()):
                row = {c: draw(scalars) for c in range(ncols) if draw(st.booleans())}
                rows[r] = {c: v for c, v in row.items() if v}
        return Mat(nrows, ncols, rows)

    leaves = st.one_of(st.none(), st.integers(), st.text(max_size=3))

    @st.composite
    def documents(draw):
        doc = draw(st.lists(st.one_of(mats(), leaves), min_size=1, max_size=3))
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                doc = {"m": doc, draw(st.text(max_size=3)): draw(st.one_of(mats(), leaves))}
            else:
                doc = [draw(leaves), doc, draw(mats())]
        return doc

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(documents())
    def check(doc):
        assert written(doc) == reference(doc)

    check()
