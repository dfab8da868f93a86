"""Seminormal matrix models for the spin algebra and its Clifford extension.

A representation for a strict partition is assembled blockwise: one block per
standard shifted tableau, each block a fixed module of a real Clifford
algebra.  On the block of tableau T the YJM element pi_i acts as
sqrt(a_i(T)) * H_i for a position-indexed odd generator H_i, and tau_i acts
by the local ratio (pi_i - pi_{i+1})/(a_i - a_{i+1}) plus, on split pairs, an
off-diagonal term proportional to (H_i - H_{i+1})/sqrt(2) joining T to its
transposed neighbor.  The ascending coefficient is 1; the descending one is
adjudicated between the printed scalar and the corrected denominator, and the
whole construction is validated by exact relation checks, spectra, and the
regular-representation oracle.

A model is its generators, each a block matrix over the Clifford algebra
(`CliffordMat`: per tableau pair, a map from Clifford words to coefficients).
It is built, checked, written (superspin/2) and read in that form, at about 1/w
of the dense cost for blocks of size w, and expands nothing: the Clifford
module is faithful, so a factored defect is zero exactly when its expansion
is, and only a failing one is expanded, to name its first entry.  A model is
classified on the module of rational generators read off that form, labelled
with the tableaux's a-vectors, which give each summand's shape; its dense
module is made only on request (`GradedRep.dense`).  The oracle reads every
block off one joint spectrum, that of the squared YJM elements on the algebra
they generate; it multiplies elements of the algebra and builds no matrix but
the central idempotent of each block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Callable, Iterator, Sequence

from . import spinalg
from .exactnum import Scalar, SqrtNumber, rational_of, scalar_json, sqrt_rational
from .gradedstruct import (
    BlockReport,
    GradedMatrixAlgebra,
    classify_module,
    module_commutant,
    simple_block,
    split_into_irreducibles,
)
from .linalg import CheckFailed, Mat, Subspace, Vec, eigensplit, plain
from .linalg import lagrange_projector, vec_add_scaled
from .shiftedcomb import (
    BranchingGraph,
    ShiftedTableau,
    StrictPartition,
    apply_transposition,
    spectrum_vector,
    standard_tableaux,
    strict_partitions,
    tableau_from_bvector,
)
from .spinalg import word_product

SQRT2 = sqrt_rational(2)
INV_SQRT2 = SQRT2.invert()
MODEL_SCHEMA = "superspin/2"  # the layout of `GradedRep.document`


# -- real Clifford modules -------------------------------------------------------


def _signed_perm(dim: int, flip: int, zmask: int = 0, ymask: int = 0) -> Mat:
    """r -> r XOR flip with sign (-1)^(|r & zmask| + |~r & ymask|)."""
    return Mat(dim, dim, {
        r: {r ^ flip: (-1) ** ((r & zmask).bit_count() + (~r & ymask).bit_count())}
        for r in range(dim)
    })


@cache
def clifford_module(m: int) -> tuple[int, tuple[Mat, ...], tuple[int, ...]]:
    """(dim, generators, parity) for m anticommuting odd involutions over the field,
    made once per m and shared.

    Uses paired slots with one extra realification slot, so the dimension is
    2^(ceil(m/2) + 1) for m >= 2; the quaternionic obstruction over real
    scalars rules out the complex-minimal size for some ranks.  Slot j of k is
    bit k+1-j of the basis index and the realification slot is bit 0.  Pair j
    is X on slot j, then Y on slots j and 0, each after Z on slots 1..j-1: X
    flips a bit, Z signs a set bit, Y flips a bit and signs a clear one, so
    every generator is a signed permutation.
    """
    if m == 0:
        return 1, (), (0,)
    if m == 1:
        return 2, (_signed_perm(2, 1),), (0, 1)
    k = (m + 1) // 2
    dim = 1 << (k + 1)
    gens: list[Mat] = []
    for j in range(1, k + 1):
        bit = 1 << (k + 1 - j)
        earlier = dim - 2 * bit  # the bits of slots 1 .. j-1
        gens.append(_signed_perm(dim, bit, earlier))
        if 2 * j <= m:
            gens.append(_signed_perm(dim, bit | 1, earlier, bit | 1))
    parity = tuple(bin(i >> 1).count("1") % 2 for i in range(dim))
    return dim, tuple(gens), parity


def _word_action(m: int, u: int) -> list[tuple[int, int, int]]:
    """(row, column, sign) of each entry of word u on clifford_module(m), the
    ascending product of its generators, composed as signed permutations.  The
    entries come in row order, the order the module solves see them in."""
    w, gens, _ = clifford_module(m)
    cols = [g.cols() for g in gens]
    out = []
    for c in range(w):
        r, s = c, 1
        for i in reversed(range(m)):
            if u >> i & 1:
                ((r, x),) = cols[i][r].items()
                s *= x
        out.append((r, c, s))
    return sorted(out)


class CliffordMat:
    """A g x g block matrix over the Clifford algebra Cl_m: the sum of E_ab (x) c_ab.

    `blocks` maps (a, b) to c_ab, a nonzero map {word: coefficient} (see
    `word_product`).  `expand` is the dense matrix on g copies of
    `clifford_module(m)`, word u acting as the ascending product of its
    generators.  Expansion is an injective algebra homomorphism, since the
    module is faithful (each word is a signed permutation r -> r XOR f with
    sign (-1)^(popcount(r & c) + k), and no two words share both f and c), so a
    relation holds here exactly when it holds densely.
    """

    __slots__ = ("g", "m", "blocks")

    def __init__(self, g: int, m: int, blocks: dict[tuple[int, int], dict[int, Scalar]]):
        self.g, self.m, self.blocks = g, m, {k: el for k, el in blocks.items() if el}

    def is_zero(self) -> bool:
        return not self.blocks

    def scale(self, c: Scalar) -> CliffordMat:
        return CliffordMat(self.g, self.m, {
            k: vec_add_scaled({}, el, c) for k, el in self.blocks.items()
        })

    def __neg__(self) -> CliffordMat:
        return self.scale(-1)

    def __add__(self, other: CliffordMat, c: Scalar = 1) -> CliffordMat:
        blocks = dict(self.blocks)
        for k, el in other.blocks.items():
            blocks[k] = vec_add_scaled(blocks.get(k, {}), el, c)
        return CliffordMat(self.g, self.m, blocks)

    def __sub__(self, other: CliffordMat) -> CliffordMat:
        return self.__add__(other, -1)

    def __mul__(self, other: CliffordMat) -> CliffordMat:
        by_row: dict[int, list] = {}
        for (b, c), el in other.blocks.items():
            by_row.setdefault(b, []).append((c, el))
        blocks: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (a, b), x in self.blocks.items():
            for c, y in by_row.get(b, ()):
                tgt = blocks.setdefault((a, c), {})
                for u, xu in x.items():
                    for v, yv in y.items():
                        sign, w = word_product(u, v)
                        p = xu * yv if sign > 0 else -(xu * yv)
                        s = tgt.get(w)
                        s = p if s is None else s + p
                        if s:
                            tgt[w] = s
                        else:
                            del tgt[w]
        return CliffordMat(self.g, self.m, blocks)

    def expand(self) -> Mat:
        w = clifford_module(self.m)[0]
        rows: dict[int, Vec] = {}
        words: dict[int, list] = {}
        for (a, b), el in self.blocks.items():
            for u, x in el.items():
                if u not in words:
                    words[u] = _word_action(self.m, u)
                signed = {1: x, -1: -x}
                for r, c, s in words[u]:
                    tgt, key = rows.setdefault(a * w + r, {}), b * w + c
                    v = tgt[key] + signed[s] if key in tgt else signed[s]
                    if v:
                        tgt[key] = v
                    else:
                        del tgt[key]
        return Mat(self.g * w, self.g * w, {r: row for r, row in rows.items() if row})


# -- graded representations ------------------------------------------------------


@dataclass
class GradedRep:
    """A seminormal model: its algebra's generators as `CliffordMat`s, one block
    per pair of standard tableaux of its shape, labelled by their a-vectors.
    `new` makes every model, deriving all but the generators from the shape and
    the algebra; `dense` gives the generic module of the expanded generators."""

    dim: int
    parity: tuple[int, ...]
    generators: list[tuple[str, CliffordMat]]
    algebra: str  # "A_n" or "clifford_tensor_A_n"
    shape: StrictPartition
    tableaux: list[ShiftedTableau]
    avecs: list[tuple[int, ...]]
    block_dim: int
    build_report: dict = field(default_factory=dict)
    _pi_cache: dict = field(default_factory=dict, repr=False)
    _irreducible: tuple = field(default=(), repr=False)  # see first_summand
    _rational: tuple = field(default=(), repr=False)  # see rational_shadow
    _relations: tuple = field(default=(), repr=False)  # the build's report, see _build

    @classmethod
    def new(cls, shape: StrictPartition, tensor: bool,
            generators: list[tuple[str, CliffordMat]],
            build_report: dict | None = None) -> GradedRep:
        """The model of `shape` with these generators, which must be tau_1 ..
        tau_{n-1}, then p_1 .. p_n for the Clifford-extended algebra, in order;
        none is expanded."""
        n = shape.n
        names = [f"tau_{i}" for i in range(1, n)]
        names += [f"p_{i}" for i in range(1, n + 1)] if tensor else []
        if [name for name, _ in generators] != names:
            raise ValueError(f"generators must be exactly {', '.join(names)}, in order")
        tabs = standard_tableaux(shape)
        block_dim, _, cparity = clifford_module(2 * n if tensor else n)
        return cls(
            len(tabs) * block_dim, cparity * len(tabs), generators,
            algebra="clifford_tensor_A_n" if tensor else "A_n", shape=shape,
            tableaux=tabs, avecs=[spectrum_vector(t).a for t in tabs],
            block_dim=block_dim, build_report=build_report or {},
        )

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def has_clifford(self) -> bool:
        return self.algebra == "clifford_tensor_A_n"

    def generator(self, name: str) -> CliffordMat:
        return dict(self.generators)[name]

    def one(self) -> CliffordMat:
        blocks = {(t, t): {0: 1} for t in range(len(self.tableaux))}
        return CliffordMat(len(self.tableaux), self.n * (1 + self.has_clifford), blocks)

    def pi(self, k: int) -> CliffordMat:
        if not self._pi_cache:
            self._pi_cache[1] = self.one().scale(0)
        return yjm_matrix(self.generator, k, self._pi_cache)

    def dense(self) -> GradedMatrixAlgebra:
        """The unlabelled module of the expanded generators, made at each call:
        the generic path of a model with no labelled rational module, the
        intertwiners, the negative control and slow-path references."""
        gens = [(name, g.expand()) for name, g in self.generators]
        return GradedMatrixAlgebra(self.dim, self.parity, gens)

    def rational_shadow(self) -> GradedMatrixAlgebra | None:
        """The model's labelled rational module (`_rational_shadow`), made at the
        first call, or None."""
        if not self._rational:
            self._rational = (_rational_shadow(self) if self.generators else None,)
        return self._rational[0]

    def document(self) -> dict:
        """The superspin/2 layout of a model: each generator, in order, as its
        blocks [row tableau, column tableau, [[word, coefficient], ...]], sorted,
        with tableaux numbered in `standard_tableaux` order, words as CliffordMat
        bitmasks and coefficients in the scalar wire format."""
        return {
            "schema": MODEL_SCHEMA,
            "algebra": self.algebra,
            "n": self.n,
            "shape": list(self.shape.parts),
            "dim": self.dim,
            "block_dim": self.block_dim,
            "generators": [
                {"name": name, "blocks": [
                    [a, b, [[u, scalar_json(x)] for u, x in sorted(el.items())]]
                    for (a, b), el in sorted(f.blocks.items())
                ]}
                for name, f in self.generators
            ],
            "build_report": self.build_report,
        }

    def to_json(self) -> dict:
        return plain(self.document())

    @classmethod
    def read(cls, path) -> GradedRep:
        """The model of a file: from_json of its parsed UTF-8 text."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    @classmethod
    def from_json(cls, obj: dict) -> GradedRep:
        """The model of a superspin/2 document, made by `new` from its checked
        blocks (`_factored_from_json`), so that it is checked in factored form.
        The schema comes first, then the shape, a strict partition of 1 to 7
        given as integers, and a known algebra; n, dim and block_dim must be
        those these give, value and JSON type alike, before any block is read."""
        if not isinstance(obj, dict) or obj.get("schema") != MODEL_SCHEMA:
            raise ValueError(f"schema must be {MODEL_SCHEMA!r}")
        parts = obj["shape"]
        if not isinstance(parts, list) or any(type(p) is not int for p in parts):
            raise ValueError("shape must be a list of integers")
        shape = StrictPartition(tuple(parts))
        if obj["algebra"] not in ("A_n", "clifford_tensor_A_n"):
            raise ValueError(f"unknown algebra {obj['algebra']!r}")
        if not 1 <= shape.n <= 7:
            raise ValueError(f"shape {shape} must have 1 to 7 cells")
        tensor = obj["algebra"] == "clifford_tensor_A_n"
        block_dim = clifford_module(2 * shape.n if tensor else shape.n)[0]
        derived = {"n": shape.n, "dim": len(standard_tableaux(shape)) * block_dim,
                   "block_dim": block_dim}
        for key, value in derived.items():
            if type(obj.get(key)) is not int or obj[key] != value:
                raise ValueError(f"{key} does not match the builder's model of {shape}")
        generators = _factored_from_json(obj["generators"], shape, tensor)
        return cls.new(shape, tensor, generators, obj.get("build_report", {}))


def _factored_from_json(
    gens: list, shape: StrictPartition, tensor: bool
) -> list[tuple[str, CliffordMat]]:
    """(name, CliffordMat) of each generator of a superspin/2 file.  Every block
    must be [row tableau, column tableau, [[word, coefficient], ...]] with
    tableau indices in range, words below 2^m and nonzero coefficients, given
    as integers and in the scalar wire format, and no block, nor word in one,
    may be empty or repeated.  A generator's words must have one parity, that
    of their popcount, across all its blocks."""
    g, m = len(standard_tableaux(shape)), shape.n * (1 + tensor)
    out = []
    for gen in gens:
        blocks: dict[tuple[int, int], dict[int, Scalar]] = {}
        for block in gen["blocks"]:
            if not isinstance(block, list) or len(block) != 3:
                raise ValueError("a block must be [row tableau, column tableau, entries]")
            a, b, entries = block
            if any(type(t) is not int or not 0 <= t < g for t in (a, b)):
                raise ValueError(f"tableau indices must be integers 0 to {g - 1}")
            if (a, b) in blocks or not isinstance(entries, list) or not entries:
                raise ValueError(f"block ({a}, {b}) is repeated or empty")
            el = blocks[a, b] = {}
            for entry in entries:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise ValueError("an entry must be [word, coefficient]")
                u, x = entry[0], SqrtNumber.from_json(entry[1])
                if type(u) is not int or not 0 <= u < 1 << m or u in el:
                    raise ValueError(f"words must be distinct integers 0 to 2^{m} - 1")
                if not x:
                    raise ValueError("a coefficient must be nonzero")
                el[u] = x
        if len({u.bit_count() % 2 for el in blocks.values() for u in el}) > 1:
            raise ValueError(f"generator {gen['name']} is not parity-homogeneous")
        out.append((gen["name"], CliffordMat(g, m, blocks)))
    return out


def yjm_matrix(generator: Callable, k: int, cache: dict):
    """The YJM element pi_k of a module, by pi_{k+1} = tau_k - tau_k pi_k tau_k.

    The recurrence is the relation tau_k pi_k + pi_{k+1} tau_k = 1 solved for
    pi_{k+1} with tau_k^2 = 1, so each step costs two products of sparse
    matrices, dense or factored alike: `generator` maps a name to its matrix.
    `cache` maps k to pi_k, starts with pi_1 = 0 and keeps pi_k from one call
    to the next.
    """
    hit = cache.get(k)
    if hit is None:
        t = generator(f"tau_{k - 1}")
        hit = cache[k] = t - t * yjm_matrix(generator, k - 1, cache) * t
    return hit


class RelationError(CheckFailed):
    """A built representation failed an exact relation check."""


def _kappa(s: int, t: int, variant: str) -> Fraction:
    if variant == "corrected":
        denom = (s - t) ** 2
    elif variant == "printed":
        denom = (s + t) ** 2
    else:
        raise ValueError(f"unknown case-iii variant {variant!r}")
    return 1 - Fraction(s + t, denom)


def _construct(shape: StrictPartition, tensor: bool, variant: str) -> GradedRep:
    """The model of the variant's generators (see _generators)."""
    generators = _generators(shape, tensor, variant)
    return GradedRep.new(shape, tensor, generators, {"case_iii_variant": variant})


def _generators(
    shape: StrictPartition, tensor: bool, variant: str
) -> list[tuple[str, CliffordMat]]:
    """The generators in factored form: p_i is bit i-1 and h_i bit n+i-1 for
    tensor, h_i bit i-1 for plain, matching the order of clifford_module's."""
    n = shape.n
    tabs = standard_tableaux(shape)
    avecs = [spectrum_vector(t).a for t in tabs]
    tab_index = {t: i for i, t in enumerate(tabs)}
    g, m, h = len(tabs), 2 * n if tensor else n, n if tensor else 0
    generators: list[tuple[str, CliffordMat]] = []
    for i in range(1, n):
        hi, hj = 1 << (h + i - 1), 1 << (h + i)
        blocks: dict[tuple[int, int], dict[int, Scalar]] = {}
        for t, tab in enumerate(tabs):
            s, tt = avecs[t][i - 1], avecs[t][i]
            dcoef = Fraction(1, s - tt)
            local = {hi: sqrt_rational(s) * dcoef, hj: -(sqrt_rational(tt) * dcoef)}
            blocks[t, t] = {u: x for u, x in local.items() if x}
            # a split pair: kappa = 0 would need s + t = (s - t)^2 (corrected)
            # or s + t = 1 (printed), and both pairs are fused
            if s + tt != (s - tt) ** 2:
                other = apply_transposition(tab, i)
                assert other is not None, "split pair must admit the swap"
                t2 = tab_index[other]
                coef = 1 if tabs[t2].length() > tab.length() else _kappa(s, tt, variant)
                blocks[t2, t] = {hi: coef * INV_SQRT2, hj: -(coef * INV_SQRT2)}
        generators.append((f"tau_{i}", CliffordMat(g, m, blocks)))
    for i in range(1, n + 1 if tensor else 1):
        p_i = {(t, t): {1 << (i - 1): 1} for t in range(g)}
        generators.append((f"p_{i}", CliffordMat(g, m, p_i)))
    return generators


def _rational_shadow(rep: GradedRep) -> GradedMatrixAlgebra | None:
    """A module of rational generators with the supercommutant of the model
    and, without tau_{n-1}, h_n and p_n, of its restriction one rank down, each
    basis index labelled with its tableau's a-vector; None if a premise fails
    in factored form.

    Premises: pi_k's block at T is +-sqrt(a_k(T)) times a word h_k with
    h_k^2 = 1; the a-vectors, and their prefixes of rank n - 1, are distinct;
    tau_i's diagonal blocks lie in the span of pi_i's and pi_{i+1}'s.  So a
    supercommutant X commutes with the pi_k^2 = a_k and is block-diagonal, and
    supercommutes with pi_k iff with h_k, and with an off-diagonal block of
    tau_i iff with it over the scalar its coefficients are +- of.
    """
    n, g, m = rep.n, len(rep.tableaux), rep.n * (1 + rep.has_clifford)
    if len(set(rep.avecs)) < g or len({a[:-1] for a in rep.avecs}) < g:
        return None
    words, gens = {}, []  # words[k, t]: the word of pi_k's block at t
    for k in range(1, n + 1):
        blocks, h = dict(rep.pi(k).blocks), {}
        for t, avec in enumerate(rep.avecs):
            el, a = blocks.pop((t, t), {}), avec[k - 1]
            if len(el) != (a != 0):
                return None
            if a:
                (u, c), root = next(iter(el.items())), sqrt_rational(a)
                if c not in (root, -root) or word_product(u, u) != (1, 0):
                    return None
                words[k, t], h[t, t] = u, {u: 1 if c == root else -1}
        if blocks:
            return None
        gens.append((f"h_{k}", CliffordMat(g, m, h).expand()))
    for i in range(1, n):
        off = {}
        for (s, t), el in rep.generator(f"tau_{i}").blocks.items():
            c, span = next(iter(el.values())), {words.get((i, t)), words.get((i + 1, t))}
            if el.keys() - span if s == t else any(x != c and x != -c for x in el.values()):
                return None
            if s != t:
                off[s, t] = {u: 1 if x == c else -1 for u, x in el.items()}
        gens.append((f"tau_{i}", CliffordMat(g, m, off).expand()))
    gens += [(name, x.expand()) for name, x in rep.generators if name.startswith("p_")]
    labels = tuple(avec for avec in rep.avecs for _ in range(rep.block_dim))
    return GradedMatrixAlgebra(rep.dim, rep.parity, gens, labels=labels)


def verify_relations(rep: GradedRep, generators: list | None = None) -> list[dict]:
    """Exact check of every defining relation; failures carry the defect norm.
    A built model gives a copy of the report its build made.  Given
    `generators`, others of rep's shape and algebra, dense or factored, such as
    the negative control's, those are checked instead."""
    if generators is not None:
        return list(_relation_checks(rep, dict(generators)))
    return [dict(r) for r in rep._relations] or list(_relation_checks(rep))


def _relation_checks(rep: GradedRep, generators: dict | None = None) -> Iterator[dict]:
    """The checks of `verify_relations`, yielded one at a time in its order: a
    zero defect passes, and a factored one that is not zero is expanded to
    name its first nonzero entry."""
    for name, defect in _relation_defects(rep, generators):
        entry = {"identity": name, "status": "pass", "defect_norm": 0.0}
        if not defect.is_zero():
            if isinstance(defect, CliffordMat):
                defect = defect.expand()
            r = min(r for r, row in defect.rows.items() if row)
            c = min(defect.rows[r])
            first = {"row": r, "col": c, "value": scalar_json(defect.rows[r][c])}
            entry.update(status="fail", defect_norm=defect.max_abs_float(), first_defect=first)
        yield entry


def _relation_defects(rep: GradedRep, generators: dict | None = None) -> Iterator[tuple]:
    """(identity, lhs - rhs) of each relation, in the order of `verify_relations`,
    for rep's generators or the given ones: Mats or CliffordMats alike."""
    n = rep.n
    pis = {} if generators else rep._pi_cache
    generators = generators or dict(rep.generators)
    generator = generators.__getitem__
    dense = any(isinstance(g, Mat) for g in generators.values())
    one = Mat.identity(rep.dim) if dense else rep.one()
    pis.setdefault(1, one.scale(0))
    taus = {i: generator(f"tau_{i}") for i in range(1, n)}
    for i in range(1, n):
        yield f"tau_{i}^2 = 1", taus[i] * taus[i] - one
    for i in range(1, n - 1):
        yield (
            f"tau_{i} tau_{i + 1} tau_{i} = tau_{i + 1} tau_{i} tau_{i + 1}",
            taus[i] * taus[i + 1] * taus[i] - taus[i + 1] * taus[i] * taus[i + 1],
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            prod = taus[i] * taus[j]
            yield f"(tau_{i} tau_{j})^2 = -1", prod * prod + one
    if rep.has_clifford:
        ps = {i: generator(f"p_{i}") for i in range(1, n + 1)}
        for i in range(1, n + 1):
            yield f"p_{i}^2 = 1", ps[i] * ps[i] - one
            for j in range(i + 1, n + 1):
                yield f"p_{i} p_{j} + p_{j} p_{i} = 0", ps[i] * ps[j] + ps[j] * ps[i]
        for i in range(1, n + 1):
            for j in range(1, n):
                yield f"tau_{j} p_{i} + p_{i} tau_{j} = 0", taus[j] * ps[i] + ps[i] * taus[j]
        # the commuting family x_i = p_i pi_i / sqrt(2)
        xs = {
            i: (ps[i] * yjm_matrix(generator, i, pis)).scale(INV_SQRT2) for i in range(1, n + 1)
        }
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                yield f"x_{i} x_{j} = x_{j} x_{i}", xs[i] * xs[j] - xs[j] * xs[i]


def _build(shape, tensor: bool) -> GradedRep:
    """Adjudicate the case-(iii) coefficient variants and keep a passing one.

    The corrected variant is constructed and fully verified first.  The two
    scalars differ only on split pairs with both a-values nonzero; without
    one the printed matrices equal the corrected ones and share their outcome.
    Otherwise the printed variant's factored generators are scanned too, up to
    the first nonzero defect, and its model is made only if it passes and the
    corrected one fails.
    """
    distinguishable = any(
        avec[i - 1] + avec[i] != (avec[i - 1] - avec[i]) ** 2
        and avec[i - 1] > 0
        and avec[i] > 0
        for avec in (spectrum_vector(t).a for t in standard_tableaux(shape))
        for i in range(1, shape.n)
    )
    rep = _construct(shape, tensor, "corrected")
    report = verify_relations(rep)
    bad = next((r["identity"] for r in report if r["status"] == "fail"), None)
    outcomes = {"corrected": f"fail:{bad}" if bad else "pass"}
    outcomes["printed"] = outcomes["corrected"]
    if distinguishable:
        defects = _relation_defects(rep, dict(_generators(shape, tensor, "printed")))
        first = next((name for name, d in defects if not d.is_zero()), None)
        outcomes["printed"] = f"fail:{first}" if first else "pass"
    if bad:
        if outcomes["printed"] != "pass":
            raise RelationError(
                f"no case-(iii) variant satisfies the relations for shape {shape}: "
                f"{outcomes}"
            )
        rep = _construct(shape, tensor, "printed")
        report = verify_relations(rep)
    rep._relations = tuple(report)
    rep.build_report = {
        "case_iii_variant": rep.build_report["case_iii_variant"],
        "variant_outcomes": outcomes,
        "variant_distinguishable": distinguishable,
        "relations_checked": len(report),
    }
    spec, want = spectrum_of(rep), sorted(rep.avecs)
    if spec != want:
        raise RelationError(f"spectrum contract failed for {shape}: {spec} != {want}")
    return rep


_BUILD_CACHE: dict[tuple[bool, tuple[int, ...]], GradedRep] = {}


def _cached_build(shape: StrictPartition, tensor: bool) -> GradedRep:
    if shape.n > 7:
        raise ValueError("|shape| <= 7")
    key = (tensor, shape.parts)
    if key not in _BUILD_CACHE:
        _BUILD_CACHE[key] = _build(shape, tensor)
    return _BUILD_CACHE[key]


def build_rep_plain(shape: StrictPartition) -> GradedRep:
    """Seminormal model of the spin algebra for a strict partition (|shape| <= 7).

    Built models are cached and treated as immutable.
    """
    return _cached_build(shape, tensor=False)


def build_rep_clifford_tensor(shape: StrictPartition) -> GradedRep:
    """Seminormal model of the Clifford-extended algebra (|shape| <= 7)."""
    return _cached_build(shape, tensor=True)


def spectrum_of(rep: GradedRep) -> list[tuple[int, ...]]:
    """Joint spectrum of the squared YJM operators, one a-vector per block.

    The pi_i are reassembled from the tau's (`yjm_matrix`) and each pi_i^2 is
    formed once, so this doubles as a check that they are block-diagonal with
    the tableau-prescribed scalar squares.  The module is faithful, so each
    check of a factored block is the dense one.
    """
    avecs: list[list[int]] = [[] for _ in rep.tableaux]
    for i in range(1, rep.n + 1):
        pm = rep.pi(i)
        if any(a != b for a, b in pm.blocks):
            raise RelationError(f"pi_{i} not block-diagonal")
        sq = (pm * pm).blocks
        for t, avec in enumerate(avecs):
            el = sq.get((t, t), {})
            if el.keys() - {0}:
                raise RelationError(f"pi_{i}^2 not scalar on block {t}")
            a = rational_of(el.get(0, 0))
            if a.__class__ is not int:
                raise RelationError(f"pi_{i}^2 eigenvalue not an integer")
            avec.append(a)
    return sorted(map(tuple, avecs))


def _block_ratio(rep: GradedRep, mod: GradedMatrixAlgebra, i: int) -> Mat:
    """(pi_i - pi_{i+1})/(a_i - a_{i+1}) on rep's dense module, each block's
    rows by its own a-values."""
    pis = {1: Mat.zero(mod.dim)}
    diff = yjm_matrix(mod.generator, i, pis) - yjm_matrix(mod.generator, i + 1, pis)
    rows: dict[int, Vec] = {}
    for r, row in diff.rows.items():
        avec = rep.avecs[r // rep.block_dim]
        coef = Fraction(1, avec[i - 1] - avec[i])
        rows[r] = {c: coef * v for c, v in row.items()}
    return Mat(rep.dim, rep.dim, rows)


def intertwiner_p(i: int, rep: GradedRep) -> Mat:
    """The explicit odd intertwiner moving eigenvalue strings across position i."""
    if not rep.has_clifford:
        raise ValueError("intertwiner needs the Clifford-extended model")
    if not 1 <= i <= rep.n - 1:
        raise ValueError("position out of range")
    mod = rep.dense()
    lead = (mod.generator(f"p_{i}") - mod.generator(f"p_{i + 1}")).scale(-INV_SQRT2)
    return lead * (mod.generator(f"tau_{i}") - _block_ratio(rep, mod, i))


@dataclass
class LocalPairAnalysis:
    position: int
    block: int
    pair: tuple[int, int]
    delta: int
    case: str  # "fused" or "split"
    partner_block: int | None
    ratio_action_matches: bool


def analyze_local_pair(rep: GradedRep, i: int) -> list[LocalPairAnalysis]:
    """Per-block fused/split analysis of the pair (pi_i, pi_{i+1})."""
    if not 1 <= i <= rep.n - 1:
        raise ValueError("position out of range")
    out = []
    tab_index = {t: k for k, t in enumerate(rep.tableaux)}
    mod, w = rep.dense(), rep.block_dim
    tau, ratio = mod.generator(f"tau_{i}"), _block_ratio(rep, mod, i)
    for t, tab in enumerate(rep.tableaux):
        s, tt = rep.avecs[t][i - 1], rep.avecs[t][i]
        delta = s + tt - (s - tt) ** 2
        case = "fused" if delta == 0 else "split"
        partner = None
        if case == "split":
            other = apply_transposition(tab, i)
            partner = tab_index[other] if other is not None else None
        # does tau_i act on this block purely as (pi_i - pi_{i+1})/(a_i - a_{i+1})?
        block = range(t * w, (t + 1) * w)
        matches = all(
            ratio.rows.get(r, {})
            == {c: v for c, v in tau.rows.get(r, {}).items() if c in block}
            for r in block
        )
        if case == "fused":
            matches = matches and all(
                c in block for r in block for c in tau.cols().get(r, {})
            )
        out.append(
            LocalPairAnalysis(
                position=i,
                block=t,
                pair=(s, tt),
                delta=delta,
                case=case,
                partner_block=partner,
                ratio_action_matches=matches,
            )
        )
    return out


# -- module machinery (splitting, classification, branching) ----------------------


def first_summand(rep: GradedRep) -> tuple[GradedMatrixAlgebra, dict]:
    """(module, classification) of the deterministic first graded-irreducible summand
    of the model's labelled rational module, or of the model, memoised on it."""
    if not rep._irreducible:
        pieces = split_into_irreducibles(rep.rational_shadow() or rep.dense())
        mod = min(pieces, key=lambda p: (p.dim, p.parity))
        rep._irreducible = (mod, classify_module(mod))
    return rep._irreducible


def identify_shape(mod: GradedMatrixAlgebra, level: int) -> StrictPartition:
    """Shape whose tableau spectra match the joint YJM-square spectrum: that of the
    labels' prefixes, or of the pi_k^2 rebuilt from an unlabelled module's tau's."""
    if mod.labels:
        shapes = {_shape_of_avec(a) for a in {label[:level] for label in mod.labels}}
        if len(shapes) != 1:
            raise CheckFailed(f"a summand has the a-vectors of shapes {sorted(s.parts for s in shapes)}")
        return shapes.pop()
    cache = {1: Mat.zero(mod.dim)}
    squares = [pi * pi for pi in (yjm_matrix(mod.generator, k, cache) for k in range(1, level + 1))]
    return _shape_of_avec(_a_vectors(Subspace.full(mod.dim), squares)[0])


def empirical_type(shape: StrictPartition, tensor: bool = False) -> str:
    """M or Q by actual classification of the built irreducible module."""
    rep = (build_rep_clifford_tensor if tensor else build_rep_plain)(shape)
    kind = first_summand(rep)[1]["kind"]
    if kind not in ("M", "Q"):
        raise CheckFailed(f"reference module for {shape} did not classify: {kind}")
    return kind


def _lower_rank(mod: GradedMatrixAlgebra, n: int) -> GradedMatrixAlgebra:
    """A module of rank n as one of rank n - 1, without tau_{n-1}, p_n and h_n."""
    top = (f"tau_{n - 1}", f"p_{n}", f"h_{n}")  # the generators of rank n alone
    gens = [(name, g) for name, g in mod.generators if name not in top]
    return GradedMatrixAlgebra(mod.dim, mod.parity, gens, labels=mod.labels)


def restrict_and_branch(rep: GradedRep) -> list[dict]:
    """Decompose the restriction one level down into labeled graded summands.

    Returns one entry per strict partition at level n-1 with its type and the
    per-antipode edge multiplicity (complex-irreducible bookkeeping: counts of
    field summands are divided by the fusion degrees of source and target).
    """
    n = rep.n
    if n < 2:
        raise ValueError("n >= 2 required")
    mod, own = first_summand(rep)
    if own["kind"] == "reducible":
        raise CheckFailed("cannot branch an unclassifiable module")
    s_top = own["complex_count"]
    pieces = split_into_irreducibles(_lower_rank(mod, n))
    tally: dict[tuple[int, ...], dict] = {}
    for piece in pieces:
        shape = identify_shape(piece, n - 1)
        cls = classify_module(piece)
        if cls["kind"] == "reducible":
            raise CheckFailed("restriction produced an unclassifiable summand")
        entry = tally.setdefault(
            shape.parts,
            {
                "shape": shape,
                "type": cls["kind"],
                "complex_summands": 0,
                "pieces": [],
            },
        )
        entry["complex_summands"] += cls["complex_count"]
        entry["pieces"].append({"dim": piece.dim, "pattern": cls["pattern"]})
    out = []
    for parts in sorted(tally, reverse=True):
        entry = tally[parts]
        # an M summand under a Q module arrives in antipodal pairs
        denom = s_top * (2 if entry["type"] == "M" and own["kind"] == "Q" else 1)
        n_summands = entry["complex_summands"]
        if n_summands % denom:
            raise CheckFailed(
                f"summand count {n_summands} not divisible by fusion degree {denom}"
            )
        entry["multiplicity"] = n_summands // denom
        out.append(entry)
    return out


def branching_graph_from_reps(n: int) -> BranchingGraph:
    """Branching graph computed from restrictions of the built irreducibles."""
    if n < 1:
        raise ValueError("the branching graph needs n >= 1")
    if n > 6:
        raise ValueError("from_reps source limited to n <= 6")
    g = BranchingGraph(n, source_tag="from_reps")
    ids: dict[tuple[int, ...], list[str]] = {}
    for level in range(1, n + 1):
        for shape in strict_partitions(level):
            vtype = "M" if level == 1 else empirical_type(shape)
            ids[(level,) + shape.parts] = g.add_vertex(level, shape, vtype)
    for level in range(2, n + 1):
        for shape in strict_partitions(level):
            hi = ids[(level,) + shape.parts]
            for entry in restrict_and_branch(build_rep_plain(shape)):
                lo = ids[(level - 1,) + entry["shape"].parts]
                g.add_cover(lo, hi, entry["multiplicity"])
    return g


# -- the brute-force regular-representation oracle --------------------------------


def regular_decompose(tag: str, n: int) -> BlockReport:
    """Decompose the regular representation into labeled graded blocks.

    This is the oracle.  It reads every block off one joint spectrum, that of
    the pi_k^2 on the algebra C[pi_1^2, ..., pi_n^2] they generate, which
    acts on itself faithfully: the algebra is split semisimple exactly when
    its joint eigenspaces are lines, one per a-vector.  The central total YJM
    square c acts on the block of an a-vector by the sum of its entries, so
    c's roots are the distinct sums and a block's spectrum is the a-vectors
    of its root.  The rest is read off the block's central idempotent e: the
    graded dimensions off e's identity coefficient, and M/Q off the block's
    dimension (`simple_block`).  It multiplies elements of the algebra's
    context, plain or Clifford-extended, and builds one matrix per block, left
    multiplication by e.
    """
    caps = {"A": (5, "plain"), "CA": (4, "Clifford-extended")}
    if tag not in caps:
        raise ValueError(f"unknown algebra tag {tag!r}")
    cap, name = caps[tag]
    if n > cap:
        raise ValueError(f"n <= {cap} for the {name} regular representation")
    ctx = spinalg.context(n, clifford=tag == "CA")
    dim, parity, one = len(ctx.words), ctx.parity, ctx.identity  # one: the identity word
    # every generator is odd: this checks the parity vector against the table
    for g, row in enumerate(ctx.left, start=1):
        if any(parity[abs(q) - 1] == parity[p] for p, q in enumerate(row)):
            letter = f"tau_{g}" if g < n else f"p_{g - n + 1}"
            raise CheckFailed(f"generator {letter} is not odd")

    # plain word p is word 0 * n! + p of the extension, so the plain
    # coefficients of the pi_k^2 carry over
    pis = (spinalg.jm_element(k, n) for k in range(1, n + 1))
    squares = [spinalg.SpinElement(ctx, (p * p).coeffs) for p in pis]
    span = Subspace(dim, [x.vec() for x in spinalg.subalgebra_span(squares)])
    avecs = _a_vectors(span, squares)
    if len(avecs) != span.dim:
        raise CheckFailed(
            f"joint spectrum of the pi_k^2 is not simple: a-vectors {avecs}"
            f" on C[pi^2] of dimension {span.dim}"
        )
    total = sum(squares, spinalg.SpinElement(ctx))
    roots = sorted({sum(a) for a in avecs})
    unit = spinalg.SpinElement(ctx, {one: 1})
    report = BlockReport(algebra_dim=dim)
    for lam in roots:
        # e is the block's central idempotent.  A word other than 1 moves
        # every word, so eA has dimension e_1 * dim
        e = lagrange_projector(unit, [(total, lam, mu) for mu in roots if mu != lam])
        dims = [e.coeffs.get(one, 0) * k for k in (dim, parity.count(0))]
        if any(d != int(d) for d in dims):
            raise CheckFailed(f"idempotent traces {dims} are not integers")
        spectrum = [a for a in avecs if sum(a) == lam]
        report.blocks.append(
            simple_block(
                int(dims[0]), int(dims[1]), idempotent=e.matrix(), spectrum=spectrum,
                partition=_shape_of_avec(spectrum[0]).parts,
            )
        )
    total_dim = report.total_block_dim()
    if total_dim != dim:
        raise CheckFailed(f"block dimensions {total_dim} do not sum to {dim}")
    return report


def _a_vectors(piece: Subspace, squares: Sequence[Mat]) -> list[tuple[int, ...]]:
    """Joint spectrum of the squared YJM operators on a piece, as a-vectors;
    an eigenvalue that is not an integer is a check failure."""
    avecs = set()
    for _, label in eigensplit([piece], squares):
        for x in label:
            if rational_of(x).__class__ is not int:
                raise CheckFailed(f"eigenvalue {x} not an integer")
        avecs.add(tuple(map(rational_of, label)))
    return sorted(avecs)


def _isqrt_exact(x: int) -> int:
    r = isqrt(x)
    if r * r != x:
        raise ValueError(f"{x} is not a perfect square")
    return r


def _shape_of_avec(avec: Sequence[int]) -> StrictPartition:
    """Shape of the tableau with this a-vector; that none has it is a check failure."""
    try:
        b = tuple((-1 + _isqrt_exact(1 + 8 * a)) // 2 for a in avec)
        return tableau_from_bvector(b).shape
    except ValueError as exc:
        raise CheckFailed(f"no shifted tableau has a-vector {tuple(avec)}: {exc}") from None


def mutated_rep(rep: GradedRep) -> list[tuple[str, Mat]]:
    """Negative control: the model's expanded generators with the sign of tau_1's
    least entry flipped.  A dense entry, since flipping a factored coefficient
    of a tau_1 of one Clifford word, as at shape (2,), gives -tau_1, which
    satisfies every relation."""
    (name, tau1), *rest = rep.dense().generators
    rows = {r: dict(row) for r, row in tau1.rows.items()}
    r0 = min(rows)
    c0 = min(rows[r0])
    rows[r0][c0] = -rows[r0][c0]
    return [(name, Mat(tau1.nrows, tau1.ncols, rows)), *rest]
