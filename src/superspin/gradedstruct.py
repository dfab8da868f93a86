"""Graded modules: the one module type, its commutant solver and classifier.

A GradedMatrixAlgebra is a parity vector on the underlying space together
with parity-homogeneous named generator matrices.  It is the only graded-module
type in the package: read as a concrete algebra it is the span of its
generators, read as a module it is their action, and `restrict` passes to an
invariant graded subspace.  `module_commutant` is the one solver for the
(super)commutant X G = s G X.  One test of its even part, a division algebra
iff the module is irreducible, drives `split_into_irreducibles` and
`classify_module`, which types a module as M or Q by its supercommutant.

A module may label its basis indices when its (super)commutant is
block-diagonal over the labels, such as a built seminormal model's rational
module with its tableaux's a-vectors: the solver then takes only the unknowns
between equal labels, and `restrict` keeps the labels.

The two simple shapes are the full graded matrix algebra on a (n, m)-space and
the Q-type algebra of [[A, B], [B, A]] matrices; every semisimple algebra
splits into such blocks, and the split is computed here by exact eigenspace
refinement of central elements (`linalg.eigensplit`), with block projectors
assembled as Lagrange polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import Iterable, Sequence

from .exactnum import Scalar
from .linalg import (
    CheckFailed, Mat, Subspace, Vec, centralizer, closure, coprime_split, eigensplit, kernel,
    lagrange_projector, plain, vecize,
)


@dataclass
class GradedMatrixAlgebra:
    """A graded module: a parity vector and named parity-homogeneous generators."""

    dim: int
    parity: tuple[int, ...]
    generators: list[tuple[str, Mat]]
    # a label per basis index, over which the (super)commutant is block-diagonal
    labels: tuple | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        self.parity = tuple(self.parity)
        if len(self.parity) != self.dim:
            raise ValueError("parity vector length must match dimension")
        if not all(p == 0 or p == 1 for p in self.parity):
            raise ValueError("parities must be 0 or 1")
        for name, g in self.generators:
            if (g.nrows, g.ncols) != (self.dim, self.dim):
                raise ValueError(f"generator {name} is not {self.dim}x{self.dim}")
            if matrix_parity(g, self.parity) is None:
                raise ValueError(f"generator {name} is not parity-homogeneous")

    def generator_mats(self) -> list[Mat]:
        return [g for _, g in self.generators]

    def generator(self, name: str) -> Mat:
        for gname, g in self.generators:
            if gname == name:
                return g
        raise KeyError(name)

    def graded_dims(self) -> tuple[int, int]:
        even = sum(1 for p in self.parity if p == 0)
        return even, self.dim - even

    def restrict(self, sub: Subspace) -> GradedMatrixAlgebra:
        """The submodule on an invariant graded subspace, in the subspace's basis;
        a labelled module's basis vectors must each lie in one block."""
        labels = self.labels and [{self.labels[i] for i in b} for b in sub.basis]
        if labels and max(map(len, labels)) > 1:
            raise CheckFailed("a basis vector of the submodule spans two labelled blocks")
        return GradedMatrixAlgebra(
            sub.dim,
            subspace_parity(sub, self.parity),
            [(name, sub.restrict(g)) for name, g in self.generators],
            labels=labels and tuple(x.pop() for x in labels),
        )


def subspace_parity(sub: Subspace, parity: Sequence[int]) -> tuple[int, ...]:
    """Parity of each basis vector of a graded subspace."""
    out = []
    for b in sub.basis:
        ps = {parity[i] for i in b}
        if len(ps) != 1:
            raise ValueError("subspace is not graded")
        out.append(ps.pop())
    return tuple(out)


def matrix_parity(m: Mat, parity: Sequence[int]) -> int | None:
    """0/1 for homogeneous nonzero matrices, 0 for zero, None for mixed."""
    seen: set[int] = set()
    for r, row in m.rows.items():
        for c in row:
            seen.add((parity[r] + parity[c]) % 2)
    if not seen:
        return 0
    return seen.pop() if len(seen) == 1 else None


def parity_parts(m: Mat, parity: Sequence[int]) -> tuple[Mat, Mat]:
    """(even, odd) components of a matrix."""
    parts: tuple[dict[int, Vec], dict[int, Vec]] = ({}, {})
    for r, row in m.rows.items():
        for c, v in row.items():
            parts[(parity[r] + parity[c]) % 2].setdefault(r, {})[c] = v
    return Mat(m.nrows, m.ncols, parts[0]), Mat(m.nrows, m.ncols, parts[1])


def theta(m: Mat, parity: Sequence[int]) -> Mat:
    """Parity automorphism: negate the odd component."""
    even, odd = parity_parts(m, parity)
    return even - odd


def m_algebra(n: int, m: int) -> GradedMatrixAlgebra:
    """The full graded matrix algebra on a (n, m)-dimensional graded space."""
    dim = n + m
    parity = tuple([0] * n + [1] * m)
    gens = [
        (f"e_{r}_{c}", Mat(dim, dim, {r: {c: 1}}))
        for r in range(dim)
        for c in range(dim)
    ]
    return GradedMatrixAlgebra(dim, parity, gens)


def q_algebra(n: int) -> GradedMatrixAlgebra:
    """The Q-type algebra of [[A, B], [B, A]] matrices on an (n, n)-space."""
    dim = 2 * n
    parity = tuple([0] * n + [1] * n)
    gens = []
    for r in range(n):
        for c in range(n):
            gens.append(
                (f"a_{r}_{c}", Mat(dim, dim, {r: {c: 1}, n + r: {n + c: 1}}))
            )
            gens.append(
                (f"b_{r}_{c}", Mat(dim, dim, {r: {n + c: 1}, n + r: {c: 1}}))
            )
    return GradedMatrixAlgebra(dim, parity, gens)


# -- solves ---------------------------------------------------------------------


def module_commutant(mod: GradedMatrixAlgebra, x_parity: int) -> list[Mat]:
    """Homogeneous X of parity x_parity with X G = s G X for every generator G,
    s = (-1)^(p(X) p(G)): the parity-x_parity part of the supercommutant.  For
    x_parity 0 the sign is 1, so that part is the even plain commutant too.

    A labelled module's unknowns are the entries between equal labels.
    """
    n = mod.dim
    labels = mod.labels or (None,) * n
    unknowns = [
        (r, c)
        for r in range(n)
        for c in range(n)
        if (mod.parity[r] + mod.parity[c]) % 2 == x_parity and labels[r] == labels[c]
    ]
    pos = {rc: i for i, rc in enumerate(unknowns)}
    constraints: list[Vec] = []
    for _, g in mod.generators:
        pg = matrix_parity(g, mod.parity)
        s = -1 if x_parity and pg else 1
        rows: dict[tuple[int, int], Vec] = {}
        gcols = g.cols()
        for (r, k) in unknowns:
            # X[r,k] contributes X[r,k]*G[k,c] to (XG)[r,c]
            for c, v in g.rows.get(k, {}).items():
                rows.setdefault((r, c), {})[pos[(r, k)]] = v
        for (k, c) in unknowns:
            # X[k,c] contributes -s*G[r,k]*X[k,c] to the constraint at (r,c)
            for r, v in gcols.get(k, {}).items():
                row = rows.setdefault((r, c), {})
                i = pos[(k, c)]
                val = -v if s > 0 else v
                prev = row.get(i)
                if prev is not None:
                    val = prev + val
                if val:
                    row[i] = val
                elif i in row:
                    del row[i]
        constraints.extend(v for v in rows.values() if v)
    sols = kernel(constraints, len(unknowns))
    return [
        Mat.from_entries(n, n, {unknowns[i]: v for i, v in sol.items()})
        for sol in sols
    ]


def supercommutant(a: GradedMatrixAlgebra) -> list[Mat]:
    """Basis of the supercommutant of the generators (even part then odd part)."""
    if a.dim > 1000:
        raise ValueError("dimension cap exceeded")
    return module_commutant(a, 0) + module_commutant(a, 1)


# supercommutant dimensions (even, odd) of a field-irreducible module that
# splits after complexification -> (kind, pattern)
_FUSED_PATTERNS = {
    (2, 2): ("M", "antipodal_pair"),
    (4, 0): ("M", "double"),
    (4, 4): ("Q", "double"),
}


def classify_module(mod: GradedMatrixAlgebra) -> dict:
    """Type of a module: M(r, s), Q(r), or reducible, via its supercommutant.

    Over the real multi-quadratic scalars an irreducible module need not stay
    irreducible after complexification; the graded supercommutant dimensions
    (even, odd) identify the five possible patterns:

      (1,0) single M module; (1,1) single Q module; (2,2) the fused antipodal
      pair U + P(U) of an M block; (4,0) a doubled M module (quaternionic
      commutant); (4,4) a doubled Q module.

    The last three also fit reducible modules (two copies of M(1,1) give
    (4,0)), so they are read this way only when the even commutant is a
    division algebra (`_commutant_split` finds no splitter); otherwise such a
    module is "reducible".
    complex_count is the number of complex-irreducible summands.
    """
    even = module_commutant(mod, 0)
    odd = module_commutant(mod, 1)
    dims = (len(even), len(odd))
    ev, od = mod.graded_dims()
    kind, params, pattern, count = "reducible", None, None, None
    if dims == (1, 0):
        kind, params, pattern, count = "M", (ev, od), "single", 1
    elif dims == (1, 1) and _square_scalar(odd[0]):
        kind, params, pattern, count = "Q", ev, "single", 1
    elif dims in _FUSED_PATTERNS and _commutant_split(mod, even) is None:
        kind, pattern = _FUSED_PATTERNS[dims]
        params = (ev // 2, od // 2) if kind == "M" else ev // 2
        count = 2
    return {
        "kind": kind,
        "params": params,
        "pattern": pattern,
        "complex_count": count,
        "supercommutant_dims": dims,
    }


def split_into_irreducibles(mod: GradedMatrixAlgebra) -> list[GradedMatrixAlgebra]:
    """Graded-irreducible summands over the field."""
    subs = _commutant_split(mod, module_commutant(mod, 0))
    if subs is None:
        return [mod]
    return [piece for sub in subs for piece in split_into_irreducibles(mod.restrict(sub))]


def _commutant_split(mod: GradedMatrixAlgebra, even_comm: Sequence[Mat]) -> list[Subspace] | None:
    """Invariant graded subspaces that split the module, or None if it is irreducible.

    even_comm is a basis of the even commutant (for parity 0 the super and
    plain commutants agree).  The module is irreducible iff that algebra is a
    division algebra.  Otherwise some element's minimal polynomial has coprime
    factors over Q whose kernels split the module (`linalg.coprime_split`);
    products of basis elements are tried as well, since the echelon basis
    need not contain such an element.

    With no splitter found the algebra must be a real division algebra (R, C
    or H): each nonscalar basis element minus its trace / dim squares to a
    negative scalar.  A commutant split only by irrational eigenvalues, such
    as Q(sqrt 2), fails this and raises.
    """
    nonscalar = [x for x in even_comm if x != Mat.scalar(mod.dim, x.entry(0, 0))]
    products = (x * y for i, x in enumerate(nonscalar) for y in nonscalar[i:])
    for cand in chain(nonscalar, products):
        split = coprime_split(cand)
        if len(split) > 1:
            return [sub for sub, _ in split]
    for x in nonscalar:
        mean = sum(x.entry(i, i) for i in range(mod.dim)) * Fraction(1, mod.dim)
        c = _square_scalar(x - Mat.scalar(mod.dim, mean))
        if c is None or c >= 0:
            raise CheckFailed(
                "could not split module over Q (commutant is not a real division "
                "algebra yet no element yields coprime factors)"
            )
    return None


def _square_scalar(j: Mat) -> Scalar | None:
    """The c with j * j = c * 1, or None."""
    sq = j * j
    c = sq.entry(0, 0)
    return c if sq == Mat.scalar(j.nrows, c) else None


def span_closure(gens: Iterable[Mat]) -> list[Mat]:
    """Basis of the (possibly nonunital) span of all words in the generators."""
    gens = [g for g in gens if not g.is_zero()]
    return closure(gens, gens, vecize)


def center_of_span(
    span: Sequence[Mat], gens: Sequence[Mat], parity: Sequence[int]
) -> tuple[list[Mat], list[Mat]]:
    """(even, odd) bases of the ordinary center, inside a span of homogeneous
    elements (such as a `span_closure`), whose solutions are then homogeneous."""
    even_out, odd_out = [], []
    for m in centralizer(span, gens, vecize):
        (even_out if matrix_parity(m, parity) == 0 else odd_out).append(m)
    return even_out, odd_out


@dataclass
class Block:
    btype: str  # "M" or "Q"
    params: tuple[int, int] | int
    dimension: int
    idempotent: Mat | None = None
    spectrum: list[tuple[int, ...]] | None = None
    partition: tuple[int, ...] | None = None

    def document(self) -> dict:
        """The JSON layout with the idempotent as a Mat leaf (see linalg.dump)."""
        return {
            "type": self.btype,
            "params": list(self.params) if isinstance(self.params, tuple) else self.params,
            "dimension": self.dimension,
            "idempotent": self.idempotent,
            "spectrum": [list(a) for a in self.spectrum] if self.spectrum else None,
            "partition": list(self.partition) if self.partition else None,
        }


def simple_block(alg_dim: int, even_dim: int, **fields) -> Block:
    """The simple block with the given algebra dimension and even dimension.

    Over C a simple superalgebra is M(r, s): dimension (r + s)^2, even part
    r^2 + s^2, or Q(q): dimension 2 q^2, even part q^2 (Wall 1964).  2 q^2 is
    never a square, so the block is Q exactly when alg_dim is not one.
    """
    t = isqrt(alg_dim)
    if t * t != alg_dim:
        q = isqrt(alg_dim // 2)
        if 2 * q * q != alg_dim or even_dim != q * q:
            raise CheckFailed("inconsistent Q-block dimensions")
        return Block("Q", q, alg_dim, **fields)
    # r + s = t, r^2 + s^2 = even_dim
    disc = 2 * even_dim - t * t
    u = isqrt(disc) if disc >= 0 else -1
    if u < 0 or u * u != disc or (t + u) % 2:
        raise CheckFailed("inconsistent M-block dimensions")
    return Block("M", ((t + u) // 2, (t - u) // 2), alg_dim, **fields)


@dataclass
class BlockReport:
    algebra_dim: int
    blocks: list[Block] = field(default_factory=list)

    def sorted_blocks(self) -> list[Block]:
        return sorted(
            self.blocks,
            key=lambda b: (b.dimension, b.spectrum or [], str(b.params)),
        )

    def summary(self) -> list[tuple[str, object]]:
        return [(b.btype, b.params) for b in self.sorted_blocks()]

    def total_block_dim(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def document(self) -> dict:
        """The JSON layout with the idempotents as Mat leaves (see linalg.dump)."""
        return {
            "schema": "superspin/1",
            "algebra_dim": self.algebra_dim,
            "blocks": [b.document() for b in self.sorted_blocks()],
        }

    def to_json(self) -> dict:
        return plain(self.document())


def split_module_by_central(
    dim: int, central: Sequence[Mat]
) -> list[tuple[Subspace, Mat]]:
    """Joint eigenspaces of commuting operators, with Lagrange projectors.

    The projector onto a joint eigenspace is the product, over the operators
    that cut it from a larger piece, of prod (op - mu) / (lam - mu) with mu
    running over the op's other eigenvalues on that piece
    (`linalg.lagrange_projector`).
    """
    central = list(central)
    labeled = eigensplit([Subspace.full(dim)], central)
    out = []
    for piece, label in labeled:
        # pieces cut from the same piece as this one share label[:k]
        terms = [
            (op, lam, mu)
            for k, (op, lam) in enumerate(zip(central, label))
            for mu in dict.fromkeys(
                lab[k] for _, lab in labeled if lab[:k] == label[:k] and lab[k] != lam
            )
        ]
        out.append((piece, lagrange_projector(Mat.identity(dim), terms)))
    return out


def decompose_semisimple(a: GradedMatrixAlgebra) -> BlockReport:
    """Split the span of the generators into simple graded blocks.

    Blocks are cut by eigenspaces of the even ordinary center; each block's
    type and parameters are read off the block algebra's graded dimensions
    (`simple_block`).
    """
    gens = a.generator_mats()
    span = span_closure(gens)
    even_center = center_of_span(span, gens, a.parity)[0]
    pieces = split_module_by_central(a.dim, even_center)
    if len(pieces) != len(even_center):
        raise CheckFailed(
            f"central split found {len(pieces)} pieces for {len(even_center)} "
            "central dimensions; non-semisimple or non-split input"
        )
    # a span_closure of homogeneous generators is independent and homogeneous
    # element by element, so its graded dimensions are counts of parities
    report = BlockReport(algebra_dim=len(span))
    for piece, proj in pieces:
        block = a.restrict(piece)
        block_span = span_closure(block.generator_mats())
        ev_dim = [matrix_parity(m, block.parity) for m in block_span].count(0)
        report.blocks.append(simple_block(len(block_span), ev_dim, idempotent=proj))
    return report


# -- constructions ----------------------------------------------------------------


def graded_tensor(
    a: GradedMatrixAlgebra, b: GradedMatrixAlgebra
) -> GradedMatrixAlgebra:
    """Graded tensor product with the Koszul sign on the right factor."""
    da, db = a.dim, b.dim
    dim = da * db
    parity = tuple(
        (a.parity[i] + b.parity[j]) % 2 for i in range(da) for j in range(db)
    )
    gens: list[tuple[str, Mat]] = []
    for name, ga in a.generators:
        rows: dict[int, Vec] = {}
        for r, row in ga.rows.items():
            for c, v in row.items():
                for j in range(db):
                    rows.setdefault(r * db + j, {})[c * db + j] = v
        gens.append((f"L:{name}", Mat(dim, dim, rows)))
    for name, gb in b.generators:
        pg = matrix_parity(gb, b.parity)
        rows = {}
        for r, row in gb.rows.items():
            for c, v in row.items():
                for i in range(da):
                    sign = -1 if (pg and a.parity[i]) else 1
                    rows.setdefault(i * db + r, {})[i * db + c] = (
                        v if sign > 0 else -v
                    )
        gens.append((f"R:{name}", Mat(dim, dim, rows)))
    return GradedMatrixAlgebra(dim, parity, gens)


def adjoin_epsilon(a: GradedMatrixAlgebra) -> GradedMatrixAlgebra:
    """Double the module and adjoin the grading-implementing involution.

    The result is regarded as an ungraded algebra (trivial parity): its module
    category plays the role of the graded modules of the input.
    """
    d = a.dim
    gens: list[tuple[str, Mat]] = []
    for name, g in a.generators:
        tg = theta(g, a.parity)
        rows: dict[int, Vec] = {}
        for r, row in g.rows.items():
            rows[r] = dict(row)
        for r, row in tg.rows.items():
            rows[d + r] = {d + c: v for c, v in row.items()}
        gens.append((name, Mat(2 * d, 2 * d, rows)))
    eps_rows = {i: {d + i: 1} for i in range(d)}
    eps_rows.update({d + i: {i: 1} for i in range(d)})
    gens.append(("epsilon", Mat(2 * d, 2 * d, eps_rows)))
    return GradedMatrixAlgebra(2 * d, tuple([0] * (2 * d)), gens)


def graded_centralizer(
    a: GradedMatrixAlgebra, b_generators: Sequence[Mat]
) -> dict:
    """Z(A, B): even ordinary plus even twisted centralizer inside span(A)."""
    gens = a.generator_mats()
    span = span_closure(gens)
    span_sub = Subspace(a.dim**2, [vecize(m) for m in span])
    if not all(span_sub.contains(vecize(bg)) for bg in b_generators):
        raise ValueError("B generator outside span of A")
    even = [m for m in span if matrix_parity(m, a.parity) == 0]
    solutions = centralizer(even, b_generators, vecize)
    solutions += centralizer(even, b_generators, vecize, lambda g: theta(g, a.parity))
    basis = closure(solutions, (), vecize)
    commutative = all(x * y == y * x for i, x in enumerate(basis) for y in basis[i + 1 :])
    return {"basis": basis, "is_commutative": commutative}


# -- tensor identity adjudication ---------------------------------------------


def tensor_formula_adjudication() -> dict:
    """Classify small graded tensor products and record which index formula holds.

    The printed M(n,m) x M(n',m') rule has a repeated index; the corrected rule
    uses nm' + mn'.  The M(2,1) x M(1,1) instance separates the two.
    """
    q1, q2 = q_algebra(1), q_algebra(2)
    m11 = m_algebra(1, 1)
    m21 = m_algebra(2, 1)

    def block_of(t: GradedMatrixAlgebra) -> tuple[str, object]:
        rep = decompose_semisimple(t)
        if len(rep.blocks) != 1:
            raise CheckFailed("tensor of simple algebras should stay simple")
        b = rep.blocks[0]
        return (b.btype, b.params)

    results = {
        "Q1xQ1": block_of(graded_tensor(q1, q1)),
        "M11xQ2": block_of(graded_tensor(m11, q2)),
        "M11xM11": block_of(graded_tensor(m11, m11)),
        "M21xM11": block_of(graded_tensor(m21, m11)),
    }
    printed = (2 * 1 + 1 * 1, 2 * 1 + 2 * 1)  # (nn'+mm', nm'+nm') as printed
    corrected = (2 * 1 + 1 * 1, 2 * 1 + 1 * 1)  # nm' + mn'
    kind, params = results["M21xM11"]
    match = None
    if kind == "M":
        if set(params) == set(corrected):
            match = "corrected"
        elif set(params) == set(printed):
            match = "printed"
    return {
        "classifications": results,
        "printed_formula_params": printed,
        "corrected_formula_params": corrected,
        "selected_variant": match,
        "expected": {
            "Q1xQ1": ("M", (1, 1)),
            "M11xQ2": ("Q", 4),
            "M11xM11": ("M", (2, 2)),
        },
    }
