"""Sparse exact linear algebra over the package's scalars.

Vectors are dicts index -> scalar (no stored zeros), matrices are row-major
dicts of such dicts.  A scalar is an int, a Fraction or a SqrtNumber, by the
rule in `exactnum`: the value decides the type.  The same code runs on all
three, so rational values compute in int/Fraction arithmetic wherever they
appear, and a SqrtNumber is only ever a value with a radical.  Everything here
is deterministic: pivots are smallest column first, and minimal polynomials
split over Q, their rational roots in ascending order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Sequence

from .exactnum import Scalar, canonical, inverse, rational_of, scalar_json

Vec = dict  # index -> Scalar


class CheckFailed(ValueError):
    """An exact internal check failed: the result contradicts the theory."""


def _iadd_scaled(u: Vec, v: Vec, c: Scalar) -> None:
    """u += c*v in place, pruning exact zeros."""
    for i, x in v.items():
        s = u.get(i)
        s = c * x if s is None else s + c * x
        if s:
            u[i] = s
        elif i in u:
            del u[i]


def vecize(m: Mat) -> Vec:
    """A matrix as one vector, entry (r, c) at index r * ncols + c."""
    return {r * m.ncols + c: v for r, row in m.rows.items() for c, v in row.items()}


def vec_add_scaled(u: Vec, v: Vec, c: Scalar) -> Vec:
    """u + c*v, pruning exact zeros."""
    out = dict(u)
    if c:
        _iadd_scaled(out, v, c)
    return out


class Mat:
    """Sparse matrix over int, Fraction or SqrtNumber scalars (row-major)."""

    __slots__ = ("nrows", "ncols", "rows", "_cols")

    def __init__(self, nrows: int, ncols: int, rows: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, Vec] = rows if rows is not None else {}
        self._cols: dict[int, Vec] | None = None

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int | None = None) -> Mat:
        return cls(nrows, ncols if ncols is not None else nrows)

    @classmethod
    def scalar(cls, n: int, c: Scalar) -> Mat:
        if not c:
            return cls.zero(n)
        return cls(n, n, {i: {i: c} for i in range(n)})

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> Mat:
        rows: dict[int, Vec] = {}
        for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
            if v:
                rows.setdefault(r, {})[c] = v
        return cls(nrows, ncols, rows)

    def entry(self, r: int, c: int) -> Scalar:
        return self.rows.get(r, {}).get(c, 0)

    def cols(self) -> dict[int, Vec]:
        if self._cols is None:
            cols: dict[int, Vec] = {}
            for r, row in self.rows.items():
                for c, v in row.items():
                    cols.setdefault(c, {})[r] = v
            self._cols = cols
        return self._cols

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def is_zero(self) -> bool:
        return all(not row for row in self.rows.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        keys = set(self.rows) | set(other.rows)
        for r in keys:
            if self.rows.get(r, {}) != other.rows.get(r, {}):
                return False
        return True

    def __neg__(self) -> Mat:
        return Mat(
            self.nrows,
            self.ncols,
            {r: {c: -v for c, v in row.items()} for r, row in self.rows.items()},
        )

    def __add__(self, other: Mat) -> Mat:
        rows: dict[int, Vec] = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            tgt = rows.setdefault(r, {})
            for c, v in row.items():
                s = tgt.get(c)
                s = v if s is None else s + v
                if s:
                    tgt[c] = s
                elif c in tgt:
                    del tgt[c]
        return Mat(self.nrows, self.ncols, rows)

    def __sub__(self, other: Mat) -> Mat:
        return self + (-other)

    def scale(self, c: Scalar) -> Mat:
        if not c:
            return Mat.zero(self.nrows, self.ncols)
        return Mat(
            self.nrows,
            self.ncols,
            {r: {col: c * v for col, v in row.items()} for r, row in self.rows.items()},
        )

    def __mul__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        rows: dict[int, Vec] = {}
        orows = other.rows
        for r, row in self.rows.items():
            acc: Vec = {}
            for k, v in row.items():
                orow = orows.get(k)
                if not orow:
                    continue
                for c, w in orow.items():
                    s = acc.get(c)
                    s = v * w if s is None else s + v * w
                    if s:
                        acc[c] = s
                    elif c in acc:
                        del acc[c]
            if acc:
                rows[r] = acc
        return Mat(self.nrows, other.ncols, rows)

    def apply(self, v: Vec) -> Vec:
        cols = self.cols()
        out: Vec = {}
        for c, x in v.items():
            col = cols.get(c)
            if not col:
                continue
            for r, a in col.items():
                s = out.get(r)
                s = a * x if s is None else s + a * x
                if s:
                    out[r] = s
                elif r in out:
                    del out[r]
        return out

    def max_abs_float(self) -> float:
        worst = 0.0
        for row in self.rows.values():
            for v in row.values():
                worst = max(worst, abs(float(v)))
        return worst

    def to_json(self) -> list:
        empty: Vec = {}
        return [
            [scalar_json(row.get(c, 0)) for c in range(self.ncols)]
            for row in (self.rows.get(r, empty) for r in range(self.nrows))
        ]

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class Echelon:
    """Incremental row echelon form, reduced only on demand.

    Invariant: `rows` maps each pivot column p to a stored row that is 1 at p,
    zero at every column before p and zero at every pivot column that existed
    when it was stored.  A row may still be nonzero at a pivot column added
    after it, so `reduce` clears pivot columns in increasing order; `rref`
    makes the rows fully reduced with one back-substitution.  Callers that
    need coordinates read them at the pivot columns of the reduced rows
    (`Subspace`) or solve a small system there (`min_poly`).
    """

    def __init__(self):
        self.rows: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """vec minus its combination of the rows: zero at every pivot column."""
        rows = self.rows
        rem = {i: v for i, v in vec.items() if v}
        heap = [p for p in rem if p in rows]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            c = rem.pop(p, None)
            if c is None:  # queued twice, or cancelled to zero
                continue
            nc = -c
            for i, x in rows[p].items():
                if i == p:
                    continue
                s = rem.get(i)
                if s is None:
                    rem[i] = nc * x
                    if i in rows:
                        heapq.heappush(heap, i)
                else:
                    s = s + nc * x
                    if s:
                        rem[i] = s
                    else:
                        del rem[i]
        return rem

    def add(self, vec: Vec) -> bool:
        """Insert a vector; True if it added a new direction."""
        rem = self.reduce(vec)
        if not rem:
            return False
        p = min(rem)
        inv = inverse(rem[p])
        # rational entries in canonical type (int if integral)
        self.rows[p] = {i: canonical(inv * x) for i, x in rem.items()}
        return True

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def rref(self) -> dict[int, Vec]:
        """Back-substitute once, last pivot first; return the reduced rows."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            # every later row is already reduced, so clearing one pivot column
            # leaves the others untouched
            cleared = [q for q in row if q != p and q in rows]
            for q in cleared:
                _iadd_scaled(row, rows[q], -row[q])
            if cleared:
                for i, x in row.items():
                    row[i] = canonical(x)
        return rows


# -- certified elimination modulo a prime ----------------------------------------
#
# Rational rows are reduced modulo _P, the reduced rows are rebuilt entry by
# entry by rational reconstruction (Wang, Guy and Davenport, SIGSAM Bull. 16,
# 1982), and the result stands only if an exact check proves it: every input
# must equal the combination of the rebuilt rows read at their pivot columns.
# Then span(inputs) lies in span(rows), and rank over Q >= rank mod _P =
# len(rows), so the spans agree and the rows are the unique reduced echelon
# form, entry for entry what `Echelon` gives.

_P = 2**30 - 35  # the largest prime below 2^30: residues are one-digit ints
_BOUND = isqrt(_P // 2)  # reconstruction bound on numerator and denominator


def _residues(vecs: Sequence[Vec]) -> list[Vec] | None:
    """The vectors modulo _P, zeros dropped; None if an entry is not int/Fraction
    or has a denominator divisible by _P."""
    out = []
    for v in vecs:
        res: Vec = {}
        for i, x in v.items():
            if x.__class__ is int:
                r = x % _P
            elif x.__class__ is Fraction:
                d = x.denominator % _P
                if not d:
                    return None
                r = x.numerator * pow(d, -1, _P) % _P
            else:
                return None
            if r:
                res[i] = r
        out.append(res)
    return out


def _rref_mod(vecs: Sequence[Vec]) -> dict[int, Vec]:
    """Reduced echelon rows modulo _P, pivot -> row without its pivot entry (1)."""
    rows: dict[int, Vec] = {}
    for rem in vecs:
        heap = [p for p in rem if p in rows]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            c = rem.pop(p, None)
            if c is None:  # queued twice, or cancelled to zero
                continue
            for i, x in rows[p].items():
                s = rem.get(i)
                if s is None:
                    rem[i] = -c * x % _P
                    if i in rows:
                        heapq.heappush(heap, i)
                else:
                    s = (s - c * x) % _P
                    if s:
                        rem[i] = s
                    else:
                        del rem[i]
        if rem:
            p = min(rem)
            inv = pow(rem.pop(p), -1, _P)
            rows[p] = {i: x * inv % _P for i, x in rem.items()}
    for p in sorted(rows, reverse=True):
        row = rows[p]
        for q in [q for q in row if q in rows]:
            c = row.pop(q)
            for i, x in rows[q].items():
                s = (row.get(i, 0) - c * x) % _P
                if s:
                    row[i] = s
                else:
                    row.pop(i, None)
    return rows


def _reconstruct(a: int) -> tuple[int, int] | None:
    """(n, d) with n/d = a mod _P, |n| and d at most _BOUND, gcd 1; else None."""
    r0, r1, s0, s1 = _P, a, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > _BOUND or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _certified_rref(vecs: Sequence[Vec]) -> dict[int, Vec] | None:
    """The reduced echelon rows (pivot -> row) of int/Fraction vectors, proved
    exact, or None when the exact path must decide (see the note above)."""
    residues = _residues(vecs)
    if residues is None:
        return None
    mod_rows = _rref_mod(residues)
    # rebuild: each row as integers over a common denominator, and as scalars
    rebuilt: dict[int, tuple[Vec, int]] = {}
    rows: dict[int, Vec] = {}
    cache: dict[int, tuple[int, int, Scalar]] = {}
    for p, mrow in mod_rows.items():
        fracs = []
        for i, a in mrow.items():
            hit = cache.get(a)
            if hit is None:
                nd = _reconstruct(a)
                if nd is None:
                    return None
                n, d = nd
                hit = cache[a] = (n, d, n if d == 1 else Fraction(n, d))
            fracs.append((i, hit))
        den = lcm(*(d for _, (_, d, _) in fracs))
        rebuilt[p] = ({i: n * (den // d) for i, (n, d, _) in fracs}, den)
        rows[p] = {p: 1, **{i: val for i, (_, _, val) in fracs}}
    # the check, in integers: L*D*v[f] == sum_p L*v[p] * (D/d_p) * N_p[f] off the pivots
    for v in vecs:
        scale = lcm(*(x.denominator for x in v.values()))
        used = [p for p in v if p in rebuilt and v[p]]
        den = lcm(*(rebuilt[p][1] for p in used))
        acc: dict[int, int] = {}
        for p in used:
            x = v[p]
            nums, d = rebuilt[p]
            c = x.numerator * (scale // x.denominator) * (den // d)
            for i, y in nums.items():
                acc[i] = acc.get(i, 0) + c * y
        for i, x in v.items():
            if i not in rebuilt and acc.pop(i, 0) != x.numerator * (scale // x.denominator) * den:
                return None
        if any(acc.values()):
            return None
    return rows


def _rref_rows(vecs: Sequence[Vec]) -> dict[int, Vec]:
    """Reduced echelon rows of the vectors: certified modulo _P when it can be,
    else by exact elimination."""
    rows = _certified_rref(vecs)
    if rows is not None:
        return rows
    ech = Echelon()
    for v in vecs:
        ech.add(v)
    return ech.rref()


def kernel(constraints: Iterable[Vec], ncols: int) -> list[Vec]:
    """Kernel basis of the linear map given by constraint rows over ncols unknowns.

    One vector per free column f, in increasing f: 1 at f and, at each pivot
    column, minus the reduced row's entry at f.
    """
    rows = _rref_rows([row for row in constraints if row])
    free: dict[int, Vec] = {}
    for p in sorted(rows):
        for f, c in rows[p].items():
            if f != p:
                free.setdefault(f, {f: 1})[p] = canonical(-c)
    return [free.get(f, {f: 1}) for f in range(ncols) if f not in rows]


class Subspace:
    """A subspace of an ambient coordinate space, with exact coordinates.

    The basis is the reduced echelon form of the spanning vectors, in pivot
    order: each basis vector is 1 at its own pivot column and 0 at the
    others, so a vector of the subspace has its entries at the pivot columns
    as its coordinates.  It is the one batch span: `dim` is the rank of the
    spanning vectors, and two spans are equal iff their bases are.
    """

    def __init__(self, dim_ambient: int, basis: Sequence[Vec]):
        self.dim_ambient = dim_ambient
        self._ech = Echelon()
        # a fully reduced echelon form meets the Echelon invariant
        self._ech.rows = rows = _rref_rows(basis)
        self._pivots = sorted(rows)
        self.basis: list[Vec] = [rows[p] for p in self._pivots]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def full(cls, n: int) -> Subspace:
        return cls(n, [{i: 1} for i in range(n)])

    def coords_of(self, vec: Vec) -> Vec | None:
        if self._ech.reduce(vec):
            return None
        return {j: canonical(vec[p]) for j, p in enumerate(self._pivots) if vec.get(p)}

    def contains(self, vec: Vec) -> bool:
        return not self._ech.reduce(vec)

    def lift(self, coords: Vec) -> Vec:
        out: Vec = {}
        for j, c in coords.items():
            out = vec_add_scaled(out, self.basis[j], c)
        return out

    def restrict(self, m: Mat) -> Mat:
        """Matrix of m on this subspace; raises if not invariant."""
        rows: dict[int, Vec] = {}
        for j, b in enumerate(self.basis):
            w = m.apply(b)
            coords = self.coords_of(w)
            if coords is None:
                raise ValueError("subspace not invariant under operator")
            for i, c in coords.items():
                rows.setdefault(i, {})[j] = c
        return Mat(self.dim, self.dim, rows)

    def sub_lift(self, small: Subspace) -> Subspace:
        """Lift a subspace of this coordinate space into the ambient space."""
        return Subspace(self.dim_ambient, [self.lift(v) for v in small.basis])


def closure(seeds: Iterable, gens: Sequence, vec: Callable[..., Vec]) -> list:
    """A basis of the least span that holds the seeds and is closed under
    x -> x * g for each g in gens, found breadth first.

    Keeps each seed, then each product x * g (x walking the kept list in
    order, g running over gens), whose vec(...) is independent of the vectors
    kept before it.  With gens=() it picks out the independent seeds.
    """
    ech = Echelon()
    kept = [x for x in seeds if ech.add(vec(x))]
    for x in kept:  # the loop also walks the products appended below
        for g in gens:
            y = x * g
            if ech.add(vec(y)):
                kept.append(y)
    return kept


def centralizer(
    basis: Sequence, gens: Iterable, vec: Callable[..., Vec], twist: Callable | None = None
) -> list:
    """The x in the span of basis with x g = twist(g) x for each g in gens
    (twist(g) = g by default).

    One combination sum_i c_i basis[i] per vector c of `kernel` of the system
    sum_i c_i vec(basis[i] g - twist(g) basis[i]) = 0, in kernel's order.  With
    gens=() that is the basis itself.
    """
    rows: dict[tuple[int, int], Vec] = {}
    for k, g in enumerate(gens):
        tg = g if twist is None else twist(g)
        for i, b in enumerate(basis):
            for t, c in vec(b * g - tg * b).items():
                rows.setdefault((k, t), {})[i] = c
    out = []
    for sol in kernel(rows.values(), len(basis)):
        terms = (basis[i].scale(c) for i, c in sol.items())
        x = next(terms)
        for term in terms:
            x = x + term
        out.append(x)
    return out


def min_poly(m: Mat) -> list[Scalar]:
    """Monic minimal polynomial coefficients, low degree first.

    Powers of m go into an echelon form until one is dependent.  A vector of
    the span of the independent powers is fixed by its entries at their pivot
    columns, so the dependency is the one kernel vector of the powers
    restricted to those columns; its last entry is the free one, hence 1.
    """
    ech = Echelon()
    powers: list[Vec] = []
    power = Mat.identity(m.nrows)
    while True:
        powers.append(vecize(power))
        if not ech.add(powers[-1]):
            break
        power = power * m
    small = [{k: v[p] for k, v in enumerate(powers) if p in v} for p in ech.rows]
    (dependency,) = kernel(small, len(powers))
    return [dependency.get(k, 0) for k in range(len(powers))]


def lagrange_projector(one, terms: Iterable[tuple]):
    """The product of (op - mu) / (lam - mu) over (op, lam, mu) in terms, in
    order, from `one`, the ops' unit (an identity `Mat` or a unit element), with
    the scalars 1 / (lam - mu) applied once at the end: integer operators with
    rational eigenvalues multiply in integers."""
    proj, scale = one, 1
    for op, lam, mu in terms:
        proj = proj * (op - one.scale(mu))
        scale = scale * inverse(lam - mu)
    return proj.scale(scale)


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, increasing, from the pairs (d, n // d) with d*d <= n."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _deflate(coeffs: list[Scalar], root: Scalar) -> tuple[list, Scalar]:
    """(quotient, remainder) of a monic polynomial divided by (x - root)."""
    deg = len(coeffs) - 1
    out = [0] * deg
    acc = coeffs[deg]
    for i in range(deg - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * root
    return out, acc


def _divide_rational_roots(work: list[Scalar]) -> tuple[list, list[Scalar]]:
    """(the rational roots, ascending, each with its multiplicity; the cofactor).

    The candidates are 0 and the p/q of the rational root test on the
    polynomial scaled to integer coefficients; each is tried once, by
    deflating for as long as it divides.
    """
    values = [rational_of(c) for c in work]
    if any(q is None for q in values):
        return [], work
    denom = lcm(*(q.denominator for q in values))
    ints = [int(q * denom) for q in values]
    low = next(i for i, c in enumerate(ints) if c)
    candidates = [0] if low else []
    candidates += [
        canonical(Fraction(s * p, q))
        for p in _divisors(ints[low]) for q in _divisors(ints[-1]) if gcd(p, q) == 1
        for s in (1, -1)
    ]
    roots = []
    for r in candidates:
        mult = 0
        while len(work) > 1:
            quotient, remainder = _deflate(work, r)
            if remainder:
                break
            work, mult = quotient, mult + 1
        if mult:
            roots.append((r, mult))
    return sorted(roots), work


def poly_factors(coeffs: list[Scalar]) -> list[tuple[list[Scalar], Scalar | None]]:
    """Pairwise-coprime monic factors of a monic polynomial, each with its
    root r when it is (x - r)^k, else with None.

    The rational roots come off first, ascending, as (x - r)^k factors; the
    remainder, if any, is one last factor, which keeps its root only when it
    is linear.  Splitting is over Q: the eigenvalues this package splits by
    are integers, so a remainder of degree 2 or more is left whole.
    """
    found, work = _divide_rational_roots(list(coeffs))
    factors: list[tuple[list[Scalar], Scalar | None]] = []
    for r, mult in found:
        factor = [1]
        for _ in range(mult):
            factor = _poly_mul(factor, [-r, 1])
        factors.append((factor, r))
    if len(work) > 1:
        factors.append((work, -work[0] if len(work) == 2 else None))
    return factors


def _poly_mul(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_apply(coeffs: list[Scalar], m: Mat) -> Mat:
    """Evaluate a polynomial at a matrix (Horner)."""
    acc = Mat.scalar(m.nrows, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * m + Mat.scalar(m.nrows, c)
    return acc


def coprime_split(m: Mat) -> list[tuple[Subspace | None, Scalar | None]]:
    """The space of m cut by the pairwise-coprime factors over Q of its minimal
    polynomial.

    One (piece, root) pair per factor f of `poly_factors`, in its order (the
    rational roots ascending, then the remainder): the kernel of f(m), and
    f's root r when f is (x - r)^k, else None.  The
    pieces add up to the whole space; a single factor's piece is the whole
    space, given as None and not formed.
    """
    factors = poly_factors(min_poly(m))
    if len(factors) == 1:
        return [(None, factors[0][1])]
    split = [
        (Subspace(m.nrows, kernel(list(_poly_apply(f, m).rows.values()), m.nrows)), r)
        for f, r in factors
    ]
    if sum(piece.dim for piece, _ in split) != m.nrows:
        raise CheckFailed("coprime factor split lost dimensions")
    return split


def eigensplit(
    pieces: list[Subspace], operators: Iterable[Mat]
) -> list[tuple[Subspace, list[Scalar]]]:
    """Refine subspaces into joint (generalized) eigenspaces of commuting operators.

    Returns (piece, eigenvalue list) pairs, eigenvalues in operator order;
    a piece is cut by `coprime_split` in ascending eigenvalue order.  Raises
    CheckFailed if a factor of an operator's minimal polynomial has no root,
    as one with an irrational eigenvalue such as sqrt 2 has.
    """
    labeled: list[tuple[Subspace, list[Scalar]]] = [(p, []) for p in pieces]
    for op in operators:
        refined: list[tuple[Subspace, list[Scalar]]] = []
        for piece, label in labeled:
            small = piece.restrict(op)
            if small.nrows and small.is_zero():
                refined.append((piece, label + [0]))
                continue
            split = coprime_split(small)
            if any(lam is None for _, lam in split):
                raise CheckFailed("minimal polynomial did not split over the field")
            for sub, lam in split:
                refined.append((piece if sub is None else piece.sub_lift(sub), label + [lam]))
        labeled = refined
    return labeled
