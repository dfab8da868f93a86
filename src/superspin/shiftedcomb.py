"""Strict partitions, shifted standard tableaux, and the graded branching graph.

The shifted diagram of a strict partition puts row r (0-based) in columns
r..r+part-1.  Entries of a standard filling give the b-vector (column minus
row per entry) and the a-vector a_i = b_i(b_i+1)/2, which is the joint
spectrum label used everywhere else.  The branching graph carries the parity
involution omega: M-type labels appear as antipodal vertex pairs, Q-type
labels as omega-fixed vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Sequence

from . import spinalg
from .linalg import CheckFailed

# Size caps: past them enumeration runs for minutes or exhausts memory, so the
# request is refused.  At the caps, on a 2-core VM: strict_partitions(90)
# lists 189,586 partitions in 2 s, the 12,376 tableaux of (6,5,4,3) take 1 s,
# and `branching-graph 30` (2,034 shapes) takes 0.3 s; building and validating
# level 40 takes 0.5 s, so raising the graph cap is left to a timed change.
# The cell cap keeps the fill recursion, one level per cell, far below
# Python's recursion limit.
MAX_PARTITION_N = 90
MAX_TABLEAU_CELLS = 100
MAX_TABLEAUX = 20_000
MAX_GRAPH_N = 30


@dataclass(frozen=True, order=True)
class StrictPartition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a <= b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be strictly decreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @classmethod
    def parse(cls, text: str) -> StrictPartition:
        # int() refuses an empty field, so "", "3,,1" and "3," are errors
        return cls(tuple(int(p) for p in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r, p in enumerate(self.parts)
            for c in range(r, r + p)
        ]

    def covers(self) -> list[StrictPartition]:
        """Strict partitions obtained by removing one cell."""
        out = []
        parts = self.parts
        for i, p in enumerate(parts):
            nxt = parts[i + 1] if i + 1 < len(parts) else 0
            if p - 1 > nxt:
                out.append(StrictPartition(parts[:i] + (p - 1,) + parts[i + 1 :]))
            elif p == 1 and i == len(parts) - 1 and len(parts) > 1:
                out.append(StrictPartition(parts[:-1]))
        return out

    def successors(self) -> list[StrictPartition]:
        """Strict partitions obtained by adding one cell."""
        out = []
        parts = self.parts
        for i in range(len(parts)):
            cand = parts[:i] + (parts[i] + 1,) + parts[i + 1 :]
            if i == 0 or parts[i - 1] > parts[i] + 1:
                out.append(StrictPartition(cand))
        if not parts or parts[-1] > 1:
            out.append(StrictPartition(parts + (1,)))
        return out


def strict_partitions(n: int) -> list[StrictPartition]:
    """All strict partitions of n, largest first part first (n = 0 has one)."""
    if n < 0:
        raise ValueError(f"strict partitions need n >= 0, got {n}")
    if n > MAX_PARTITION_N:
        raise ValueError(f"strict partitions are listed for n <= {MAX_PARTITION_N}")

    def rec(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - p, p - 1):
                yield (p,) + tail

    return [StrictPartition(t) for t in sorted(rec(n, n), reverse=True)]


@dataclass(frozen=True)
class ShiftedTableau:
    shape: StrictPartition
    rows: tuple[tuple[int, ...], ...]

    def entries(self) -> dict[int, tuple[int, int]]:
        return {
            v: (r, r + k)
            for r, row in enumerate(self.rows)
            for k, v in enumerate(row)
        }

    def word_permutation(self) -> tuple[int, ...]:
        """Permutation sending the row-filled tableau's entries to this one."""
        t0 = row_filled_tableau(self.shape)
        base = t0.entries()
        mine = self.entries()
        cellmap = {cell: v for v, cell in mine.items()}
        return tuple(cellmap[base[i]] for i in range(1, self.shape.n + 1))

    def length(self) -> int:
        perm = self.word_permutation()
        n = len(perm)
        return sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )

    def __str__(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows)


def row_filled_tableau(shape: StrictPartition) -> ShiftedTableau:
    rows = []
    nxt = 1
    for p in shape.parts:
        rows.append(tuple(range(nxt, nxt + p)))
        nxt += p
    return ShiftedTableau(shape, tuple(rows))


def _is_standard(shape: StrictPartition, rows: Sequence[Sequence[int]]) -> bool:
    grid = {}
    for r, row in enumerate(rows):
        for k, v in enumerate(row):
            grid[(r, r + k)] = v
    for (r, c), v in grid.items():
        if (r, c + 1) in grid and grid[(r, c + 1)] <= v:
            return False
        if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
            return False
    return True


def tableau_count(shape: StrictPartition) -> int:
    """Number of standard shifted tableaux (Schur's product formula).

    n! / (l_1! ... l_k!) * prod_{i<j} (l_i - l_j) / (l_i + l_j).
    """
    count = Fraction(factorial(shape.n))
    for i, a in enumerate(shape.parts):
        count /= factorial(a)
        for b in shape.parts[i + 1 :]:
            count *= Fraction(a - b, a + b)
    return int(count)


def standard_tableaux(shape: StrictPartition) -> list[ShiftedTableau]:
    """All standard fillings, row-filled tableau first, then by length and b-vector."""
    n = shape.n
    if n > MAX_TABLEAU_CELLS or tableau_count(shape) > MAX_TABLEAUX:
        raise ValueError(
            f"shape {shape} is too large: tableaux are listed for at most "
            f"{MAX_TABLEAU_CELLS} cells and {MAX_TABLEAUX} tableaux"
        )
    cells = shape.cells()
    cellset = set(cells)
    results: list[ShiftedTableau] = []

    def addable(filled: dict) -> list[tuple[int, int]]:
        out = []
        for (r, c) in cells:
            if (r, c) in filled:
                continue
            if (r, c - 1) in cellset and (r, c - 1) not in filled:
                continue
            if (r - 1, c) in cellset and (r - 1, c) not in filled:
                continue
            out.append((r, c))
        return sorted(out)

    def rec(step: int, filled: dict):
        if step > n:
            rows = []
            for r, p in enumerate(shape.parts):
                rows.append(tuple(filled[(r, r + c)] for c in range(p)))
            results.append(ShiftedTableau(shape, tuple(rows)))
            return
        for cell in addable(filled):
            filled[cell] = step
            rec(step + 1, filled)
            del filled[cell]

    rec(1, {})
    results.sort(key=lambda t: (t.length(), spectrum_vector(t).b))
    return results


@dataclass(frozen=True)
class SpectrumVector:
    b: tuple[int, ...]
    a: tuple[int, ...]

    def to_json(self) -> dict:
        return {"b": list(self.b), "a": list(self.a)}


def spectrum_vector(t: ShiftedTableau) -> SpectrumVector:
    """b_i = column - row of the cell of i; a_i = b_i(b_i+1)/2."""
    ent = t.entries()
    b = tuple(ent[i][1] - ent[i][0] for i in range(1, t.shape.n + 1))
    a = tuple(v * (v + 1) // 2 for v in b)
    return SpectrumVector(b, a)


def tableau_from_bvector(b: Sequence[int]) -> ShiftedTableau:
    """Reconstruct the tableau whose shifted contents are b (unique if valid)."""
    rows: list[list[int]] = []
    row_len: list[int] = []
    for i, d in enumerate(b, start=1):
        placed = False
        for r in range(len(rows)):
            c = r + row_len[r]  # next free column of row r
            if c - r == d:
                rows[r].append(i)
                row_len[r] += 1
                placed = True
                break
        if not placed:
            if d != 0:
                raise ValueError(f"invalid b-vector {b}")
            rows.append([i])
            row_len.append(1)
    shape = StrictPartition(tuple(row_len))
    t = ShiftedTableau(shape, tuple(tuple(r) for r in rows))
    if not _is_standard(shape, t.rows):
        raise ValueError(f"b-vector {b} does not give a standard tableau")
    return t


def apply_transposition(t: ShiftedTableau, i: int) -> ShiftedTableau | None:
    """Swap entries i and i+1; None if the result is not standard."""
    swapped = tuple(
        tuple(i + 1 if v == i else i if v == i + 1 else v for v in row)
        for row in t.rows
    )
    cand = ShiftedTableau(t.shape, swapped)
    return cand if _is_standard(t.shape, swapped) else None


def admissible_transpositions(t: ShiftedTableau) -> list[int]:
    n = t.shape.n
    return [i for i in range(1, n) if apply_transposition(t, i) is not None]


def spectrum_condition_report(n: int) -> dict:
    """Check the integer-spectrum conditions on all realized b-vectors.

    Conditions: b_1 = 0 and entries are nonnegative integers; adjacent entries
    differ; swappability matches a_i + a_{i+1} != (a_i - a_{i+1})^2.  The
    no-(d, d+1, d) pattern condition admits exceptions, which are collected
    verbatim rather than assumed away; all observed ones have d = 0, where the
    excluded-pattern argument degenerates.
    """
    realized: set[tuple[int, ...]] = set()
    by_shape: dict[StrictPartition, set[tuple[int, ...]]] = {}
    for shape in strict_partitions(n):
        vecs = {spectrum_vector(t).b for t in standard_tableaux(shape)}
        by_shape[shape] = vecs
        realized |= vecs
    cond1 = all(b[0] == 0 and all(x >= 0 for x in b) for b in realized)
    cond2 = all(b[i] != b[i + 1] for b in realized for i in range(len(b) - 1))
    cond4 = True
    for b in realized:
        for i in range(len(b) - 1):
            if b[i + 1] not in (b[i] - 1, b[i] + 1):
                swapped = b[:i] + (b[i + 1], b[i]) + b[i + 2 :]
                if swapped not in realized:
                    cond4 = False
    exceptions = sorted(
        {
            (b[i], b[i + 1], b[i + 2])
            for b in realized
            for i in range(len(b) - 2)
            if b[i + 2] == b[i] and b[i + 1] == b[i] + 1
        }
    )
    return {
        "n": n,
        "condition1": cond1,
        "condition2": cond2,
        "condition4": cond4,
        "condition3_exceptions": exceptions,
        "exceptions_all_degenerate": all(d == 0 for d, _, _ in exceptions),
    }


def conjectured_type(shape: StrictPartition) -> str:
    """Observed type pattern: M when n - length is even, Q when odd."""
    return "M" if (shape.n - len(shape)) % 2 == 0 else "Q"


# -- branching graph -----------------------------------------------------------


@dataclass
class Vertex:
    vid: str
    level: int
    partition: StrictPartition
    vtype: str  # "M" or "Q"
    copy: str  # "+", "-" for M pairs; "0" for Q


@dataclass
class BranchingGraph:
    n: int
    vertices: dict[str, Vertex] = field(default_factory=dict)
    levels: list[list[str]] = field(default_factory=list)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    omega: dict[str, str] = field(default_factory=dict)
    source_tag: str = "combinatorial"

    @staticmethod
    def vertex_id(level: int, shape: StrictPartition, copy: str) -> str:
        return f"{level}|{shape}|{copy}"

    def add_vertex(self, level: int, shape: StrictPartition, vtype: str) -> list[str]:
        while len(self.levels) < level:
            self.levels.append([])
        copies = ["+", "-"] if vtype == "M" else ["0"]
        ids = []
        for c in copies:
            vid = self.vertex_id(level, shape, c)
            self.vertices[vid] = Vertex(vid, level, shape, vtype, c)
            self.levels[level - 1].append(vid)
            ids.append(vid)
        if vtype == "M":
            self.omega[ids[0]] = ids[1]
            self.omega[ids[1]] = ids[0]
        else:
            self.omega[ids[0]] = ids[0]
        return ids

    def add_edge(self, u: str, v: str, mult: int = 1) -> None:
        if mult:
            self.edges[(u, v)] = self.edges.get((u, v), 0) + mult

    def add_cover(self, lo: list[str], hi: list[str], mult: int = 1) -> None:
        """Edges of one cover lo -> hi, wired by the M/Q types of its ends.

        lo and hi are the vertex ids of a shape: two antipodes for M, one
        for Q.  M -> M joins the antipodes pairwise, M -> Q joins both to
        the one vertex, Q -> M joins the one vertex to both.
        """
        if len(lo) == 2 and len(hi) == 2:
            pairs = [(0, 0), (1, 1)]
        else:
            pairs = [(a, b) for a in range(len(lo)) for b in range(len(hi))]
        for a, b in pairs:
            self.add_edge(lo[a], hi[b], mult)

    def sources(self) -> list[str]:
        return list(self.levels[0])

    def validate(self) -> None:
        for vid, w in self.omega.items():
            if self.omega[w] != vid:
                raise CheckFailed("omega is not an involution")
            if (self.vertices[vid].vtype == "Q") != (w == vid):
                raise CheckFailed("type labels inconsistent with omega")
        for (u, v), m in self.edges.items():
            if self.vertices[u].level + 1 != self.vertices[v].level:
                raise CheckFailed("edge does not connect adjacent levels")
            if m <= 0:
                raise CheckFailed("edge multiplicities must be positive")
            im = self.edges.get((self.omega[u], self.omega[v]), 0)
            if im != m:
                raise CheckFailed("omega is not a graph automorphism")
        starts = {u for u, _ in self.edges}
        ends = {v for _, v in self.edges}
        for lvl, ids in enumerate(self.levels, start=1):
            for vid in ids:
                if lvl < len(self.levels) and vid not in starts:
                    raise CheckFailed(f"vertex {vid} has no successor")
                if lvl > 1 and vid not in ends:
                    raise CheckFailed(f"vertex {vid} has no predecessor")
        src = self.sources()
        if len(src) != 2 or self.omega[src[0]] != src[1]:
            raise CheckFailed("bottom level must be two omega-swapped vertices")

    def orbit_label(self, vid: str) -> tuple[int, tuple[int, ...]]:
        v = self.vertices[vid]
        return (v.level, v.partition.parts)

    def orbit_edge_support(self) -> set[tuple[tuple, tuple]]:
        return {
            (self.orbit_label(u), self.orbit_label(v)) for (u, v) in self.edges
        }

    def _successors(self) -> dict[str, list[tuple[str, int]]]:
        """vertex -> [(successor, multiplicity)], in edge order."""
        succ: dict[str, list[tuple[str, int]]] = {}
        for (u, v), m in self.edges.items():
            succ.setdefault(u, []).append((v, m))
        return succ

    def path_counts(self) -> dict[str, tuple[int, int]]:
        """(paths from source +, paths from source -) for every vertex."""
        src = self.sources()
        counts = {vid: [0, 0] for vid in self.vertices}
        counts[src[0]][0] = 1
        counts[src[1]][1] = 1
        succ = self._successors()
        for ids in self.levels[:-1]:
            for u in ids:
                for b, m in succ.get(u, ()):
                    counts[b][0] += counts[u][0] * m
                    counts[b][1] += counts[u][1] * m
        return {vid: (c[0], c[1]) for vid, c in counts.items()}

    def maximal_paths(self) -> list[tuple[str, ...]]:
        out: list[tuple[str, ...]] = []
        succ = self._successors()

        def rec(path: tuple[str, ...]):
            u = path[-1]
            if self.vertices[u].level == len(self.levels):
                out.append(path)
                return
            for v, m in sorted(succ.get(u, [])):
                for _ in range(m):
                    rec(path + (v,))

        for s in self.sources():
            rec((s,))
        return out

    # -- emission -----------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph branching {", "  rankdir=BT;"]
        for lvl, ids in enumerate(self.levels, start=1):
            lines.append("  { rank = same;")
            for vid in ids:
                v = self.vertices[vid]
                label = f"({v.partition}) [{v.vtype}]"
                if v.vtype == "M":
                    label += v.copy
                lines.append(f'    "{vid}" [label="{label}"];')
            lines.append("  }")
        for (u, v) in sorted(self.edges):
            m = self.edges[(u, v)]
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f'  "{u}" -> "{v}"{attr};')
        seen = set()
        for vid, w in sorted(self.omega.items()):
            if vid != w and (w, vid) not in seen:
                seen.add((vid, w))
                lines.append(f'  "{vid}" -> "{w}" [style=dashed, dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "schema": "superspin/1",
            "n": self.n,
            "source": self.source_tag,
            "levels": [
                [
                    {
                        "id": vid,
                        "level": self.vertices[vid].level,
                        "partition": list(self.vertices[vid].partition.parts),
                        "type": self.vertices[vid].vtype,
                        "antipode": self.omega[vid],
                    }
                    for vid in ids
                ]
                for ids in self.levels
            ],
            "edges": [
                {"from": u, "to": v, "multiplicity": m}
                for (u, v), m in sorted(self.edges.items())
            ],
        }


def schur_branching_graph(n: int) -> BranchingGraph:
    """The combinatorial branching graph of the spin chain up to level n.

    Edges are the shifted-diagram cover relations with unit multiplicities,
    and types follow the validated parity-of-corank pattern
    (`conjectured_type`).  `seminormal.branching_graph_from_reps` computes
    the same graph from restrictions of the built models.
    """
    if n < 1:
        raise ValueError("the branching graph needs n >= 1")
    if n > MAX_GRAPH_N:
        raise ValueError(f"combinatorial source limited to n <= {MAX_GRAPH_N}")
    g = BranchingGraph(n, source_tag="combinatorial")
    ids_by_shape: dict[tuple[int, StrictPartition], list[str]] = {}
    for level in range(1, n + 1):
        for shape in strict_partitions(level):
            vtype = conjectured_type(shape)
            if level == 1:
                vtype = "M"  # rank-1 algebra is the (1,0) matrix algebra
            ids_by_shape[(level, shape)] = g.add_vertex(level, shape, vtype)
    for level in range(1, n):
        for shape in strict_partitions(level):
            for up in shape.successors():
                if up.n != level + 1:
                    continue
                g.add_cover(ids_by_shape[(level, shape)], ids_by_shape[(level + 1, up)])
    return g


def algebra_from_graph(g: BranchingGraph) -> list[dict]:
    """Block summary from path counts: M(n_t, m_t) per pair, Q(n_t) per fixed."""
    g.validate()
    counts = g.path_counts()
    blocks = []
    seen = set()
    for vid in g.levels[-1]:
        if vid in seen:
            continue
        v = g.vertices[vid]
        seen.add(vid)
        n_t, m_t = counts[vid]
        if v.vtype == "M":
            seen.add(g.omega[vid])
            blocks.append(
                {
                    "type": "M",
                    "params": (n_t, m_t),
                    "dimension": (n_t + m_t) ** 2,
                    "partition": list(v.partition.parts),
                }
            )
        else:
            if n_t != m_t:
                raise CheckFailed("Q vertex with asymmetric path counts")
            blocks.append(
                {
                    "type": "Q",
                    "params": n_t,
                    "dimension": 2 * n_t * n_t,
                    "partition": list(v.partition.parts),
                }
            )
    blocks.sort(key=lambda b: (b["dimension"], b["partition"]))
    return blocks


def path_equivalence_classes(g: BranchingGraph) -> list[list[tuple[str, ...]]]:
    """Group maximal paths by collapsed (orbit) vertex sequence and endpoint."""
    classes: dict[tuple, list[tuple[str, ...]]] = {}
    for path in g.maximal_paths():
        key = (tuple(g.orbit_label(v) for v in path), path[-1])
        classes.setdefault(key, []).append(path)
    return [classes[k] for k in sorted(classes)]


def odd_partition_count_check(n: int) -> dict:
    """Compare strict-partition, odd-partition and supercenter dimensions."""
    if n > 7:
        raise ValueError("n <= 7")
    strict_count = len(strict_partitions(n))
    odd_count = len(spinalg.odd_partitions(n))
    supercenter_dim = len(spinalg.supercentralizer(n, n))
    return {
        "n": n,
        "strict_count": strict_count,
        "odd_count": odd_count,
        "supercenter_dim": supercenter_dim,
        "all_equal": strict_count == odd_count == supercenter_dim,
    }
