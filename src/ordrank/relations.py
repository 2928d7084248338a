"""Equivalence-closure (gamma) iteration on finite cell relations.

Relations on a finite quotient of a space are stored as boolean matrices
with bitset rows.  Closure goes through union-find while the chain
relations go through boolean matrix powers, so the two independent
algorithms can cross-check each other.  On a finite discrete quotient the
topological closure is the identity, which makes one gamma step exactly
the equivalence closure; the transfinite content lives across resolutions,
never inside a single level, and tower reports only ever certify the sound
direction (a level stabilizing below all-pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import engine
from .ordinals import Ordinal


class TowerInconsistentError(ValueError):
    """A finer level projects outside the coarser relation."""


@dataclass(frozen=True)
class FinitePointSpace:
    """Ordered cell identifiers, optionally with a map into a coarser space."""

    cells: tuple[str, ...]
    parent: tuple[tuple[str, str], ...] | None = None
    # lookup tables derived from the two fields above
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _parents: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.cells)})
        if len(self._index) != len(self.cells):
            raise ValueError("cell identifiers must be unique")
        object.__setattr__(self, "_parents", dict(self.parent or ()))
        if self.parent is not None and self._parents.keys() != self._index.keys():
            raise ValueError("parent map must be total on the cells")

    def __len__(self) -> int:
        return len(self.cells)

    def index(self, cell: str) -> int:
        try:
            return self._index[cell]
        except KeyError:
            raise ValueError(f"{cell!r} is not a cell of the space") from None

    def parent_of(self, cell: str) -> str:
        if self.parent is None:
            raise ValueError("space has no parent map")
        return self._parents[cell]


def space(cells: Iterable[str], parent: dict[str, str] | None = None) -> FinitePointSpace:
    cells = tuple(cells)
    mapping = tuple(sorted(parent.items())) if parent is not None else None
    return FinitePointSpace(cells=cells, parent=mapping)


@dataclass(frozen=True)
class CellRelation:
    """Boolean matrix over a space; bit j of rows[i] relates cell i to cell j."""

    space: FinitePointSpace
    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.space)
        if len(self.rows) != n:
            raise ValueError("row count must equal the cell count")
        mask = (1 << n) - 1
        for row in self.rows:
            if row & ~mask:
                raise ValueError("row has bits outside the cell range")

    @classmethod
    def from_pairs(
        cls, sp: FinitePointSpace, pairs: Iterable[tuple[str, str]]
    ) -> "CellRelation":
        rows = [0] * len(sp)
        for u, v in pairs:
            rows[sp.index(u)] |= 1 << sp.index(v)
        return cls(space=sp, rows=tuple(rows))

    def has(self, u: str, v: str) -> bool:
        return bool(self.rows[self.space.index(u)] >> self.space.index(v) & 1)

    def pairs(self) -> list[tuple[str, str]]:
        cells = self.space.cells
        return [
            (cells[i], cells[j]) for i, row in enumerate(self.rows) for j in _bits(row)
        ]

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


def _bits(row: int) -> Iterator[int]:
    """Indices of the set bits of `row`, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def empty_relation(sp: FinitePointSpace) -> CellRelation:
    return CellRelation(space=sp, rows=(0,) * len(sp))


def all_pairs(sp: FinitePointSpace) -> CellRelation:
    mask = (1 << len(sp)) - 1
    return CellRelation(space=sp, rows=(mask,) * len(sp))


def strip_diagonal(r: CellRelation) -> CellRelation:
    rows = tuple(row & ~(1 << i) for i, row in enumerate(r.rows))
    return CellRelation(space=r.space, rows=rows)


def sym_refl(r: CellRelation) -> CellRelation:
    """R together with its transpose and the identity."""
    rows = list(r.rows)
    for i, row in enumerate(r.rows):
        rows[i] |= 1 << i
        for j in _bits(row):
            rows[j] |= 1 << i
    return CellRelation(space=r.space, rows=tuple(rows))


def compose(a: CellRelation, b: CellRelation) -> CellRelation:
    """Pairs (i, k) with some j linking i to j in `a` and j to k in `b`."""
    rows = []
    for row in a.rows:
        acc = 0
        for j in _bits(row):
            acc |= b.rows[j]
        rows.append(acc)
    return CellRelation(space=a.space, rows=tuple(rows))


def chain_n(r: CellRelation, n: int) -> CellRelation:
    """Pairs joined by a chain of exactly n relation steps (matrix power)."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    result = r
    for _ in range(n - 1):
        result = compose(result, r)
    return result


class _UnionFind:
    """Disjoint sets of cells; members[root] is the bitmask of root's set."""

    def __init__(self, n: int):
        self.root = list(range(n))
        self.members = [1 << i for i in range(n)]

    def find(self, i: int) -> int:
        while self.root[i] != i:
            self.root[i] = self.root[self.root[i]]
            i = self.root[i]
        return i

    def union(self, i: int, j: int):
        a, b = self.find(i), self.find(j)
        if a != b:
            self.root[a] = b
            self.members[b] |= self.members[a]


def equiv_closure(r: CellRelation) -> CellRelation:
    """Least equivalence relation containing R, by union-find over cells.

    Only the cells of a row outside its cell's current class need a union,
    so closing an equivalence relation costs one pass over the cells.
    """
    n = len(r.space)
    uf = _UnionFind(n)
    for i, row in enumerate(r.rows):
        for j in _bits(row & ~uf.members[uf.find(i)]):
            uf.union(i, j)
    rows = tuple(uf.members[uf.find(i)] for i in range(n))
    return CellRelation(space=r.space, rows=rows)


def gamma_finite(r: CellRelation) -> CellRelation:
    """One gamma step at a fixed finite resolution.

    Cells are clopen, so the topological closure contributes nothing and
    the step is exactly the equivalence closure.
    """
    return equiv_closure(r)


def is_equivalence(r: CellRelation) -> bool:
    return r == equiv_closure(r)


def gamma_operator() -> engine.MonotoneOperator:
    return engine.MonotoneOperator(
        name="gamma", kind=engine.EXPANSION, apply=gamma_finite
    )


class RelationDomain(engine.SetDomain):
    """Lattice of relations over one fixed finite point space."""

    def __init__(self, sp: FinitePointSpace):
        self.space = sp
        self.name = f"relations[{len(sp)} cells]"

    def _check(self, a: CellRelation):
        if a.space.cells != self.space.cells:
            raise ValueError("relation belongs to a different space")

    def equal(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        return a.rows == b.rows

    def leq(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        return all(ra & ~rb == 0 for ra, rb in zip(a.rows, b.rows))

    @property
    def bottom(self):
        return empty_relation(self.space)

    @property
    def top(self):
        return all_pairs(self.space)

    def finite_join(self, items: Sequence[CellRelation]):
        rows = [0] * len(self.space)
        for x in items:
            self._check(x)
            for i, row in enumerate(x.rows):
                rows[i] |= row
        return CellRelation(space=self.space, rows=tuple(rows))

    def finite_meet(self, items: Sequence[CellRelation]):
        items = list(items)
        if not items:
            return self.top
        rows = list(items[0].rows)
        for x in items[1:]:
            self._check(x)
            for i, row in enumerate(x.rows):
                rows[i] &= row
        return CellRelation(space=self.space, rows=tuple(rows))

    def size_metric(self, a) -> int:
        self._check(a)
        return a.pair_count


# -- resolution towers -----------------------------------------------------


@dataclass(frozen=True)
class RelationTower:
    """Relations at successively finer resolutions, finest last."""

    levels: tuple[tuple[FinitePointSpace, CellRelation], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("tower must have at least one level")
        for sp, rel in self.levels:
            if rel.space.cells != sp.cells:
                raise ValueError("relation space does not match level space")


@dataclass(frozen=True)
class TowerViolation:
    level: int
    pair: tuple[str, str]
    reason: str


@dataclass
class TowerCheck:
    violations: list[TowerViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _projection_violations(
    t: RelationTower, exempt_diagonal: bool
) -> list[TowerViolation]:
    out = []
    for level in range(1, len(t.levels)):
        fine_space, fine_rel = t.levels[level]
        _, coarse_rel = t.levels[level - 1]
        if fine_space.parent is None:
            out.append(
                TowerViolation(level, ("", ""), "finer space has no parent map")
            )
            continue
        for u, v in fine_rel.pairs():
            pu, pv = fine_space.parent_of(u), fine_space.parent_of(v)
            if exempt_diagonal and pu == pv:
                continue
            if not coarse_rel.has(pu, pv):
                out.append(
                    TowerViolation(
                        level,
                        (u, v),
                        f"projects to ({pu}, {pv}) missing at level {level - 1}",
                    )
                )
    return out


def check_tower(t: RelationTower) -> TowerCheck:
    """Strict projection-consistency report."""
    return TowerCheck(violations=_projection_violations(t, exempt_diagonal=False))


def refine_project(t: RelationTower, level: int) -> CellRelation:
    """Push the relation at `level` onto the space one level coarser."""
    if level < 1 or level >= len(t.levels):
        raise ValueError("level must index a non-coarsest tower level")
    fine_space, fine_rel = t.levels[level]
    coarse_space, _ = t.levels[level - 1]
    projected = [
        (fine_space.parent_of(u), fine_space.parent_of(v)) for u, v in fine_rel.pairs()
    ]
    return CellRelation.from_pairs(coarse_space, projected)


@dataclass
class TowerLevelRun:
    level: int
    trace: engine.IterationTrace
    reach_top: bool | None
    stabilization_stage: Ordinal | None
    budget_exhausted: bool


@dataclass
class GammaTowerRun:
    levels: list[TowerLevelRun]
    verdict: str  # gamma-limit-not-top | all-levels-reach-top | indeterminate


def gamma_tower_iterate(t: RelationTower, budget: int) -> GammaTowerRun:
    """Per-level gamma iteration with a sound cross-resolution summary.

    Projection consistency is required up to diagonal pairs (every gamma
    stage past the first is reflexive, so a diagonal image is always in the
    closure).  A level that stabilizes strictly below all-pairs soundly
    certifies that the limit over finer and finer resolutions is not the
    full square; the converse is never claimed.
    """
    bad = _projection_violations(t, exempt_diagonal=True)
    if bad:
        first = bad[0]
        raise TowerInconsistentError(
            f"level {first.level} pair {first.pair}: {first.reason}"
        )
    op = gamma_operator()
    runs: list[TowerLevelRun] = []
    some_below_top = False
    all_top = True
    for level, (sp, rel) in enumerate(t.levels):
        domain = RelationDomain(sp)
        trace = engine.iterate_steps(domain, op, rel, budget)
        if trace.is_exact:
            reach_top = domain.equal(trace.stable_part, domain.top)
            runs.append(
                TowerLevelRun(
                    level=level,
                    trace=trace,
                    reach_top=reach_top,
                    stabilization_stage=trace.rank,
                    budget_exhausted=False,
                )
            )
            if not reach_top:
                some_below_top = True
                all_top = False
        else:
            runs.append(
                TowerLevelRun(
                    level=level,
                    trace=trace,
                    reach_top=None,
                    stabilization_stage=None,
                    budget_exhausted=True,
                )
            )
            all_top = False
    if some_below_top:
        verdict = "gamma-limit-not-top"
    elif all_top:
        verdict = "all-levels-reach-top"
    else:
        verdict = "indeterminate"
    return GammaTowerRun(levels=runs, verdict=verdict)
