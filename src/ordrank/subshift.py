"""Subshifts of finite type at desk scale: words, entropy, independence.

One-sided shift spaces over a finite alphabet, given by forbidden words and
presented by the trimmed Aho-Corasick automaton of those words (Aho &
Corasick, CACM 1975): a deterministic automaton with at most 1 + sum(len(w))
states in which a word occurs in some point of the space iff it labels a
path from the root.  So word counts are path counts, and count words that
actually occur in points of the space.  Entropy comes in two independent
flavours (word-count estimates and the spectral radius of the automaton's
transition matrix, by a sparse power iteration).  Realizability and
independence of word pairs are decided exactly by one left-to-right
frontier sweep over the automaton's states, which for independence keeps
only the subset-minimal frontiers of its u/v branches.  When prescriptions
do not overlap (every slot search and certificate), per-spec tables step a
frontier over a whole word or gap at once, so a candidate slot costs a few
lookups per antichain member, and the slot search skips subtrees it has
already seen fail.  Density-certified independence feeds the
equivalence-closure towers that power the entropy-rank reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Container, Iterable, Sequence

import numpy as np

from . import relations
from .ordinals import Ordinal
from .relations import CellRelation, RelationTower

VERDICT_CONSISTENT = "CPE-consistent at evidence"
VERDICT_NOT_CPE = "certified not CPE at evidence"
VERDICT_INDETERMINATE = "indeterminate"


class SubshiftInputError(ValueError):
    """Malformed subshift description; carries a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class EmptySubshiftError(ValueError):
    """The forbidden words leave no infinite sequences at all."""


class SpectralToleranceError(RuntimeError):
    """Power iteration missed the tolerance; carries the partial value."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SubshiftSpec:
    """One-sided shift space over `alphabet` avoiding the `forbidden` words."""

    alphabet: tuple[str, ...]
    forbidden: tuple[str, ...]


def spec_from_dict(data: dict, path: str = "") -> SubshiftSpec:
    if not isinstance(data, dict):
        raise SubshiftInputError(path or "/", "expected an object")
    allowed = {"type", "alphabet", "forbidden"}
    for key in data:
        if key not in allowed:
            raise SubshiftInputError(f"{path}/{key}", "unknown field")
    if data.get("type") != "sft":
        raise SubshiftInputError(f"{path}/type", "expected \"sft\"")
    alphabet = data.get("alphabet")
    if not isinstance(alphabet, list) or not alphabet:
        raise SubshiftInputError(f"{path}/alphabet", "expected a non-empty list")
    for i, sym in enumerate(alphabet):
        if not isinstance(sym, str) or len(sym) != 1:
            raise SubshiftInputError(
                f"{path}/alphabet/{i}", "symbols must be single characters"
            )
    if len(set(alphabet)) != len(alphabet):
        raise SubshiftInputError(f"{path}/alphabet", "symbols must be distinct")
    forbidden = data.get("forbidden")
    if not isinstance(forbidden, list):
        raise SubshiftInputError(f"{path}/forbidden", "expected a list")
    for i, word in enumerate(forbidden):
        if not isinstance(word, str) or not word:
            raise SubshiftInputError(
                f"{path}/forbidden/{i}", "forbidden words must be non-empty strings"
            )
        for ch in word:
            if ch not in alphabet:
                raise SubshiftInputError(
                    f"{path}/forbidden/{i}", f"symbol {ch!r} not in the alphabet"
                )
    spec = SubshiftSpec(alphabet=tuple(alphabet), forbidden=tuple(forbidden))
    build_graph(spec)  # rejects empty subshifts at parse time
    return spec


def parse_subshift(text: str) -> SubshiftSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SubshiftInputError("/", f"invalid JSON: {exc}") from exc
    return spec_from_dict(data)


# Distinct specs whose presentation (and stepper) stay cached; older ones are
# rebuilt on demand.
GRAPH_CACHE_SIZE = 64


@dataclass(frozen=True)
class TransitionGraph:
    """Trimmed Aho-Corasick automaton of the forbidden words.

    A state is a prefix of some forbidden word: the longest such prefix
    that ends the input read so far.  Reading a symbol moves to exactly one
    state, so the automaton is deterministic and a word occurs in the space
    iff it labels a path from the root (the empty prefix, index 0).  Only
    states that are reachable from the root, contain no forbidden word as
    a suffix and have an infinite future are kept, so every state has
    out-degree >= 1 and there are at most 1 + sum(len(w)) of them.
    """

    states: tuple[str, ...]
    # edges[i] lists the (symbol, target index) pairs leaving states[i], in
    # alphabet order; two symbols may lead to the same target
    edges: tuple[tuple[tuple[str, int], ...], ...]


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def build_graph(spec: SubshiftSpec) -> TransitionGraph:
    # the trie of the forbidden words: its nodes are their prefixes
    trie = {w[:k] for w in spec.forbidden for k in range(len(w) + 1)} | {""}
    # fail links complete the goto function, shortest prefixes first, since
    # a fail link is shorter than its node; a node is dead when some
    # forbidden word is a suffix of its string
    goto: dict[tuple[str, str], str] = {}
    fail = {"": ""}
    dead = set(spec.forbidden)
    for node in sorted(trie, key=len):
        if fail[node] in dead:
            dead.add(node)
        for a in spec.alphabet:
            down = goto[fail[node], a] if node else ""
            if node + a in trie:
                fail[node + a] = down
                down = node + a
            goto[node, a] = down
    # drop dead states, then states with no infinite future
    alive = trie - dead
    while True:
        stuck = {
            s for s in alive if all(goto[s, a] not in alive for a in spec.alphabet)
        }
        if not stuck:
            break
        alive -= stuck
    if "" not in alive:
        raise EmptySubshiftError("empty subshift")
    # number the states reachable from the root breadth first, root first
    states = [""]
    index = {"": 0}
    for node in states:
        for a in spec.alphabet:
            t = goto[node, a]
            if t in alive and t not in index:
                index[t] = len(states)
                states.append(t)
    return TransitionGraph(
        states=tuple(states),
        edges=tuple(
            tuple((a, index[goto[s, a]]) for a in spec.alphabet if goto[s, a] in alive)
            for s in states
        ),
    )


def count_words(spec: SubshiftSpec, n: int) -> int:
    """Exact number of length-n words occurring in points of the space."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    graph = build_graph(spec)
    # paths from the root; the automaton is deterministic, so distinct paths
    # spell distinct words
    paths = [0] * len(graph.states)
    paths[0] = 1
    for _ in range(n):
        reached = [0] * len(graph.states)
        for count, row in zip(paths, graph.edges):
            if count:
                for _, t in row:
                    reached[t] += count
        paths = reached
    return sum(paths)


def enumerate_words(spec: SubshiftSpec, n: int) -> list[str]:
    """All length-n words of the space, sorted; for desk-scale n only."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    graph = build_graph(spec)
    frontier = [("", 0)]
    for _ in range(n):
        frontier = [
            (word + symbol, t) for word, state in frontier
            for symbol, t in graph.edges[state]
        ]
    return sorted(word for word, _ in frontier)


def entropy_estimate(spec: SubshiftSpec, n: int) -> float:
    """log(word count) / n; converges to the entropy from above."""
    return math.log(count_words(spec, n)) / n


def _scc_partition(n: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Kosaraju strongly connected components, iterative."""
    visited = [False] * n
    order: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        stack = [(start, iter(succ[start]))]
        visited[start] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    pred: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    component = [-1] * n
    comps: list[list[int]] = []
    for start in reversed(order):
        if component[start] != -1:
            continue
        comp = [start]
        component[start] = len(comps)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in pred[node]:
                if component[nxt] == -1:
                    component[nxt] = len(comps)
                    comp.append(nxt)
                    stack.append(nxt)
        comps.append(comp)
    return comps


def _shifted_product(src: np.ndarray, dst: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A + I) x for the matrix A with one count per (src[k], dst[k]) edge."""
    return x + np.bincount(src, weights=x[dst], minlength=len(x))


def entropy_spectral(
    spec: SubshiftSpec, tol: float = 1e-10, max_iter: int = 50000
) -> float:
    """log of the largest transition eigenvalue, by power iteration per
    strongly connected component (shifted by the identity to kill
    periodicity), maximum over components.

    The automaton is right-resolving, so its spectral radius gives the
    entropy of the shift (Lind & Marcus, Symbolic Dynamics and Coding,
    ch. 4).  The matrix is kept as edge index arrays, so memory is linear
    in the number of edges.
    """
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    if math.isinf(tol):
        raise ValueError("tol must be finite")
    graph = build_graph(spec)
    succ = [[t for _, t in row] for row in graph.edges]
    best = 0.0
    for comp in _scc_partition(len(graph.states), succ):
        local = {node: k for k, node in enumerate(comp)}
        # one pair per edge, so parallel edges add up in the matrix entry
        inner = [(local[s], local[t]) for s in comp for t in succ[s] if t in local]
        if not inner:
            continue
        src, dst = (np.array(side, dtype=np.intp) for side in zip(*inner))
        x = np.ones(len(comp)) / math.sqrt(len(comp))
        y = _shifted_product(src, dst, x)
        lam = 1.0
        converged = False
        for _ in range(max_iter):
            x = y / float(np.linalg.norm(y))
            y = _shifted_product(src, dst, x)
            lam = float(x @ y)
            residual = float(np.linalg.norm(y - lam * x))
            if residual <= tol * max(1.0, lam):
                converged = True
                break
        if not converged:
            raise SpectralToleranceError(
                f"power iteration missed tol={tol} after {max_iter} iterations",
                partial=math.log(max(best, lam - 1.0, 1.0)),
            )
        best = max(best, lam - 1.0)
    # a trimmed automaton always contains a cycle, so best >= 1
    return math.log(max(best, 1.0))


# -- realizability and independence ---------------------------------------
#
# Both questions are answered by one left-to-right sweep over shift
# positions.  A frontier is the set of automaton states a point can be in
# given the prescriptions seen so far, kept as a bitmask over graph.states.
# Independence branches over u/v at every anchor and keeps, for each set of
# still-pending prescribed symbols, only the subset-minimal frontiers (an
# antichain): a past choice reaches the future only through its frontier,
# and a superset frontier survives whatever its subset survives.  So J is
# independent iff no branch's frontier ever empties (De Wulf, Doyen,
# Henzinger & Raskin, "Antichains: a new algorithm for checking
# universality of finite automata", CAV 2006).


class _Stepper:
    """Advances a frontier by one shift position, a whole word or a gap.

    images[a][s] is the bitmask of the state that symbol a leads to from
    state s (0 when a may not follow there), and images[None][s] the mask of
    every successor of s, for a position with no prescribed symbol.  `read`
    and `gap` memoize, per frontier, what non-overlapping prescriptions ask.
    """

    def __init__(self, graph: TransitionGraph, alphabet: Sequence[str]):
        self.images: dict[str | None, list[int]] = {
            a: [0] * len(graph.states) for a in (None, *alphabet)
        }
        for s, row in enumerate(graph.edges):
            for a, t in row:
                self.images[a][s] |= 1 << t
                self.images[None][s] |= 1 << t
        self._reads: dict[tuple[int, str], int] = {}
        # frontier -> (its gap trajectory [frontier, image, image of that,
        # ...], the index of each frontier on it); a trajectory stops growing
        # when it revisits a frontier, and _cycles[frontier] is that index
        self._paths: dict[int, tuple[list[int], dict[int, int]]] = {}
        self._cycles: dict[int, int] = {}

    def __call__(self, frontier: int, symbol: str | None) -> int:
        table = self.images[symbol]
        image = 0
        rest = frontier
        while rest:
            low = rest & -rest
            image |= table[low.bit_length() - 1]
            rest ^= low
        return image

    def read(self, frontier: int, word: str) -> int:
        """The frontier after `word` is prescribed, or 0 if it dies."""
        key = (frontier, word)
        image = self._reads.get(key)
        if image is None:
            image = frontier
            for symbol in word:
                image = self(image, symbol)
                if not image:
                    break
            self._reads[key] = image
        return image

    def gap(self, frontier: int, k: int) -> int:
        """The frontier after k positions with no prescribed symbol.

        Never 0 for a nonzero frontier, since every state of the trimmed
        automaton has a successor.  The trajectory grows one step at a time
        and at most until it cycles, so any k costs one lookup after that.
        """
        entry = self._paths.get(frontier)
        if entry is None:
            entry = self._paths[frontier] = ([frontier], {frontier: 0})
        path, index = entry
        while k >= len(path) and frontier not in self._cycles:
            image = self(path[-1], None)
            if image in index:
                self._cycles[frontier] = index[image]
            else:
                index[image] = len(path)
                path.append(image)
        if k < len(path):
            return path[k]
        start = self._cycles[frontier]
        return path[start + (k - start) % (len(path) - start)]


# The frontier before position 0: the root alone (build_graph numbers it 0).
_ROOT = 1


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _stepper(spec: SubshiftSpec) -> _Stepper:
    return _Stepper(build_graph(spec), spec.alphabet)


def _minimal(frontiers: Iterable[int]) -> tuple[int, ...]:
    """The subset-minimal members of `frontiers`, sorted."""
    kept: list[int] = []
    # a proper subset has fewer states, so it comes first
    for f in sorted(set(frontiers), key=int.bit_count):
        for g in kept:
            if g & f == g:
                break
        else:
            kept.append(f)
    return tuple(sorted(kept))


def _place(
    step: _Stepper, antichain: tuple[int, ...], gap: int, u: str, v: str
) -> tuple[int, ...] | None:
    """The antichain after `gap` unprescribed positions and then u or v, or
    None if some branch dies.

    Used when prescriptions do not overlap: then no branch has symbols
    pending between them, so each frontier takes one gap and two word
    lookups.
    """
    images = []
    for f in antichain:
        free = step.gap(f, gap)
        image_u = step.read(free, u)
        image_v = step.read(free, v)
        if not (image_u and image_v):
            return None
        images += (image_u, image_v)
    return _minimal(images)


def _sweep(
    step: _Stepper, stop: int, anchors: Container[int], words: Sequence[str]
) -> bool:
    """Sweep the indices [0, stop) from the root, position by position.

    At each index in `anchors`, every branch takes each of `words` in turn.
    The state maps the prescribed symbols still pending (a word starting at
    the current index) to the antichain of frontiers of the branches that
    left them.  False as soon as some branch is unrealizable: two
    prescriptions disagree on a symbol, or a frontier empties.
    """
    state: dict[str, tuple[int, ...]] = {"": (_ROOT,)}
    for i in range(stop):
        if i in anchors:
            branched: dict[str, list[int]] = {}
            for pending, antichain in state.items():
                for word in words:
                    shared = min(len(pending), len(word))
                    if pending[:shared] != word[:shared]:
                        return False
                    longer = max(pending, word, key=len)
                    branched.setdefault(longer, []).extend(antichain)
            state = {p: _minimal(fs) for p, fs in branched.items()}
        advanced: dict[str, list[int]] = {}
        for pending, antichain in state.items():
            symbol = pending[0] if pending else None
            bucket = advanced.setdefault(pending[1:], [])
            for f in antichain:
                image = step(f, symbol)
                if not image:
                    return False
                bucket.append(image)
        state = {p: _minimal(fs) for p, fs in advanced.items()}
    return True


def _check_words(spec: SubshiftSpec, *words: str) -> None:
    for word in words:
        if not word or any(ch not in spec.alphabet for ch in word):
            raise ValueError(f"word {word!r} is not over the alphabet")


def realizable(
    spec: SubshiftSpec, constraints: Iterable[tuple[int, str]]
) -> bool:
    """Is some point of the space consistent with every (position, word)
    constraint?  Overlaps are resolved by direct symbol compatibility."""
    step = _stepper(spec)
    assigned: dict[int, str] = {}
    for position, word in constraints:
        if position < 0:
            raise ValueError("positions must be >= 0")
        _check_words(spec, word)
        for offset, symbol in enumerate(word):
            at = position + offset
            if assigned.get(at, symbol) != symbol:
                return False
            assigned[at] = symbol
    frontier = _ROOT
    for i in range(max(assigned, default=-1) + 1):
        frontier = step(frontier, assigned.get(i))
        if not frontier:
            return False
    return True


def is_independent(
    spec: SubshiftSpec, u: str, v: str, positions: Iterable[int]
) -> bool:
    """Can `u` and `v` be prescribed in every combination at `positions`?"""
    if len(u) != len(v):
        raise ValueError("the two words must have equal length")
    jset = sorted(set(positions))
    if not jset:
        return True
    if u == v:
        return realizable(spec, [(j, u) for j in jset])
    if jset[0] < 0:
        raise ValueError("positions must be >= 0")
    _check_words(spec, u, v)
    step = _stepper(spec)
    if any(k - j < len(u) for j, k in zip(jset, jset[1:])):
        return _sweep(step, jset[-1] + len(u), set(jset), (u, v))
    antichain: tuple[int, ...] | None = (_ROOT,)
    at = 0
    for j in jset:
        antichain = _place(step, antichain, j - at, u, v)
        if antichain is None:
            return False
        at = j + len(u)
    return True


@dataclass(frozen=True)
class IndependenceCertificate:
    """Anchor slots inside [0, horizon) where `u`/`v` may be freely prescribed.

    Words are anchored at multiples of their length (`stride`), so two
    prescriptions never overlap; slot j means shift position j * stride.
    Construction re-verifies every assignment, so holding a certificate
    object is proof at its stated horizon and density (the density is the
    fraction of the horizon's slots that are independent).
    """

    spec: SubshiftSpec
    u: str
    v: str
    horizon: int
    positions: tuple[int, ...]
    stride: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not all(0 <= j < self.horizon for j in self.positions):
            raise ValueError("positions must lie inside [0, horizon)")
        raw = [j * self.stride for j in self.positions]
        if not is_independent(self.spec, self.u, self.v, raw):
            raise ValueError("certificate does not verify")

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.positions), self.horizon)

    @property
    def shift_positions(self) -> tuple[int, ...]:
        return tuple(j * self.stride for j in self.positions)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"density {value!r} has a zero denominator") from exc
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot read {value!r} as a density")


class _NodeBudget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self, nodes: int = 1):
        self.used += nodes
        if self.limit is not None and self.used > self.limit:
            raise _BudgetExceeded


class _BudgetExceeded(Exception):
    pass


def _search_independence(
    spec: SubshiftSpec,
    u: str,
    v: str,
    horizon: int,
    target: int,
    budget: _NodeBudget,
) -> tuple[int, ...] | None:
    """Lexicographic branch and bound for an independence set of `target`
    anchor slots inside [0, horizon); complete, so None means none exists.

    Slots stride by the word length, so candidate prescriptions never
    overlap each other, and a branch is fully described by the antichain at
    the end of its last chosen slot: testing slot j is one `_place` from
    there.  A subtree that fails is recorded by (antichain, first free slot,
    slots still needed) with the nodes it spent; meeting it again spends
    those nodes at once instead of searching it, so node counts and budget
    outcomes are those of the plain search.
    """
    if len(u) != len(v):
        raise ValueError("the two words must have equal length")
    _check_words(spec, u, v)
    stride = len(u)
    step = _stepper(spec)
    chosen: list[int] = []
    # one frame per depth: [next candidate slot, first slot after the last
    # chosen one, the antichain there, nodes used before the frame]
    frames: list[list] = [[0, 0, (_ROOT,), 0]]
    failed: dict[tuple[tuple[int, ...], int, int], int] = {}
    while len(chosen) < target:
        frame = frames[-1]
        j, first, antichain, used = frame
        need = target - len(chosen)
        if horizon - j < need:  # also ends the slot range
            frames.pop()
            if not chosen:
                return None
            chosen.pop()
            failed[antichain, first, need] = budget.used - used
            continue
        budget.spend()
        frame[0] = j + 1
        after = _place(step, antichain, (j - first) * stride, u, v)
        if after is None:
            continue
        known = failed.get((after, j + 1, need - 1))
        if known is not None:
            budget.spend(known)
            continue
        chosen.append(j)
        frames.append([j + 1, j + 1, after, budget.used])
    return tuple(chosen)


def independence_status(
    spec: SubshiftSpec,
    u: str,
    v: str,
    horizon: int,
    density,
    node_budget: int | None = None,
) -> tuple[str, IndependenceCertificate | None]:
    """One of ("certified", cert), ("refuted", None), ("unknown", None).

    Deterministic search for a density certificate.  Candidate positions
    are the `horizon` anchor slots striding by the word length (for single
    symbols, just the positions 0..horizon-1).  Refutation is sound: the
    search is exhaustive, so failure means no set of the required size
    exists within the horizon.  "unknown" only occurs when a node budget
    interrupts the search.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    r = as_fraction(density)
    if not 0 < r <= 1:
        raise ValueError("density must lie in (0, 1]")
    target = max(1, math.ceil(r * horizon))
    budget = _NodeBudget(node_budget)
    try:
        found = _search_independence(spec, u, v, horizon, target, budget)
    except _BudgetExceeded:
        return ("unknown", None)
    if found is None:
        return ("refuted", None)
    cert = IndependenceCertificate(
        spec=spec, u=u, v=v, horizon=horizon, positions=found, stride=len(u)
    )
    return ("certified", cert)


# -- independence-evidence relations and the entropy-rank report -----------


@dataclass
class LevelEvidence:
    """All length-n word pairs with their independence status at (H, r)."""

    n: int
    words: tuple[str, ...]
    lower: CellRelation
    upper: CellRelation
    statuses: dict[tuple[str, str], str]
    certificates: dict[tuple[str, str], IndependenceCertificate]


def ie_evidence(
    spec: SubshiftSpec,
    n: int,
    horizon: int,
    density,
    node_budget: int | None = None,
) -> LevelEvidence:
    words = tuple(enumerate_words(spec, n))
    sp = relations.space(words)
    lower_pairs = []
    upper_pairs = []
    statuses: dict[tuple[str, str], str] = {}
    certificates: dict[tuple[str, str], IndependenceCertificate] = {}
    for i, u in enumerate(words):
        for v in words[i:]:
            status, cert = independence_status(
                spec, u, v, horizon, density, node_budget
            )
            statuses[(u, v)] = statuses[(v, u)] = status
            if cert is not None:
                certificates[(u, v)] = certificates[(v, u)] = cert
            if status == "certified":
                lower_pairs.extend([(u, v), (v, u)])
                upper_pairs.extend([(u, v), (v, u)])
            elif status == "unknown":
                upper_pairs.extend([(u, v), (v, u)])
    lower = CellRelation.from_pairs(sp, lower_pairs)
    upper = CellRelation.from_pairs(sp, upper_pairs)
    return LevelEvidence(
        n=n,
        words=words,
        lower=lower,
        upper=upper,
        statuses=statuses,
        certificates=certificates,
    )


def ie_relation(
    spec: SubshiftSpec,
    n: int,
    horizon: int,
    density,
    node_budget: int | None = None,
) -> tuple[CellRelation, CellRelation]:
    """(lower, upper) independence-evidence relations on length-n words.

    `lower` holds the pairs with a verified density certificate, `upper`
    the pairs not refuted by the exhaustive horizon search; lower is always
    contained in upper.  Diagonal pairs are included when certified.
    """
    evidence = ie_evidence(spec, n, horizon, density, node_budget)
    domain = relations.RelationDomain(evidence.lower.space)
    assert domain.leq(evidence.lower, evidence.upper)
    return evidence.lower, evidence.upper


@dataclass
class EntropyRankLevel:
    n: int
    cells: int
    lower_reach_top: bool | None
    upper_reach_top: bool | None
    stabilization_stage: Ordinal | None
    diagonal_certified: tuple[str, ...]
    budget_exhausted: bool


@dataclass
class EntropyRankReport:
    spec: SubshiftSpec
    n_max: int
    horizon: int
    density: Fraction
    budget: int
    levels: list[EntropyRankLevel]
    verdict: str


def _propagate_down(
    evidences: list[LevelEvidence], pick
) -> list[CellRelation]:
    """Per-level evidence closed downward under prefix projection.

    A certificate for longer words prescribes their prefixes at the same
    shift positions, so it is genuine evidence for the prefix pair even
    when the coarser level's own stride missed it; projecting evidence
    down therefore only adds sound pairs, and makes the resulting tower
    projection-consistent by construction.
    """
    adjusted = [pick(ev) for ev in evidences]
    for i in range(len(evidences) - 2, -1, -1):
        n = evidences[i].n
        sp = adjusted[i].space
        projected = CellRelation.from_pairs(
            sp, [(u[:n], v[:n]) for u, v in adjusted[i + 1].pairs()]
        )
        adjusted[i] = relations.RelationDomain(sp).finite_join(
            [adjusted[i], projected]
        )
    return adjusted


def _evidence_tower(
    evidences: list[LevelEvidence], leveled: list[CellRelation]
) -> RelationTower:
    """Tower of diagonal-stripped evidence relations, coarsest first.

    The diagonal carries no closure information (every gamma stage is
    reflexive), so stripping it makes the per-level stabilization stage
    count the closure work; verdicts are unchanged because the limits
    coincide.
    """
    levels = []
    previous: LevelEvidence | None = None
    for ev, rel in zip(evidences, leveled):
        if previous is None:
            sp = relations.space(ev.words)
        else:
            sp = relations.space(ev.words, {w: w[: previous.n] for w in ev.words})
        stripped = relations.strip_diagonal(rel)
        levels.append((sp, CellRelation(space=sp, rows=stripped.rows)))
        previous = ev
    return RelationTower(levels=tuple(levels))


def entropy_rank_report(
    spec: SubshiftSpec,
    n_max: int,
    horizon: int,
    density,
    budget: int,
    node_budget: int | None = None,
) -> EntropyRankReport:
    """Gamma-tower verdicts over independence evidence at resolutions 1..n_max.

    "certified not CPE at evidence" is sound (the upper relation stabilized
    strictly below all-pairs at some level); "CPE-consistent at evidence"
    records that nothing in the evidence obstructs full closure; anything
    else is indeterminate.  All evidence parameters ride along in the
    report so no verdict is quotable without its scope.
    """
    if n_max < 1 or horizon < 1 or budget < 1:
        raise ValueError("parameters must be positive")
    r = as_fraction(density)
    evidences = [
        ie_evidence(spec, n, horizon, r, node_budget) for n in range(1, n_max + 1)
    ]
    lower_levels = _propagate_down(evidences, lambda ev: ev.lower)
    upper_levels = _propagate_down(evidences, lambda ev: ev.upper)
    lower_run = relations.gamma_tower_iterate(
        _evidence_tower(evidences, lower_levels), budget
    )
    upper_run = relations.gamma_tower_iterate(
        _evidence_tower(evidences, upper_levels), budget
    )
    levels = []
    certified_not = False
    all_top = True
    for ev, low, up in zip(evidences, lower_run.levels, upper_run.levels):
        diagonal = tuple(w for w in ev.words if ev.statuses[(w, w)] == "certified")
        levels.append(
            EntropyRankLevel(
                n=ev.n,
                cells=len(ev.words),
                lower_reach_top=low.reach_top,
                upper_reach_top=up.reach_top,
                stabilization_stage=up.stabilization_stage,
                diagonal_certified=diagonal,
                budget_exhausted=low.budget_exhausted or up.budget_exhausted,
            )
        )
        if up.reach_top is False:
            certified_not = True
        if low.reach_top is not True or up.reach_top is not True:
            all_top = False
    if certified_not:
        verdict = VERDICT_NOT_CPE
    elif all_top:
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_INDETERMINATE
    return EntropyRankReport(
        spec=spec,
        n_max=n_max,
        horizon=horizon,
        density=r,
        budget=budget,
        levels=levels,
        verdict=verdict,
    )
