"""Transfinite iteration of monotone operators over closed-set lattices.

A `SetDomain` supplies the lattice structure (equality, inclusion, bottom,
top, finite joins) for one family of exactly represented closed sets.  A
`MonotoneOperator` is either contracting (`derivative`) or inflating
(`expansion`) and may carry a `ClosedForm` for its transfinite stages.  The
engine iterates in two modes: step mode, which applies the operator until a
fixpoint or a step budget is hit, and closed-form mode, which asks the
operator's closed form for the stabilization ordinal and spot-checks it.
Both return an `IterationTrace`.  Budget exhaustion always yields a sound
lower bound, never a guess.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    cmp,
    format_ordinal,
    from_int,
    predecessor,
    succ,
)

DERIVATIVE = "derivative"
EXPANSION = "expansion"


class EngineStageError(RuntimeError):
    """A domain or operator call failed; carries the stage index."""

    def __init__(self, stage, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


class ContractViolationError(RuntimeError):
    """An operator or chain broke its monotonicity contract."""


class IndeterminateTraceError(RuntimeError):
    """A budget-limited trace cannot answer the question; raise the budget."""


class UnsupportedDomainError(RuntimeError):
    """The domain or operator lacks a required optional capability."""


@dataclass(frozen=True)
class ClosedForm:
    """Symbolic transfinite stages of one operator.

    `rank(start)` is the stabilization ordinal of the iteration from
    `start`, `stage(start, alpha)` its value at stage alpha, and
    `limit(chain)` the value at the next limit stage of a canonical chain
    whose last two elements differ; `limit` raises UnsupportedDomainError
    for a chain it cannot continue.
    """

    rank: Callable[[Any], Ordinal]
    stage: Callable[[Any, Ordinal], Any]
    limit: Callable[[Sequence], Any]


@dataclass(frozen=True)
class MonotoneOperator:
    """An operator on a SetDomain, tagged contracting or inflating."""

    name: str
    kind: str  # DERIVATIVE or EXPANSION
    apply: Callable[[Any], Any]
    closed_form: ClosedForm | None = None

    def __post_init__(self):
        if self.kind not in (DERIVATIVE, EXPANSION):
            raise ValueError(f"unknown operator kind {self.kind!r}")


class SetDomain:
    """Lattice contract implemented by each instance family.

    `equal`, `leq`, `bottom`, `top`, `finite_join` and `size_metric` are
    required; `finite_meet` is optional.  Symbolic transfinite structure
    belongs to the operator's `ClosedForm`, not to the domain.
    """

    name = "abstract"

    def equal(self, a, b) -> bool:
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    @property
    def bottom(self):
        raise NotImplementedError

    @property
    def top(self):
        raise NotImplementedError

    def finite_join(self, items: Sequence) -> Any:
        raise NotImplementedError

    def finite_meet(self, items: Sequence) -> Any:
        raise UnsupportedDomainError(f"{self.name} has no finite_meet")

    def size_metric(self, a) -> int | str:
        """Cardinality-like metric for trace export."""
        raise NotImplementedError


@dataclass
class IterationTrace:
    """Stagewise record of one iteration run.

    `rank` is exact when `rank_is_lower_bound` is false, in which case the
    recorded values at `rank` and `rank + 1` coincide and `stable_part`
    holds that value.  On budget exhaustion `rank` equals the budget and is
    only a lower bound for the true stabilization ordinal.  A closed-form
    trace records only the stages it checked, and `verified` says whether
    they agreed with the closed form; step traces are always verified.
    """

    domain: SetDomain
    operator: MonotoneOperator
    stages: tuple[tuple[Ordinal, Any], ...]
    rank: Ordinal | None
    rank_is_lower_bound: bool
    stable_part: Any
    verified: bool = True

    @property
    def is_exact(self) -> bool:
        return self.rank is not None and not self.rank_is_lower_bound

    def value_at(self, index: int | Ordinal):
        if isinstance(index, int):
            index = from_int(index)
        for stage_index, value in self.stages:
            if stage_index == index:
                return value
        raise KeyError(f"stage {index} not recorded")


def _apply(op: MonotoneOperator, value, stage: int):
    try:
        return op.apply(value)
    except Exception as exc:  # propagate with the stage attached
        raise EngineStageError(stage, str(exc)) from exc


def iterate_steps(
    domain: SetDomain, op: MonotoneOperator, start, max_steps: int
) -> IterationTrace:
    """Apply `op` stepwise from `start` until fixpoint or budget.

    Stops at the first n with stage(n) == stage(n+1); the trace then has
    exact rank n.  Hitting `max_steps` first yields rank = max_steps as a
    sound lower bound with no stable part.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    stages = [(ZERO, start)]
    current = start
    rank = None
    stable = None
    for step in range(1, max_steps + 1):
        nxt = _apply(op, current, step)
        if op.kind == DERIVATIVE and not domain.leq(nxt, current):
            raise ContractViolationError(
                f"{op.name} is not contracting at step {step}"
            )
        if op.kind == EXPANSION and not domain.leq(current, nxt):
            raise ContractViolationError(
                f"{op.name} is not inflating at step {step}"
            )
        stages.append((from_int(step), nxt))
        if domain.equal(nxt, current):
            rank = from_int(step - 1)
            stable = current
            break
        current = nxt
    return IterationTrace(
        domain=domain,
        operator=op,
        stages=tuple(stages),
        rank=from_int(max_steps) if rank is None else rank,
        rank_is_lower_bound=rank is None,
        stable_part=stable,
    )


def limit_stage(domain: SetDomain, op: MonotoneOperator, chain: Sequence):
    """Limit-stage value of a monotone chain.

    Eventually-constant chains return their eventual value.  Otherwise the
    operator's closed-form `limit` is consulted; without one, or when it
    cannot continue the chain, the join (expansions) or meet (derivatives)
    of the given elements is returned.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain must be non-empty")
    for prev, nxt in zip(chain, chain[1:]):
        ok = domain.leq(nxt, prev) if op.kind == DERIVATIVE else domain.leq(prev, nxt)
        if not ok:
            raise ContractViolationError(
                f"chain is not monotone for a {op.kind} operator"
            )
    if len(chain) >= 2 and domain.equal(chain[-1], chain[-2]):
        return chain[-1]
    if op.closed_form is not None:
        try:
            return op.closed_form.limit(chain)
        except UnsupportedDomainError:
            pass
    if op.kind == EXPANSION:
        return domain.finite_join(chain)
    return domain.finite_meet(chain)


def _sample_below(rank: Ordinal, count: int, rng: random.Random) -> list[Ordinal]:
    """Deterministic grab-bag of stage ordinals strictly below `rank`."""
    candidates: list[Ordinal] = []
    for n in (2, 3, 5, 8, 13):
        candidates.append(from_int(n))
    # truncations of the rank itself: drop trailing terms, shave coefficients
    for i in range(len(rank.terms)):
        exponent, coefficient = rank.terms[i]
        head = rank.terms[:i]
        if coefficient > 1:
            candidates.append(Ordinal(head + ((exponent, coefficient - 1),)))
        if head:
            candidates.append(Ordinal(head))
    pool = []
    seen = set()
    for c in candidates:
        if cmp(c, rank) < 0 and cmp(c, ZERO) > 0 and c != ONE and c not in seen:
            seen.add(c)
            pool.append(c)
    pool.sort(key=lambda o: (len(o.terms), str(o)))
    if len(pool) <= count:
        return pool
    return rng.sample(pool, count)


def rank_closed_form(
    domain: SetDomain,
    op: MonotoneOperator,
    start,
    sample_count: int = 5,
    seed: int = 0,
) -> IterationTrace:
    """Closed-form rank with sampled-stage verification.

    The closed form is trusted only after checking that the stage at the
    rank is a fixpoint, that stages at 0, 1, rank-1 (if a successor) and
    `sample_count` random earlier ordinals all differ from the stable value,
    and that each sampled stage advances by one operator application.  The
    trace records the stages at 0 and 1 (those below the rank), rank-1, the
    rank and rank+1.
    """
    if op.closed_form is None:
        raise UnsupportedDomainError(
            f"{domain.name} has no closed form for {op.name}"
        )
    rng = random.Random(seed)
    rank = op.closed_form.rank(start)

    def stage(alpha: Ordinal):
        return op.closed_form.stage(start, alpha)

    earlier: list[Ordinal] = [c for c in (ZERO, ONE) if cmp(c, rank) < 0]
    if rank.is_successor and predecessor(rank) not in earlier:
        earlier.append(predecessor(rank))
    recorded = [(alpha, stage(alpha)) for alpha in earlier + [rank, succ(rank)]]
    at_rank = recorded[-2][1]
    verified = domain.equal(at_rank, recorded[-1][1])
    for candidate in _sample_below(rank, sample_count, rng):
        if candidate not in earlier:
            earlier.append(candidate)

    for alpha in earlier:
        if domain.equal(stage(alpha), at_rank):
            verified = False
    # successor consistency: one application really advances one stage
    for alpha in earlier + [rank]:
        advanced = op.apply(stage(alpha))
        if not domain.equal(advanced, stage(succ(alpha))):
            verified = False
    return IterationTrace(
        domain=domain,
        operator=op,
        stages=tuple(recorded),
        rank=rank,
        rank_is_lower_bound=False,
        stable_part=at_rank,
        verified=verified,
    )


def derivative_reaches_bottom(trace: IterationTrace) -> bool:
    """Does the stable part of an exact derivative trace vanish?"""
    if trace.operator.kind != DERIVATIVE:
        raise ValueError("trace was not produced by a derivative operator")
    if not trace.is_exact:
        raise IndeterminateTraceError("trace is budget-limited; raise max_steps")
    return trace.domain.equal(trace.stable_part, trace.domain.bottom)


def expansion_reaches_top(domain: SetDomain, trace: IterationTrace) -> bool:
    """Does the stable part of an exact expansion trace fill the space?"""
    if trace.operator.kind != EXPANSION:
        raise ValueError("trace was not produced by an expansion operator")
    if not trace.is_exact:
        raise IndeterminateTraceError("trace is budget-limited; raise max_steps")
    return domain.equal(trace.stable_part, domain.top)


@dataclass(frozen=True)
class LawViolation:
    law: str
    elements: tuple
    detail: str


@dataclass
class LawReport:
    operator: str
    pairs_checked: int = 0
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_operator_laws(
    domain: SetDomain, op: MonotoneOperator, samples: Sequence[tuple]
) -> LawReport:
    """Report-only audit of the operator contracts on sampled pairs."""
    report = LawReport(operator=op.name)
    for a, b in samples:
        report.pairs_checked += 1
        for x in (a, b):
            image = op.apply(x)
            if op.kind == DERIVATIVE and not domain.leq(image, x):
                report.violations.append(
                    LawViolation("contracting", (x,), "D(A) is not a subset of A")
                )
            if op.kind == EXPANSION and not domain.leq(x, image):
                report.violations.append(
                    LawViolation("inflating", (x,), "A is not a subset of E(A)")
                )
        if domain.leq(a, b) and not domain.leq(op.apply(a), op.apply(b)):
            report.violations.append(
                LawViolation("monotone", (a, b), "A <= B but images are not ordered")
            )
    return report


def write_trace_csv(trace: IterationTrace, fileobj) -> None:
    """Stage export: stage_index, size_metric, is_fixpoint."""
    writer = csv.writer(fileobj)
    writer.writerow(["stage_index", "size_metric", "is_fixpoint"])
    for index, value in trace.stages:
        fixed = trace.is_exact and cmp(index, trace.rank) >= 0
        writer.writerow(
            [format_ordinal(index), trace.domain.size_metric(value), str(fixed).lower()]
        )
