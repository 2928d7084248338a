"""Symbolic closed sets in countable compact ordinal spaces [0, gamma].

Two exact families live here.  `DivisibilitySet` represents the iterated
limit-point sets of [0, gamma]: stage beta holds the points whose least
exponent is at least beta.  `IntervalSet` represents initial segments
[0, endpoint] and carries a synthetic inflating operator whose endpoint
jumps to the next omega power, giving the engine instances with genuinely
transfinite ranks.  Both operators carry an `engine.ClosedForm` whose
functions read the ambient gamma from the sets themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import engine
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    least_exponent,
    leading_exponent,
    left_difference,
    mul_omega,
    omega_log_ceiling,
    omega_power,
    ord_min,
    predecessor,
    succ,
)


class AmbientRangeError(ValueError):
    """Point or endpoint lies outside the ambient space [0, gamma]."""


@dataclass(frozen=True)
class DivisibilitySet:
    """Stage-`beta` limit-point set inside [0, gamma].

    Denotes {delta : 1 <= delta <= gamma, least_exponent(delta) >= beta},
    plus the point 0 when `full` is set (only meaningful at stage 0, where
    the set is all of [0, gamma]).  Empty exactly when w^beta > gamma.
    """

    gamma: Ordinal
    beta: Ordinal
    full: bool = False

    def __post_init__(self):
        if self.full and not self.beta.is_zero:
            raise ValueError("full sets exist only at stage 0")

    @property
    def is_empty(self) -> bool:
        if self.full:
            return False
        return cmp(omega_power(self.beta), self.gamma) > 0


def full_space(gamma: Ordinal) -> DivisibilitySet:
    return DivisibilitySet(gamma=gamma, beta=ZERO, full=True)


def stage_set(gamma: Ordinal, beta: Ordinal) -> DivisibilitySet:
    return DivisibilitySet(gamma=gamma, beta=beta)


def empty_set(gamma: Ordinal) -> DivisibilitySet:
    beta = succ(leading_exponent(gamma)) if not gamma.is_zero else ONE
    return DivisibilitySet(gamma=gamma, beta=beta)


def member(delta: Ordinal, s: DivisibilitySet) -> bool:
    """Exact membership by normal-form inspection."""
    if cmp(delta, s.gamma) > 0:
        raise AmbientRangeError(f"{delta} lies outside [0, {s.gamma}]")
    if delta.is_zero:
        return s.full
    return cmp(least_exponent(delta), s.beta) >= 0


def cb_derivative(s: DivisibilitySet) -> DivisibilitySet:
    """Limit points of `s` in the order topology of [0, gamma].

    The full stage-0 set maps to stage 1; stage beta maps to stage beta+1;
    the empty set is a fixpoint (still written as the next stage, which
    denotes the same empty set).
    """
    return DivisibilitySet(gamma=s.gamma, beta=succ(s.beta))


def _least_member_above(s: DivisibilitySet, lo: Ordinal) -> Ordinal | None:
    """Smallest member of `s` strictly above `lo`, or None.

    Members above 0 are exactly the ordinals all of whose exponents are
    >= beta, i.e. the right-multiples of w^beta; the least one above `lo`
    is `lo` truncated to exponents >= beta, plus one more w^beta block.
    """
    if s.full and not s.beta.is_zero:
        raise ValueError("full sets have stage 0")
    kept = tuple(t for t in lo.terms if cmp(t[0], s.beta) >= 0)
    candidate = add(Ordinal(kept), omega_power(s.beta))
    if cmp(candidate, s.gamma) > 0:
        return None
    return candidate


def limit_point_oracle(delta: Ordinal, s: DivisibilitySet) -> bool:
    """Independent limit-point test used to cross-check cb_derivative.

    Decides whether members of `s` accumulate at `delta` by constructing
    sample points below `delta` and asking for a member strictly between
    each sample and `delta`; never consults stage arithmetic.
    """
    if cmp(delta, s.gamma) > 0:
        raise AmbientRangeError(f"{delta} lies outside [0, {s.gamma}]")
    if not delta.is_limit:
        return False
    exponent, coefficient = delta.terms[-1]
    if coefficient > 1:
        base = Ordinal(delta.terms[:-1] + ((exponent, coefficient - 1),))
    else:
        base = Ordinal(delta.terms[:-1])

    samples = [base]
    if exponent.is_successor:
        below = predecessor(exponent)
        for k in (1, 2, 3):
            samples.append(add(base, omega_power(below, k)))
    else:
        # limit exponent: approach through small powers below it
        for e in (ZERO, ONE, omega_power(ONE)):
            if cmp(e, exponent) < 0:
                samples.append(add(base, omega_power(e)))

    for eps in samples:
        found = _least_member_above(s, eps)
        if found is None or cmp(found, delta) >= 0:
            return False
        if not member(found, s):  # sanity: the witness really is a member
            return False
    return True


def cb_rank(gamma: Ordinal) -> Ordinal:
    """Stabilization ordinal of the limit-point iteration on [0, gamma].

    A single point already empties in one step, hence rank 1 for gamma = 0;
    otherwise the iteration empties exactly at leading_exponent(gamma) + 1.
    """
    if gamma.is_zero:
        return ONE
    return succ(leading_exponent(gamma))


def _cb_stage(start: DivisibilitySet, stage: Ordinal) -> DivisibilitySet:
    if stage.is_zero:
        return start
    return stage_set(start.gamma, add(start.beta, stage))


def _cb_closed_rank(start: DivisibilitySet) -> Ordinal:
    if start.is_empty:
        return ZERO
    return left_difference(start.beta, cb_rank(start.gamma))


def _cb_limit(chain: Sequence[DivisibilitySet]) -> DivisibilitySet:
    """A stage chain advancing by `step` per element reaches its limit
    after step * w more stages."""
    if len(chain) < 2 or chain[-1].full or chain[-2].full:
        raise engine.UnsupportedDomainError("chain is not a stage chain")
    step = left_difference(chain[-2].beta, chain[-1].beta)
    if step.is_zero:
        raise engine.UnsupportedDomainError("chain is not strictly advancing")
    return _cb_stage(chain[-1], mul_omega(step))


def cb_operator() -> engine.MonotoneOperator:
    return engine.MonotoneOperator(
        name="cantor-bendixson",
        kind=engine.DERIVATIVE,
        apply=cb_derivative,
        closed_form=engine.ClosedForm(
            rank=_cb_closed_rank, stage=_cb_stage, limit=_cb_limit
        ),
    )


class OrdinalSpaceDomain(engine.SetDomain):
    """Lattice of DivisibilitySets of one ambient space [0, gamma]."""

    def __init__(self, gamma: Ordinal):
        self.gamma = gamma
        self.name = f"ordinal-space[0,{gamma}]"

    def _check(self, a: DivisibilitySet):
        if a.gamma != self.gamma:
            raise ValueError("element belongs to a different ambient space")

    def equal(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        if a.is_empty or b.is_empty:
            return a.is_empty and b.is_empty
        return a.full == b.full and a.beta == b.beta

    def leq(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        if a.is_empty:
            return True
        if b.is_empty:
            return False
        if a.full:
            return b.full
        if b.full:
            return True
        return cmp(a.beta, b.beta) >= 0

    @property
    def bottom(self):
        return empty_set(self.gamma)

    @property
    def top(self):
        return full_space(self.gamma)

    def finite_join(self, items: Sequence[DivisibilitySet]):
        present = [x for x in items if not x.is_empty]
        if not present:
            return self.bottom
        if any(x.full for x in present):
            return self.top
        beta = present[0].beta
        for x in present[1:]:
            beta = ord_min(beta, x.beta)
        return stage_set(self.gamma, beta)

    def finite_meet(self, items: Sequence[DivisibilitySet]):
        items = list(items)
        if not items:
            return self.top
        if any(x.is_empty for x in items):
            return self.bottom
        if all(x.full for x in items):
            return self.top
        # meet of nested stages is the largest beta among the non-full ones
        beta = None
        for x in items:
            if x.full:
                continue
            if beta is None or cmp(x.beta, beta) > 0:
                beta = x.beta
        return stage_set(self.gamma, beta)

    def size_metric(self, a) -> int | str:
        self._check(a)
        if a.is_empty:
            return 0
        if a.gamma.is_finite:
            return a.gamma.to_int() + (1 if a.full else 0) if a.beta.is_zero else 0
        lead = leading_exponent(a.gamma)
        c = cmp(a.beta, lead)
        if c > 0:
            return 0
        if c == 0:
            return a.gamma.terms[0][1]
        return "inf"


# -- intervals and the synthetic expansion --------------------------------


@dataclass(frozen=True)
class IntervalSet:
    """Initial segment [0, endpoint] of [0, gamma]; endpoint None is empty."""

    gamma: Ordinal
    endpoint: Ordinal | None

    def __post_init__(self):
        if self.endpoint is not None and cmp(self.endpoint, self.gamma) > 0:
            raise AmbientRangeError(
                f"endpoint {self.endpoint} exceeds ambient bound {self.gamma}"
            )

    @property
    def is_empty(self) -> bool:
        return self.endpoint is None


def interval(gamma: Ordinal, endpoint: Ordinal) -> IntervalSet:
    return IntervalSet(gamma=gamma, endpoint=endpoint)


def empty_interval(gamma: Ordinal) -> IntervalSet:
    return IntervalSet(gamma=gamma, endpoint=None)


def succ_expansion(s: IntervalSet) -> IntervalSet:
    """Endpoint jump to the next omega power, capped at the ambient bound.

    [0, 0] and the empty set are fixpoints; otherwise [0, e] maps to
    [0, min(gamma, e * w)].  Inflating and monotone by construction.
    """
    if s.is_empty or s.endpoint.is_zero:
        return s
    return IntervalSet(gamma=s.gamma, endpoint=ord_min(s.gamma, mul_omega(s.endpoint)))


def _succ_stage(start: IntervalSet, stage: Ordinal) -> IntervalSet:
    if stage.is_zero or start.is_empty or start.endpoint.is_zero:
        return start
    grown = omega_power(add(leading_exponent(start.endpoint), stage))
    return interval(start.gamma, ord_min(start.gamma, grown))


def _succ_closed_rank(start: IntervalSet) -> Ordinal:
    if start.is_empty or start.endpoint.is_zero or start.endpoint == start.gamma:
        return ZERO
    return left_difference(
        leading_exponent(start.endpoint), omega_log_ceiling(start.gamma)
    )


def _succ_limit(chain: Sequence[IntervalSet]) -> IntervalSet:
    """An endpoint chain with last endpoint e reaches w^(lead(e) + w)."""
    if (
        len(chain) < 2
        or chain[-2].is_empty
        or chain[-1].is_empty
        or chain[-1].endpoint.is_zero
    ):
        raise engine.UnsupportedDomainError("chain is not an endpoint chain")
    return _succ_stage(chain[-1], OMEGA)


def succ_expansion_operator() -> engine.MonotoneOperator:
    return engine.MonotoneOperator(
        name="succ-expansion",
        kind=engine.EXPANSION,
        apply=succ_expansion,
        closed_form=engine.ClosedForm(
            rank=_succ_closed_rank, stage=_succ_stage, limit=_succ_limit
        ),
    )


class IntervalSpaceDomain(engine.SetDomain):
    """Lattice of initial segments of [0, gamma]."""

    def __init__(self, gamma: Ordinal):
        self.gamma = gamma
        self.name = f"interval-space[0,{gamma}]"

    def _check(self, a: IntervalSet):
        if a.gamma != self.gamma:
            raise ValueError("element belongs to a different ambient space")

    def equal(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        if a.is_empty or b.is_empty:
            return a.is_empty and b.is_empty
        return a.endpoint == b.endpoint

    def leq(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        if a.is_empty:
            return True
        if b.is_empty:
            return False
        return cmp(a.endpoint, b.endpoint) <= 0

    @property
    def bottom(self):
        return empty_interval(self.gamma)

    @property
    def top(self):
        return interval(self.gamma, self.gamma)

    def finite_join(self, items: Sequence[IntervalSet]):
        endpoint = None
        for x in items:
            self._check(x)
            if x.is_empty:
                continue
            if endpoint is None or cmp(x.endpoint, endpoint) > 0:
                endpoint = x.endpoint
        if endpoint is None:
            return self.bottom
        return interval(self.gamma, endpoint)

    def finite_meet(self, items: Sequence[IntervalSet]):
        items = list(items)
        if not items:
            return self.top
        endpoint = items[0].endpoint
        for x in items[1:]:
            self._check(x)
            if x.is_empty or endpoint is None:
                return self.bottom
            endpoint = ord_min(endpoint, x.endpoint)
        if endpoint is None:
            return self.bottom
        return interval(self.gamma, endpoint)

    def size_metric(self, a) -> int | str:
        self._check(a)
        if a.is_empty:
            return 0
        if a.endpoint.is_finite:
            return a.endpoint.to_int() + 1
        return "inf"
