from itertools import product

import pytest

from ordrank import cbspaces as cb
from ordrank import engine
from ordrank.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    from_int,
    omega_power,
    parse_ordinal,
    succ,
)


def cnf_grid(max_exponent: int, max_coeff: int) -> list[Ordinal]:
    """All normal forms with at most two terms, natural exponents."""
    out = [ZERO]
    for e, c in product(range(max_exponent + 1), range(1, max_coeff + 1)):
        out.append(omega_power(from_int(e), c))
        for e2, c2 in product(range(e), range(1, max_coeff + 1)):
            out.append(add(omega_power(from_int(e), c), omega_power(from_int(e2), c2)))
    return out


class TestMembership:
    def test_examples(self):
        gamma = parse_ordinal("w^3")
        s1 = cb.stage_set(gamma, ONE)
        s2 = cb.stage_set(gamma, from_int(2))
        assert cb.member(parse_ordinal("w^2+w"), s1)
        assert not cb.member(parse_ordinal("w^2+1"), s1)
        assert cb.member(parse_ordinal("w^2*2"), s2)

    def test_zero_needs_full(self):
        gamma = OMEGA
        assert cb.member(ZERO, cb.full_space(gamma))
        assert not cb.member(ZERO, cb.stage_set(gamma, ZERO))

    def test_out_of_range(self):
        with pytest.raises(cb.AmbientRangeError):
            cb.member(parse_ordinal("w^2"), cb.full_space(OMEGA))

    def test_emptiness(self):
        assert cb.stage_set(from_int(5), ONE).is_empty
        assert not cb.stage_set(OMEGA, ONE).is_empty
        assert cb.empty_set(parse_ordinal("w^2*4+3")).is_empty


class TestDerivative:
    def test_examples(self):
        s = cb.cb_derivative(cb.full_space(OMEGA))
        assert cb.member(OMEGA, s)
        assert not cb.member(from_int(3), s)
        empty = cb.empty_set(OMEGA)
        assert cb.cb_derivative(empty).is_empty
        gamma = parse_ordinal("w^2*3")
        s2 = cb.cb_derivative(cb.stage_set(gamma, ONE))
        members = [parse_ordinal(t) for t in ("w^2", "w^2*2", "w^2*3")]
        for m in members:
            assert cb.member(m, s2)
        assert not cb.member(parse_ordinal("w*5"), s2)

    def test_matches_limit_point_oracle_exhaustively(self):
        """cb_derivative output equals the oracle's limit points on a grid."""
        for gamma in cnf_grid(2, 4):
            if gamma.is_zero:
                continue
            domain = cb.OrdinalSpaceDomain(gamma)
            deltas = [d for d in cnf_grid(2, 4) if cmp(d, gamma) <= 0]
            stage = cb.full_space(gamma)
            for _ in range(4):
                derived = cb.cb_derivative(stage)
                for delta in deltas:
                    assert cb.member(delta, derived) == cb.limit_point_oracle(
                        delta, stage
                    ), (gamma, stage.beta, delta)
                stage = derived

    def test_oracle_spec_examples(self):
        assert cb.limit_point_oracle(OMEGA, cb.full_space(OMEGA))
        assert not cb.limit_point_oracle(from_int(5), cb.full_space(OMEGA))
        gamma = parse_ordinal("w^2")
        assert cb.limit_point_oracle(gamma, cb.stage_set(gamma, ONE))


class TestRank:
    def test_examples(self):
        assert cb.cb_rank(from_int(5)) == ONE
        assert cb.cb_rank(OMEGA) == from_int(2)
        assert cb.cb_rank(parse_ordinal("w^2*3+5")) == from_int(3)
        assert cb.cb_rank(ZERO) == ONE

    def test_engine_cross_checks(self):
        op = cb.cb_operator()
        for gamma in [OMEGA, parse_ordinal("w^2"), parse_ordinal("w^3+w")]:
            domain = cb.OrdinalSpaceDomain(gamma)
            start = cb.full_space(gamma)
            trace = engine.iterate_steps(domain, op, start, 12)
            assert trace.rank == cb.cb_rank(gamma)
            closed = engine.rank_closed_form(domain, op, start)
            assert closed.rank == cb.cb_rank(gamma)
            assert closed.verified


class TestTransfiniteConsistency:
    def test_limit_stage_is_membership_meet(self):
        gamma = parse_ordinal("w^w")
        domain = cb.OrdinalSpaceDomain(gamma)
        op = cb.cb_operator()
        start = cb.full_space(gamma)
        at_limit = op.closed_form.stage(start, OMEGA)
        deltas = [
            omega_power(OMEGA),
            omega_power(from_int(6)),
            omega_power(from_int(2), 3),
            add(omega_power(from_int(7)), omega_power(from_int(3))),
            from_int(9),
        ]
        for delta in deltas:
            in_all_finite = all(
                cb.member(delta, op.closed_form.stage(start, from_int(n)))
                for n in range(1, 12)
            )
            assert cb.member(delta, at_limit) == in_all_finite, delta

    def test_meet_of_sampled_stages(self):
        gamma = parse_ordinal("w^w")
        domain = cb.OrdinalSpaceDomain(gamma)
        op = cb.cb_operator()
        start = cb.full_space(gamma)
        sampled = [op.closed_form.stage(start, from_int(n)) for n in (1, 3, 7)]
        meet = domain.finite_meet(sampled)
        assert domain.equal(meet, op.closed_form.stage(start, from_int(7)))


class TestSuccExpansion:
    def test_examples(self):
        gamma = parse_ordinal("w^2")
        assert cb.succ_expansion(cb.interval(gamma, ONE)).endpoint == OMEGA
        top = cb.interval(gamma, gamma)
        assert cb.succ_expansion(top).endpoint == gamma

    def test_inflating_and_strictly_growing_until_top(self):
        gamma = parse_ordinal("w^4")
        domain = cb.IntervalSpaceDomain(gamma)
        current = cb.interval(gamma, ONE)
        seen = []
        for _ in range(8):
            nxt = cb.succ_expansion(current)
            assert domain.leq(current, nxt)
            seen.append(nxt)
            if domain.equal(nxt, current):
                break
            assert cmp(nxt.endpoint, current.endpoint) > 0
            current = nxt
        assert domain.equal(seen[-1], domain.top)

    def test_zero_and_empty_are_fixpoints(self):
        gamma = OMEGA
        z = cb.interval(gamma, ZERO)
        assert cb.succ_expansion(z) == z
        e = cb.empty_interval(gamma)
        assert cb.succ_expansion(e) == e

    def test_engine_rank_transfinite(self):
        gamma = parse_ordinal("w^w")
        domain = cb.IntervalSpaceDomain(gamma)
        result = engine.rank_closed_form(
            domain, cb.succ_expansion_operator(), cb.interval(gamma, ONE)
        )
        assert result.rank == OMEGA
        assert result.verified

    def test_monotone_on_sampled_pairs(self):
        gamma = parse_ordinal("w^3")
        domain = cb.IntervalSpaceDomain(gamma)
        endpoints = [ZERO, ONE, from_int(4), OMEGA, parse_ordinal("w*2"),
                     parse_ordinal("w^2"), gamma]
        samples = []
        for a in endpoints:
            for b in endpoints:
                if cmp(a, b) <= 0:
                    samples.append((cb.interval(gamma, a), cb.interval(gamma, b)))
        report = engine.check_operator_laws(
            domain, cb.succ_expansion_operator(), samples
        )
        assert report.ok


class TestDomainLattice:
    def test_join_and_meet_shapes(self):
        gamma = parse_ordinal("w^2*2")
        domain = cb.OrdinalSpaceDomain(gamma)
        s1 = cb.stage_set(gamma, ONE)
        s2 = cb.stage_set(gamma, from_int(2))
        assert domain.equal(domain.finite_join([s1, s2]), s1)
        assert domain.equal(domain.finite_meet([s1, s2]), s2)
        assert domain.equal(domain.finite_join([]), domain.bottom)
        assert domain.leq(domain.bottom, s2)
        assert domain.leq(s2, domain.top)

    def test_equality_ignores_representation(self):
        gamma = from_int(7)
        domain = cb.OrdinalSpaceDomain(gamma)
        # different betas, both denote the empty set
        a = cb.stage_set(gamma, ONE)
        b = cb.stage_set(gamma, from_int(5))
        assert domain.equal(a, b)

    def test_stage_arithmetic_from_intermediate_start(self):
        gamma = parse_ordinal("w^5")
        domain = cb.OrdinalSpaceDomain(gamma)
        op = cb.cb_operator()
        start = cb.stage_set(gamma, from_int(2))
        assert op.closed_form.rank(start) == from_int(4)
        assert op.closed_form.stage(start, from_int(3)).beta == from_int(5)
