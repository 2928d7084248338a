import dataclasses
import io
import random

import pytest

from ordrank import cbspaces as cb
from ordrank import engine
from ordrank import relations as rel
from ordrank.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    format_ordinal,
    from_int,
    omega_power,
    parse_ordinal,
    succ,
)


def interval_domain(text):
    gamma = parse_ordinal(text)
    return gamma, cb.IntervalSpaceDomain(gamma)


class TestIterateSteps:
    def test_finite_relation_one_step(self):
        sp = rel.space(["a", "b", "c"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b")])
        trace = engine.iterate_steps(rel.RelationDomain(sp), rel.gamma_operator(), r, 10)
        assert trace.is_exact
        assert trace.rank == ONE

    def test_cb_derivative_on_omega(self):
        gamma = OMEGA
        domain = cb.OrdinalSpaceDomain(gamma)
        trace = engine.iterate_steps(domain, cb.cb_operator(), cb.full_space(gamma), 10)
        assert trace.rank == from_int(2)
        assert trace.is_exact
        # stages: the full space, {w}, then empty
        assert trace.value_at(0).full
        assert cb.member(OMEGA, trace.value_at(1))
        assert not cb.member(ONE, trace.value_at(1))
        assert trace.value_at(2).is_empty
        assert engine.derivative_reaches_bottom(trace)

    def test_expansion_from_top_has_rank_zero(self):
        gamma, domain = interval_domain("w^2")
        trace = engine.iterate_steps(
            domain, cb.succ_expansion_operator(), domain.top, 5
        )
        assert trace.rank == ZERO
        assert engine.expansion_reaches_top(domain, trace)

    def test_budget_exhaustion_is_lower_bound(self):
        gamma, domain = interval_domain("w^5")
        trace = engine.iterate_steps(
            domain, cb.succ_expansion_operator(), cb.interval(gamma, ONE), 2
        )
        assert trace.rank == from_int(2)
        assert trace.rank_is_lower_bound
        assert trace.stable_part is None
        with pytest.raises(engine.IndeterminateTraceError):
            engine.expansion_reaches_top(domain, trace)

    def test_domain_failure_carries_stage(self):
        gamma, domain = interval_domain("w")

        calls = {"n": 0}

        def exploding(value):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            return cb.succ_expansion(value)

        op = engine.MonotoneOperator("exploding", engine.EXPANSION, exploding)
        with pytest.raises(engine.EngineStageError) as err:
            engine.iterate_steps(domain, op, cb.interval(gamma, ONE), 10)
        assert err.value.stage == 2

    def test_law_breach_mid_iteration_raises(self):
        gamma, domain = interval_domain("w^2")
        shrink = engine.MonotoneOperator(
            "shrinking-but-labeled-expansion",
            engine.EXPANSION,
            lambda s: cb.interval(gamma, ZERO),
        )
        with pytest.raises(engine.ContractViolationError):
            engine.iterate_steps(domain, shrink, cb.interval(gamma, ONE), 5)


class TestLimitStage:
    def test_constant_chain(self):
        gamma, domain = interval_domain("w^2")
        a = cb.interval(gamma, ONE)
        out = engine.limit_stage(domain, cb.succ_expansion_operator(), [a, a, a])
        assert domain.equal(out, a)

    def test_interval_chain_symbolic_sup_capped_to_top(self):
        gamma, domain = interval_domain("w^3")
        chain = [
            cb.interval(gamma, ONE),
            cb.interval(gamma, OMEGA),
            cb.interval(gamma, omega_power(from_int(2))),
        ]
        out = engine.limit_stage(domain, cb.succ_expansion_operator(), chain)
        # the symbolic sup w^w exceeds the ambient bound, so the limit is top
        assert domain.equal(out, domain.top)

    def test_interval_chain_symbolic_sup_uncapped(self):
        gamma, domain = interval_domain("w^w")
        chain = [
            cb.interval(gamma, ONE),
            cb.interval(gamma, OMEGA),
            cb.interval(gamma, omega_power(from_int(2))),
        ]
        out = engine.limit_stage(domain, cb.succ_expansion_operator(), chain)
        assert out.endpoint == parse_ordinal("w^w")

    def test_divisibility_chain_symbolic_limit(self):
        gamma = parse_ordinal("w^w")
        domain = cb.OrdinalSpaceDomain(gamma)
        chain = [cb.stage_set(gamma, from_int(k)) for k in (1, 2, 3)]
        out = engine.limit_stage(domain, cb.cb_operator(), chain)
        assert out.beta == OMEGA
        # membership agrees: least exponent at least w
        assert cb.member(omega_power(OMEGA), out)
        assert not cb.member(omega_power(from_int(5)), out)

    def test_falls_back_to_meet_when_the_closed_form_cannot_continue(self):
        gamma = parse_ordinal("w^2")
        domain = cb.OrdinalSpaceDomain(gamma)
        chain = [cb.full_space(gamma), cb.stage_set(gamma, ONE)]
        out = engine.limit_stage(domain, cb.cb_operator(), chain)
        assert domain.equal(out, cb.stage_set(gamma, ONE))

    def test_non_monotone_chain_rejected(self):
        gamma, domain = interval_domain("w^2")
        chain = [cb.interval(gamma, OMEGA), cb.interval(gamma, ONE)]
        with pytest.raises(engine.ContractViolationError):
            engine.limit_stage(domain, cb.succ_expansion_operator(), chain)


class TestClosedForm:
    def test_cb_example(self):
        gamma = parse_ordinal("w^2*3+5")
        domain = cb.OrdinalSpaceDomain(gamma)
        result = engine.rank_closed_form(domain, cb.cb_operator(), cb.full_space(gamma))
        assert result.rank == from_int(3)
        assert result.verified

    def test_cb_finite_space(self):
        gamma = from_int(5)
        domain = cb.OrdinalSpaceDomain(gamma)
        result = engine.rank_closed_form(domain, cb.cb_operator(), cb.full_space(gamma))
        assert result.rank == ONE
        assert result.verified

    def test_expansion_transfinite(self):
        gamma, domain = interval_domain("w^w")
        result = engine.rank_closed_form(
            domain, cb.succ_expansion_operator(), cb.interval(gamma, ONE)
        )
        assert result.rank == OMEGA
        assert result.verified

    def test_missing_capability(self):
        sp = rel.space(["a", "b"])
        domain = rel.RelationDomain(sp)
        with pytest.raises(engine.UnsupportedDomainError):
            engine.rank_closed_form(
                domain, rel.gamma_operator(), rel.empty_relation(sp)
            )

    def test_agrees_with_step_mode_up_to_rank_12(self):
        op = cb.cb_operator()
        for exponent in range(0, 12):
            for coefficient in (1, 3):
                gamma = omega_power(from_int(exponent), coefficient)
                domain = cb.OrdinalSpaceDomain(gamma)
                start = cb.full_space(gamma)
                closed = engine.rank_closed_form(domain, op, start)
                stepped = engine.iterate_steps(domain, op, start, 14)
                assert stepped.is_exact
                assert closed.rank == stepped.rank
                assert closed.verified


    def test_trace_records_the_checked_stages(self):
        gamma = parse_ordinal("w^w")
        domain = cb.OrdinalSpaceDomain(gamma)
        trace = engine.rank_closed_form(domain, cb.cb_operator(), cb.full_space(gamma))
        assert trace.rank == parse_ordinal("w+1")
        assert [format_ordinal(i) for i, _ in trace.stages] == [
            "0", "1", "w", "w+1", "w+2",
        ]
        assert trace.is_exact and trace.verified
        assert trace.stable_part is trace.value_at(trace.rank)
        assert engine.derivative_reaches_bottom(trace)

    def test_wrong_closed_form_is_not_verified(self):
        gamma = parse_ordinal("w^3")
        domain = cb.OrdinalSpaceDomain(gamma)
        right = cb.cb_operator()
        late = engine.ClosedForm(
            rank=lambda start: succ(right.closed_form.rank(start)),
            stage=right.closed_form.stage,
            limit=right.closed_form.limit,
        )
        op = dataclasses.replace(right, closed_form=late)
        trace = engine.rank_closed_form(domain, op, cb.full_space(gamma))
        assert trace.rank == from_int(5)
        assert not trace.verified


class TestReachesExtreme:
    def test_gamma_below_top(self):
        sp = rel.space(["a", "b", "c"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("c", "c")])
        domain = rel.RelationDomain(sp)
        trace = engine.iterate_steps(domain, rel.gamma_operator(), r, 5)
        assert trace.rank == ZERO  # already an equivalence relation
        assert not engine.expansion_reaches_top(domain, trace)

    def test_expansion_reaches_top_example(self):
        gamma, domain = interval_domain("w^2")
        trace = engine.iterate_steps(
            domain, cb.succ_expansion_operator(), cb.interval(gamma, ONE), 10
        )
        assert trace.rank == from_int(2)
        assert engine.expansion_reaches_top(domain, trace)

    def test_kind_mismatch(self):
        gamma, domain = interval_domain("w")
        trace = engine.iterate_steps(
            domain, cb.succ_expansion_operator(), cb.interval(gamma, ONE), 10
        )
        with pytest.raises(ValueError):
            engine.derivative_reaches_bottom(trace)


class TestOperatorLaws:
    def test_gamma_on_random_relations(self):
        rng = random.Random(0)
        sp = rel.space(list("abcdef"))
        domain = rel.RelationDomain(sp)
        samples = []
        for _ in range(60):
            pairs_a = [(rng.choice(sp.cells), rng.choice(sp.cells)) for _ in range(4)]
            a = rel.CellRelation.from_pairs(sp, pairs_a)
            extra = [(rng.choice(sp.cells), rng.choice(sp.cells)) for _ in range(3)]
            b = domain.finite_join([a, rel.CellRelation.from_pairs(sp, extra)])
            samples.append((a, b))
        report = engine.check_operator_laws(domain, rel.gamma_operator(), samples)
        assert report.ok
        assert report.pairs_checked == 60

    def test_broken_operator_reported(self):
        gamma, domain = interval_domain("w^2")
        grower = engine.MonotoneOperator(
            "grower-labeled-derivative",
            engine.DERIVATIVE,
            cb.succ_expansion,
        )
        a = cb.interval(gamma, ONE)
        b = cb.interval(gamma, OMEGA)
        report = engine.check_operator_laws(domain, grower, [(a, b)])
        assert not report.ok
        assert any(v.law == "contracting" for v in report.violations)

    def test_cb_closed_form_on_sampled_sets(self):
        gamma = parse_ordinal("w^3*2+w")
        domain = cb.OrdinalSpaceDomain(gamma)
        sets = [cb.full_space(gamma)] + [
            cb.stage_set(gamma, from_int(k)) for k in range(0, 5)
        ]
        samples = [(a, b) for a in sets for b in sets]
        report = engine.check_operator_laws(domain, cb.cb_operator(), samples)
        assert report.ok


class TestStagewiseDomination:
    def test_smaller_start_stays_below(self):
        rng = random.Random(1)
        sp = rel.space(list("abcde"))
        domain = rel.RelationDomain(sp)
        op = rel.gamma_operator()
        for _ in range(40):
            pairs = [(rng.choice(sp.cells), rng.choice(sp.cells)) for _ in range(3)]
            small = rel.CellRelation.from_pairs(sp, pairs)
            extra = [(rng.choice(sp.cells), rng.choice(sp.cells)) for _ in range(3)]
            big = domain.finite_join([small, rel.CellRelation.from_pairs(sp, extra)])
            t_small = engine.iterate_steps(domain, op, small, 8)
            t_big = engine.iterate_steps(domain, op, big, 8)
            for k in range(min(len(t_small.stages), len(t_big.stages))):
                assert domain.leq(t_small.stages[k][1], t_big.stages[k][1])

    def test_cb_stages_dominated_for_nested_starts(self):
        gamma = parse_ordinal("w^5")
        domain = cb.OrdinalSpaceDomain(gamma)
        op = cb.cb_operator()
        small = cb.stage_set(gamma, from_int(2))
        big = cb.full_space(gamma)
        t_small = engine.iterate_steps(domain, op, small, 8)
        t_big = engine.iterate_steps(domain, op, big, 8)
        for k in range(min(len(t_small.stages), len(t_big.stages))):
            assert domain.leq(t_small.stages[k][1], t_big.stages[k][1])

    def test_exact_traces_strictly_move_before_rank(self):
        gamma = parse_ordinal("w^4")
        domain = cb.OrdinalSpaceDomain(gamma)
        trace = engine.iterate_steps(domain, cb.cb_operator(), cb.full_space(gamma), 10)
        assert trace.is_exact
        rank = trace.rank.to_int()
        for k in range(rank):
            a, b = trace.value_at(k), trace.value_at(k + 1)
            assert domain.leq(b, a) and not domain.equal(a, b)
        assert domain.equal(trace.value_at(rank), trace.value_at(rank + 1))


class TestTraceCsv:
    def test_columns_and_fixpoint_flags(self):
        gamma = OMEGA
        domain = cb.OrdinalSpaceDomain(gamma)
        trace = engine.iterate_steps(domain, cb.cb_operator(), cb.full_space(gamma), 10)
        out = io.StringIO()
        engine.write_trace_csv(trace, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "stage_index,size_metric,is_fixpoint"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert [r[2] for r in rows] == ["false", "false", "true", "true"]
        assert rows[0][1] == "inf"  # the full space [0, w] is infinite
        assert rows[1][1] == "1"  # just {w}
        assert rows[2][1] == "0"
