import random

import pytest

import oracles
from ordrank import engine
from ordrank import relations as rel
from ordrank.ordinals import ONE, ZERO


def random_relation(rng, sp, density=0.25):
    pairs = [
        (u, v)
        for u in sp.cells
        for v in sp.cells
        if rng.random() < density
    ]
    return rel.CellRelation.from_pairs(sp, pairs)


class TestPointSpace:
    def test_lookups(self):
        sp = rel.space(["b", "a", "c"], {"b": "x", "a": "y", "c": "x"})
        assert [sp.index(c) for c in ("a", "b", "c")] == [1, 0, 2]
        assert [sp.parent_of(c) for c in ("a", "b", "c")] == ["y", "x", "x"]
        with pytest.raises(ValueError):
            sp.index("z")
        with pytest.raises(KeyError):
            sp.parent_of("z")
        with pytest.raises(ValueError, match="no parent map"):
            rel.space(["a"]).parent_of("a")

    def test_malformed_spaces_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            rel.space(["a", "a"])
        with pytest.raises(ValueError, match="total"):
            rel.space(["a", "b"], {"a": "x"})

    def test_equal_spaces_hash_alike(self):
        assert rel.space(["a", "b"]) == rel.space(["a", "b"])
        assert hash(rel.space(["a", "b"])) == hash(rel.space(["a", "b"]))


class TestSymRefl:
    def test_example(self):
        sp = rel.space(["a", "b", "c"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b")])
        expected = {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("c", "c")}
        assert set(rel.sym_refl(r).pairs()) == expected

    def test_identity_fixed(self):
        sp = rel.space(["a", "b"])
        identity = rel.CellRelation.from_pairs(sp, [("a", "a"), ("b", "b")])
        assert rel.sym_refl(identity) == identity

    def test_contains_input_symmetric_reflexive(self):
        rng = random.Random(5)
        sp = rel.space(list("abcdefgh"))
        for _ in range(30):
            r = random_relation(rng, sp)
            s = rel.sym_refl(r)
            pairs = set(s.pairs())
            assert set(r.pairs()) <= pairs
            assert all((v, u) in pairs for u, v in pairs)
            assert all((c, c) in pairs for c in sp.cells)


class TestChainN:
    def test_path_example(self):
        sp = rel.space(["a", "b", "c"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b"), ("b", "c")])
        assert rel.chain_n(r, 2).has("a", "c")

    def test_chain_one_is_identity_case(self):
        rng = random.Random(9)
        sp = rel.space(list("abcde"))
        for _ in range(10):
            r = random_relation(rng, sp)
            assert rel.chain_n(r, 1) == r

    def test_matches_path_enumeration(self):
        rng = random.Random(2)
        sp = rel.space(list("abcdefg"))
        for _ in range(40):
            r = random_relation(rng, sp)
            for n in range(1, 5):
                expected = oracles.exact_paths(sp.cells, r.pairs(), n)
                assert set(rel.chain_n(r, n).pairs()) == expected


class TestEquivClosure:
    def test_examples(self):
        sp = rel.space(["a", "b", "c"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b"), ("b", "c")])
        assert rel.equiv_closure(r).pair_count == 9
        eq = rel.CellRelation.from_pairs(
            sp, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a")]
        )
        assert rel.equiv_closure(eq) == eq

    def test_matches_warshall_oracle(self):
        rng = random.Random(13)
        for trial in range(200):
            size = rng.randint(2, 10)
            sp = rel.space([f"c{i}" for i in range(size)])
            r = random_relation(rng, sp, density=0.2)
            expected = oracles.warshall_closure(sp.cells, r.pairs())
            assert set(rel.equiv_closure(r).pairs()) == expected

    def test_equals_union_of_chains(self):
        """Closure equals the union of n-step chains of the symmetrized
        relation, n up to the cell count."""
        rng = random.Random(21)
        # exhaustive on 3 cells, random beyond
        sp3 = rel.space(["x", "y", "z"])
        all_pairs3 = [(u, v) for u in sp3.cells for v in sp3.cells]
        for bits in range(512):
            pairs = [p for i, p in enumerate(all_pairs3) if bits >> i & 1]
            r = rel.CellRelation.from_pairs(sp3, pairs)
            base = rel.sym_refl(r)
            union = rel.RelationDomain(sp3).finite_join(
                [rel.chain_n(base, n) for n in range(1, 4)]
            )
            assert union == rel.equiv_closure(r)
        for _ in range(25):
            size = rng.randint(4, 10)
            sp = rel.space([f"c{i}" for i in range(size)])
            r = random_relation(rng, sp, density=0.15)
            base = rel.sym_refl(r)
            union = rel.RelationDomain(sp).finite_join(
                [rel.chain_n(base, n) for n in range(1, size + 1)]
            )
            assert union == rel.equiv_closure(r)


class TestGammaFinite:
    def test_specializes_to_closure_and_idempotent(self):
        rng = random.Random(4)
        sp = rel.space(list("abcdef"))
        for _ in range(25):
            r = random_relation(rng, sp)
            g = rel.gamma_finite(r)
            assert g == rel.equiv_closure(r)
            assert rel.gamma_finite(g) == g
            assert rel.RelationDomain(sp).leq(r, g)
            assert rel.is_equivalence(g)

    def test_engine_rank_zero_iff_equivalence(self):
        rng = random.Random(17)
        domain_cache = {}
        for trial in range(200):
            size = rng.randint(2, 10)
            sp = rel.space([f"c{i}" for i in range(size)])
            r = random_relation(rng, sp, density=0.25)
            domain = rel.RelationDomain(sp)
            trace = engine.iterate_steps(domain, rel.gamma_operator(), r, 8)
            assert trace.is_exact
            assert trace.rank in (ZERO, ONE)
            assert (trace.rank == ZERO) == rel.is_equivalence(r)


class TestTowers:
    def make_tower(self):
        coarse = rel.space(["A", "B"])
        fine = rel.space(["a1", "a2", "b1"], parent={"a1": "A", "a2": "A", "b1": "B"})
        coarse_rel = rel.CellRelation.from_pairs(coarse, [("A", "A"), ("A", "B")])
        fine_rel = rel.CellRelation.from_pairs(fine, [("a1", "a2"), ("a2", "b1")])
        return rel.RelationTower(levels=((coarse, coarse_rel), (fine, fine_rel)))

    def test_consistent_tower_passes(self):
        assert rel.check_tower(self.make_tower()).ok

    def test_corrupted_pair_is_named(self):
        coarse = rel.space(["A", "B"])
        fine = rel.space(["a1", "b1"], parent={"a1": "A", "b1": "B"})
        coarse_rel = rel.CellRelation.from_pairs(coarse, [("A", "A")])
        fine_rel = rel.CellRelation.from_pairs(fine, [("a1", "b1")])
        tower = rel.RelationTower(levels=((coarse, coarse_rel), (fine, fine_rel)))
        report = rel.check_tower(tower)
        assert not report.ok
        assert report.violations[0].pair == ("a1", "b1")
        assert report.violations[0].level == 1

    def test_refine_project_containment(self):
        tower = self.make_tower()
        projected = rel.refine_project(tower, 1)
        coarse_rel = tower.levels[0][1]
        assert rel.RelationDomain(tower.levels[0][0]).leq(projected, coarse_rel)

    def test_golden_mean_word_relation_projects_inside(self):
        """Independence evidence on two-letter words projects into the
        one-letter evidence via the prefix map."""
        from ordrank import subshift as sub

        golden = sub.SubshiftSpec(alphabet=("0", "1"), forbidden=("11",))
        ev1 = sub.ie_evidence(golden, 1, 8, "0.5")
        ev2 = sub.ie_evidence(golden, 2, 8, "0.5")
        coarse = rel.space(ev1.words)
        fine = rel.space(ev2.words, parent={w: w[:1] for w in ev2.words})
        for pick in (lambda ev: ev.lower, lambda ev: ev.upper):
            tower = rel.RelationTower(
                levels=(
                    (coarse, rel.CellRelation(space=coarse, rows=pick(ev1).rows)),
                    (fine, rel.CellRelation(space=fine, rows=pick(ev2).rows)),
                )
            )
            assert rel.check_tower(tower).ok
            projected = rel.refine_project(tower, 1)
            assert rel.RelationDomain(coarse).leq(projected, tower.levels[0][1])


class TestGammaTowerIterate:
    def test_all_distinct_pairs_one_step(self):
        sp1 = rel.space(["0", "1"])
        words2 = ["00", "01", "10", "11"]
        sp2 = rel.space(words2, parent={w: w[:1] for w in words2})
        distinct1 = rel.CellRelation.from_pairs(
            sp1, [(u, v) for u in sp1.cells for v in sp1.cells if u != v]
        )
        distinct2 = rel.CellRelation.from_pairs(
            sp2, [(u, v) for u in words2 for v in words2 if u != v]
        )
        tower = rel.RelationTower(levels=((sp1, distinct1), (sp2, distinct2)))
        run = rel.gamma_tower_iterate(tower, 8)
        assert run.verdict == "all-levels-reach-top"
        for level in run.levels:
            assert level.reach_top
            assert level.stabilization_stage == ONE

    def test_empty_levels_certify_not_top(self):
        sp1 = rel.space(["0", "1"])
        sp2 = rel.space(
            ["00", "01", "10"], parent={"00": "0", "01": "0", "10": "1"}
        )
        tower = rel.RelationTower(
            levels=((sp1, rel.empty_relation(sp1)), (sp2, rel.empty_relation(sp2)))
        )
        run = rel.gamma_tower_iterate(tower, 8)
        assert run.verdict == "gamma-limit-not-top"
        for level, (sp, _) in zip(run.levels, tower.levels):
            stable = level.trace.stable_part
            identity = rel.CellRelation.from_pairs(sp, [(c, c) for c in sp.cells])
            assert stable == identity

    def test_budget_exhaustion_marks_indeterminate(self):
        sp = rel.space(["a", "b"])
        r = rel.CellRelation.from_pairs(sp, [("a", "b")])
        tower = rel.RelationTower(levels=((sp, r),))
        run = rel.gamma_tower_iterate(tower, 1)
        assert run.levels[0].budget_exhausted
        assert run.verdict == "indeterminate"

    def test_inconsistent_tower_rejected(self):
        coarse = rel.space(["A", "B"])
        fine = rel.space(["a1", "b1"], parent={"a1": "A", "b1": "B"})
        tower = rel.RelationTower(
            levels=(
                (coarse, rel.empty_relation(coarse)),
                (fine, rel.CellRelation.from_pairs(fine, [("a1", "b1")])),
            )
        )
        with pytest.raises(rel.TowerInconsistentError):
            rel.gamma_tower_iterate(tower, 4)

    def test_projected_stages_dominated(self):
        """Stage k of a finer level projects inside stage k of the coarser."""
        rng = random.Random(29)
        for _ in range(25):
            coarse_size = rng.randint(2, 4)
            fine_size = rng.randint(coarse_size, 8)
            coarse = rel.space([f"C{i}" for i in range(coarse_size)])
            mapping = {
                f"f{i}": f"C{rng.randrange(coarse_size)}" for i in range(fine_size)
            }
            fine = rel.space(list(mapping), parent=mapping)
            fine_rel = random_relation(rng, fine, density=0.2)
            projected = [
                (mapping[u], mapping[v]) for u, v in fine_rel.pairs()
            ]
            extra = random_relation(rng, coarse, density=0.15)
            coarse_rel = rel.RelationDomain(coarse).finite_join(
                [rel.CellRelation.from_pairs(coarse, projected), extra]
            )
            tower = rel.RelationTower(levels=((coarse, coarse_rel), (fine, fine_rel)))
            assert rel.check_tower(tower).ok
            run = rel.gamma_tower_iterate(tower, 10)
            t_coarse, t_fine = run.levels[0].trace, run.levels[1].trace
            for k in range(min(len(t_coarse.stages), len(t_fine.stages))):
                stage_fine = t_fine.stages[k][1]
                stage_coarse = t_coarse.stages[k][1]
                image = rel.CellRelation.from_pairs(
                    coarse,
                    [(mapping[u], mapping[v]) for u, v in stage_fine.pairs()],
                )
                assert rel.RelationDomain(coarse).leq(image, stage_coarse)


class TestOverApproximationSoundness:
    def test_quotient_dominates_true_iteration(self):
        """q(gamma_true^k(E)) is contained in gamma_cell^k(q(E)), always."""
        rng = random.Random(101)
        violations = 0
        for _ in range(100):
            n_points = rng.randint(2, 8)
            points = [f"p{i}" for i in range(n_points)]
            n_cells = rng.randint(1, n_points)
            q = {p: f"c{rng.randrange(n_cells)}" for p in points}
            cells = sorted(set(q.values()))
            pairs = {
                (u, v)
                for u in points
                for v in points
                if rng.random() < 0.15
            }
            true_stages = oracles.brute_equiv_iterates(points, pairs)
            sp = rel.space(cells)
            cell_rel = rel.CellRelation.from_pairs(
                sp, [(q[u], q[v]) for u, v in pairs]
            )
            domain = rel.RelationDomain(sp)
            cell_stage = cell_rel
            for k, true_stage in enumerate(true_stages):
                image = rel.CellRelation.from_pairs(
                    sp, [(q[u], q[v]) for u, v in true_stage]
                )
                if not domain.leq(image, cell_stage):
                    violations += 1
                cell_stage = rel.gamma_finite(cell_stage)
        assert violations == 0
