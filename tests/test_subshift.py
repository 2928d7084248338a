import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ordrank import cli
from ordrank import subshift as sub
from ordrank.ordinals import ONE, format_ordinal
from ordrank.relations import RelationDomain

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestParsing:
    def test_golden_mean_graph(self, golden_mean):
        graph = sub.build_graph(golden_mean)
        assert len(graph.states) == 2
        assert sum(len(e) for e in graph.edges) == 3

    def test_full_shift_graph(self, full_shift):
        # the root alone, with one self-loop per symbol
        graph = sub.build_graph(full_shift)
        assert graph.states == ("",)
        assert graph.edges == ((("0", 0), ("1", 0)),)

    def test_empty_subshift_rejected(self):
        text = json.dumps(
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["0", "1"]}
        )
        with pytest.raises(sub.EmptySubshiftError, match="empty subshift"):
            sub.parse_subshift(text)

    def test_parse_round_trip(self, golden_mean):
        text = json.dumps(
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}
        )
        assert sub.parse_subshift(text) == golden_mean

    @pytest.mark.parametrize(
        "payload, path",
        [
            ({"type": "nope"}, "/type"),
            ({"type": "sft", "alphabet": [], "forbidden": []}, "/alphabet"),
            ({"type": "sft", "alphabet": ["ab"], "forbidden": []}, "/alphabet/0"),
            ({"type": "sft", "alphabet": ["0"], "forbidden": ["1"]}, "/forbidden/0"),
            ({"type": "sft", "alphabet": ["0"], "forbidden": [""]}, "/forbidden/0"),
            ({"type": "sft", "alphabet": ["0"], "forbidden": [], "x": 1}, "/x"),
        ],
    )
    def test_malformed_specs_name_the_field(self, payload, path):
        with pytest.raises(sub.SubshiftInputError) as err:
            sub.spec_from_dict(payload)
        assert err.value.path == path

    def test_longer_forbidden_words_raise_the_order(self):
        # states are the live proper prefixes of the forbidden word, so the
        # longest state is one symbol shorter than the longest forbidden word
        spec = sub.SubshiftSpec(alphabet=("0", "1"), forbidden=("101",))
        graph = sub.build_graph(spec)
        assert graph.states == ("", "1", "10")
        assert graph.edges == (
            (("0", 0), ("1", 1)),
            (("0", 2), ("1", 1)),
            (("0", 0),),
        )


class TestCountWords:
    def test_full_shift_powers(self, full_shift):
        for n in range(1, 10):
            assert sub.count_words(full_shift, n) == 2 ** n

    def test_golden_mean_fibonacci(self, golden_mean):
        for n in range(1, 16):
            assert sub.count_words(golden_mean, n) == fib(n + 2)
        for n in range(3, 16):
            assert sub.count_words(golden_mean, n) == sub.count_words(
                golden_mean, n - 1
            ) + sub.count_words(golden_mean, n - 2)

    def test_forbid_01_linear(self, forbid_01):
        for n in range(1, 12):
            assert sub.count_words(forbid_01, n) == n + 1

    def test_against_brute_enumeration(self, golden_mean, forbid_01):
        for spec in (golden_mean, forbid_01):
            for n in range(1, 10):
                expected = oracles.brute_extendable(spec.alphabet, spec.forbidden, n)
                assert sub.enumerate_words(spec, n) == sorted(expected)
                assert sub.count_words(spec, n) == len(expected)

    def test_extendability_matters(self):
        # "1" begins no infinite sequence when every 1 must be final
        spec = sub.SubshiftSpec(alphabet=("0", "1"), forbidden=("10", "11"))
        assert sub.enumerate_words(spec, 1) == ["0"]
        expected = oracles.brute_extendable(spec.alphabet, spec.forbidden, 3)
        assert sub.enumerate_words(spec, 3) == sorted(expected)


class TestEntropy:
    def test_full_shift_exact(self, full_shift):
        for n in range(1, 21):
            assert sub.entropy_estimate(full_shift, n) == pytest.approx(
                math.log(2), abs=1e-12
            )
        assert sub.entropy_spectral(full_shift) == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_golden_mean_spectral(self, golden_mean):
        assert sub.entropy_spectral(golden_mean) == pytest.approx(
            math.log(GOLDEN_RATIO), abs=1e-6
        )

    def test_forbid_01_zero_entropy(self, forbid_01):
        assert sub.entropy_spectral(forbid_01) == pytest.approx(0.0, abs=1e-9)
        assert sub.entropy_estimate(forbid_01, 20) == pytest.approx(
            math.log(21) / 20, abs=1e-12
        )

    def test_estimate_matches_count_exactly(self, golden_mean):
        n = 20
        assert sub.entropy_estimate(golden_mean, n) * n == pytest.approx(
            math.log(sub.count_words(golden_mean, n)), abs=0
        )

    def test_spectral_approaches_estimates(self, full_shift, golden_mean):
        for spec in (full_shift, golden_mean):
            spectral = sub.entropy_spectral(spec, tol=1e-12)
            estimate = sub.entropy_estimate(spec, 20)
            assert abs(estimate - spectral) < 0.05



def random_long_sft(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """2 or 3 letters and 1-3 forbidden words of length 1-5; may be empty."""
    alphabet = rng.choice(["01", "012"])
    forbidden = tuple(sorted({
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3))
    }))
    return alphabet, forbidden


LONG_WORD_INSTANCE = Path(__file__).with_name("sft_forbidden_length16.json")


class TestAutomaton:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_words_match_brute_force(self, seed):
        rng = random.Random(seed)
        alphabet, forbidden = random_long_sft(rng)
        spec = sub.SubshiftSpec(tuple(alphabet), forbidden)
        if not oracles.brute_extendable(alphabet, forbidden, 1):
            with pytest.raises(sub.EmptySubshiftError):
                sub.build_graph(spec)
            return
        graph = sub.build_graph(spec)
        assert len(graph.states) <= 1 + sum(len(w) for w in forbidden)
        # n <= 8 (n <= 5 on three letters, where the oracle is slower); the
        # words of each shorter length are the prefixes of the longest ones
        n_max = 8 if len(alphabet) == 2 else 5
        longest = oracles.brute_extendable(alphabet, forbidden, n_max)
        for n in range(1, n_max + 1):
            expected = sorted({w[:n] for w in longest})
            assert sub.enumerate_words(spec, n) == expected
            assert sub.count_words(spec, n) == len(expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_spectral_entropy_against_dense_reference(self, seed):
        rng = random.Random(seed)
        alphabet, forbidden = random_long_sft(rng)
        if not oracles.brute_extendable(alphabet, forbidden, 1):
            return
        spec = sub.SubshiftSpec(tuple(alphabet), forbidden)
        spectral = sub.entropy_spectral(spec, tol=1e-12)
        # the estimate converges from above
        assert spectral <= sub.entropy_estimate(spec, rng.randint(1, 12)) + 1e-9
        # dense adjacency matrix, one count per edge
        graph = sub.build_graph(spec)
        dense = np.zeros((len(graph.states), len(graph.states)))
        for i, row in enumerate(graph.edges):
            for _, t in row:
                dense[i, t] += 1
        radius = max(abs(np.linalg.eigvals(dense)))
        assert spectral == pytest.approx(math.log(max(radius, 1.0)), abs=1e-7)

    def test_long_forbidden_word_scales(self, capsys):
        # |A|^15 windows would not fit in memory; the automaton has 16 states
        data = json.loads(LONG_WORD_INSTANCE.read_text())
        spec = sub.spec_from_dict(data)
        assert (len(spec.alphabet), [len(w) for w in spec.forbidden]) == (4, [16])
        assert len(sub.build_graph(spec).states) <= 1 + 16
        argv = ["subshift", "entropy", str(LONG_WORD_INSTANCE), "--tol", "1e-12"]
        code = cli.run(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["spectral_converged"] is True
        assert report["spectral"] == pytest.approx(math.log(4), abs=1e-9)


class TestRealizable:
    def test_examples(self, golden_mean, forbid_01):
        assert sub.realizable(golden_mean, [(0, "1"), (2, "1")])
        assert not sub.realizable(golden_mean, [(0, "1"), (1, "1")])
        assert not sub.realizable(forbid_01, [(0, "0"), (2, "1")])

    def test_overlap_conflicts(self, full_shift):
        assert not sub.realizable(full_shift, [(0, "01"), (1, "00")])
        assert sub.realizable(full_shift, [(0, "01"), (1, "10")])

    def test_no_constraints(self, golden_mean):
        assert sub.realizable(golden_mean, [])

    def test_against_brute_oracle(self, golden_mean, forbid_01):
        import random

        rng = random.Random(77)
        for spec in (golden_mean, forbid_01):
            for _ in range(120):
                constraints = []
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randrange(0, 7)
                    length = rng.randint(1, 2)
                    word = "".join(
                        rng.choice(spec.alphabet) for _ in range(length)
                    )
                    constraints.append((pos, word))
                expected = oracles.brute_realizable(
                    spec.alphabet, spec.forbidden, constraints
                )
                assert sub.realizable(spec, constraints) == expected, constraints


class TestIndependence:
    def test_full_shift_any_positions(self, full_shift):
        assert sub.is_independent(full_shift, "0", "1", [0, 1, 2, 5, 7])

    def test_golden_examples(self, golden_mean):
        assert not sub.is_independent(golden_mean, "0", "1", [0, 1])
        assert sub.is_independent(golden_mean, "0", "1", [0, 2])

    def test_forbid_01_two_positions_all_refuted(self, forbid_01):
        for j in range(8):
            for k in range(j + 1, 8):
                assert not sub.is_independent(forbid_01, "0", "1", [j, k])
                assert not oracles.brute_independent(
                    forbid_01.alphabet, forbid_01.forbidden, "0", "1", [j, k]
                )

    def test_against_brute_oracle(self, golden_mean):
        for j in range(5):
            for k in range(j + 1, 6):
                expected = oracles.brute_independent(
                    golden_mean.alphabet, golden_mean.forbidden, "0", "1", [j, k]
                )
                assert sub.is_independent(golden_mean, "0", "1", [j, k]) == expected

    @pytest.mark.parametrize("alphabet, forbidden, u, v, positions", [
        ("01", ("011", "100"), "0", "1", [1, 3, 5]),
        ("01", ("011",), "1", "0", [3, 5, 6]),
        ("012", ("001", "010", "2"), "0", "1", [2, 4, 5]),
    ])
    def test_smaller_of_two_comparable_frontiers_decides(
        self, alphabet, forbidden, u, v, positions
    ):
        # after a slot one branch's states are a proper subset of another's,
        # and only the smaller set dies later; keeping the larger one alone
        # would call these independent
        spec = sub.SubshiftSpec(tuple(alphabet), forbidden)
        assert not oracles.brute_independent(alphabet, forbidden, u, v, positions)
        assert not sub.is_independent(spec, u, v, positions)

    def test_large_gaps_on_both_paths(self, golden_mean, forbid_01):
        # a gap longer than the recursion limit; "0"/"1" take the word/gap
        # tables, and the overlapping "010"/"000" at 0 and 2 the sweep
        far = max(5000, sys.getrecursionlimit() + 200)
        assert sub.is_independent(golden_mean, "0", "1", [0, far])
        assert not sub.is_independent(forbid_01, "0", "1", [0, far])
        assert sub.is_independent(forbid_01, "1", "1", [0, far])
        assert sub.is_independent(golden_mean, "010", "000", [0, 2, far])
        assert not sub.is_independent(golden_mean, "010", "011", [0, 2, far])


class TestStepperTables:
    def test_minimal_keeps_subset_minimal_frontiers(self):
        frontiers = [0b0111, 0b0001, 0b0110, 0b0001, 0b1111, 0b1000]
        assert sub._minimal(frontiers) == (0b0001, 0b0110, 0b1000)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_tables_match_single_steps(self, seed):
        rng = random.Random(seed)
        spec = random_sft(rng)
        step = sub._Stepper(sub.build_graph(spec), spec.alphabet)
        states = len(sub.build_graph(spec).states)
        for _ in range(5):
            frontier = rng.randrange(1, 1 << states)
            word = "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, 4)))
            expected = frontier
            for symbol in word:
                expected = step(expected, symbol)
            assert step.read(frontier, word) == expected
            ks = sorted(rng.sample(range(60), 6), reverse=rng.random() < 0.5)
            for k in ks:
                expected = frontier
                for _ in range(k):
                    expected = step(expected, None)
                assert step.gap(frontier, k) == expected


class TestFindIndependenceSet:
    def test_full_shift_density_one(self, full_shift):
        status, cert = sub.independence_status(full_shift, "0", "1", 8, 1)
        assert status == "certified"
        assert cert.positions == tuple(range(8))
        assert cert.density == Fraction(1)

    def test_horizon_beyond_the_recursion_limit(self, full_shift):
        horizon = sys.getrecursionlimit() + 200
        _, cert = sub.independence_status(full_shift, "0", "1", horizon, 1)
        assert cert.positions == tuple(range(horizon))

    def test_golden_even_positions(self, golden_mean):
        status, cert = sub.independence_status(golden_mean, "0", "1", 8, "0.5")
        assert status == "certified"
        assert cert.positions == (0, 2, 4, 6)
        assert cert.density == Fraction(1, 2)

    def test_forbid_01_none_beyond_singletons(self, forbid_01):
        # any target of two or more positions is exhaustively refuted
        for density in ("0.5", "0.25"):
            status, cert = sub.independence_status(forbid_01, "0", "1", 8, density)
            assert (status, cert) == ("refuted", None)

    def test_certificate_reverifies(self, golden_mean):
        _, cert = sub.independence_status(golden_mean, "0", "1", 8, "0.5")
        for choice in range(2 ** len(cert.positions)):
            constraints = [
                (j, cert.u if choice >> i & 1 else cert.v)
                for i, j in enumerate(cert.positions)
            ]
            assert sub.realizable(golden_mean, constraints)

    def test_tampered_certificate_rejected(self, golden_mean):
        with pytest.raises(ValueError, match="does not verify"):
            sub.IndependenceCertificate(
                spec=golden_mean, u="0", v="1", horizon=8, positions=(0, 1)
            )

    def test_golden_mean_refutations_follow_the_closed_form(self, golden_mean):
        # at most every other slot is independent, so density 3/5 is refuted
        # once ceil(3H/5) > ceil(H/2); the lexicographic search then tests
        # 2^(H - target + 2) - 2 candidates, counted in full even where the
        # memo of failed subtrees skips them
        for horizon in range(1, 61):
            target = math.ceil(Fraction(3, 5) * horizon)
            if target <= math.ceil(horizon / 2):
                continue
            nodes = 2 ** (horizon - target + 2) - 2
            assert sub.independence_status(
                golden_mean, "0", "1", horizon, "3/5", node_budget=nodes
            ) == ("refuted", None), horizon
            assert sub.independence_status(
                golden_mean, "0", "1", horizon, "3/5", node_budget=nodes - 1
            ) == ("unknown", None), horizon

    def test_node_budget_reports_unknown(self, golden_mean):
        status, cert = sub.independence_status(
            golden_mean, "0", "1", 8, "0.5", node_budget=1
        )
        assert status == "unknown"
        assert cert is None


class TestIERelation:
    def test_full_shift_all_four_pairs(self, full_shift):
        lower, upper = sub.ie_relation(full_shift, 1, 8, 1)
        assert lower.pair_count == 4
        assert upper.pair_count == 4

    def test_forbid_01_upper_excludes_mixed_pairs(self, forbid_01):
        lower, upper = sub.ie_relation(forbid_01, 1, 8, "0.5")
        assert not upper.has("0", "1")
        assert not upper.has("1", "0")
        assert upper.has("0", "0")
        assert upper.has("1", "1")

    def test_lower_contained_in_upper(self, golden_mean, full_shift, forbid_01):
        for spec in (golden_mean, full_shift, forbid_01):
            for n in (1, 2):
                lower, upper = sub.ie_relation(spec, n, 6, "0.5")
                assert RelationDomain(lower.space).leq(lower, upper)

    def test_symmetric(self, golden_mean):
        lower, upper = sub.ie_relation(golden_mean, 2, 8, "0.5")
        for r in (lower, upper):
            for u, v in r.pairs():
                assert r.has(v, u)

    def test_monotone_evidence_in_horizon(self, golden_mean, full_shift, forbid_01):
        """Growing the horizon never shrinks lower and never grows upper."""
        for spec in (golden_mean, full_shift, forbid_01):
            previous = None
            for horizon in (4, 6, 8):
                lower, upper = sub.ie_relation(spec, 1, horizon, "0.5")
                if previous is not None:
                    prev_lower, prev_upper = previous
                    domain = RelationDomain(lower.space)
                    assert domain.leq(prev_lower, lower)
                    assert domain.leq(upper, prev_upper)
                previous = (lower, upper)


class TestEntropyRankReport:
    def test_full_shift_consistent(self, full_shift):
        report = sub.entropy_rank_report(full_shift, 2, 8, 1, 16)
        assert report.verdict == sub.VERDICT_CONSISTENT
        for level in report.levels:
            assert level.lower_reach_top and level.upper_reach_top
            assert format_ordinal(level.stabilization_stage) == "1"

    def test_golden_mean_consistent(self, golden_mean):
        report = sub.entropy_rank_report(golden_mean, 2, 8, "0.5", 16)
        assert report.verdict == sub.VERDICT_CONSISTENT
        assert all(
            level.stabilization_stage == ONE for level in report.levels
        )

    def test_forbid_01_certified_not_cpe(self, forbid_01):
        report = sub.entropy_rank_report(forbid_01, 2, 8, "0.5", 16)
        assert report.verdict == sub.VERDICT_NOT_CPE
        assert report.levels[0].upper_reach_top is False

    def test_diagonal_pairs_flagged(self, golden_mean):
        report = sub.entropy_rank_report(golden_mean, 1, 8, "0.5", 16)
        assert report.levels[0].diagonal_certified == ("0", "1")

    def test_budget_exhaustion_indeterminate(self, golden_mean):
        report = sub.entropy_rank_report(golden_mean, 1, 8, "0.5", 1)
        assert report.verdict == sub.VERDICT_INDETERMINATE
        assert report.levels[0].budget_exhausted

    def test_parameters_ride_along(self, golden_mean):
        report = sub.entropy_rank_report(golden_mean, 2, 8, "0.5", 16)
        assert (report.n_max, report.horizon, report.budget) == (2, 8, 16)
        assert report.density == Fraction(1, 2)


# -- cross-check against the brute-force oracles on random SFTs ----------------


def random_sft(rng: random.Random) -> sub.SubshiftSpec:
    """A non-empty SFT on 2 or 3 letters with 1-3 forbidden words of length 1-3."""
    alphabet = rng.choice(["01", "012"])
    while True:
        forbidden = tuple(sorted({
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        }))
        if oracles.brute_extendable(alphabet, forbidden, 1):
            return sub.SubshiftSpec(tuple(alphabet), forbidden)


def random_word_pair(rng: random.Random, spec, length: int) -> tuple[str, str]:
    """Two words of one length, each usually occurring in the space."""
    occurring = oracles.brute_extendable(spec.alphabet, spec.forbidden, length)

    def word():
        if occurring and rng.random() < 0.75:
            return rng.choice(occurring)
        return "".join(rng.choice(spec.alphabet) for _ in range(length))

    return word(), word()


def brute_slots(spec, u, v, horizon):
    """Independence of a set of anchor slots, by brute force."""
    stride = len(u)
    texts = oracles.brute_extendable(spec.alphabet, spec.forbidden, horizon * stride)

    def independent(slots):
        need = set(product((u, v), repeat=len(slots)))
        seen = {tuple(t[j * stride:(j + 1) * stride] for j in slots) for t in texts}
        return need <= seen

    return independent


def reference_search(horizon, target, independent):
    """The slot search in the library's branch order, without memo, deciding
    each candidate slot set with `independent`; returns (slots found or
    None, candidates tested)."""
    nodes = 0

    def extend(start, chosen):
        nonlocal nodes
        if len(chosen) >= target:
            return tuple(chosen)
        for j in range(start, horizon):
            if len(chosen) + (horizon - j) < target:
                break
            nodes += 1
            if independent(chosen + [j]):
                found = extend(j + 1, chosen + [j])
                if found is not None:
                    return found
        return None

    return extend(0, []), nodes


class TestOracleCrossCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_is_independent_matches_brute_force(self, seed):
        rng = random.Random(seed)
        spec = random_sft(rng)
        u, v = random_word_pair(rng, spec, rng.randint(1, 2))
        # unsorted, repeated and (for two-letter words) overlapping positions
        positions = [rng.randrange(6) for _ in range(rng.randint(1, 4))]
        expected = oracles.brute_independent(
            spec.alphabet, spec.forbidden, u, v, positions
        )
        assert sub.is_independent(spec, u, v, positions) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_independence_status_matches_slot_search(self, seed):
        rng = random.Random(seed)
        spec = random_sft(rng)
        u, v = random_word_pair(rng, spec, rng.randint(1, 2))
        horizon = rng.randint(1, 6 // len(u))
        density = rng.choice(["1/3", "1/2", "2/3", "1"])
        target = max(1, math.ceil(Fraction(density) * horizon))
        found, nodes = reference_search(
            horizon, target, brute_slots(spec, u, v, horizon)
        )
        status, cert = sub.independence_status(spec, u, v, horizon, density)
        assert status == ("refuted" if found is None else "certified")
        assert (cert and cert.positions) == found
        for node_budget in (1, 2, 3):
            limited, _ = sub.independence_status(
                spec, u, v, horizon, density, node_budget=node_budget
            )
            assert limited == ("unknown" if nodes > node_budget else status)

    @pytest.mark.parametrize("overlap", [False, True])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10 ** 9))
    def test_both_independence_paths_match_brute_force(self, overlap, seed):
        # positions at least len(u) apart take the word/gap tables, others
        # the sweep; draw each kind on purpose
        rng = random.Random(seed)
        spec = random_sft(rng)
        length = rng.randint(2, 3) if overlap else rng.randint(1, 3)
        u, v = random_word_pair(rng, spec, length)
        positions = [rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3)):
            step = rng.randint(1, length - 1) if overlap else rng.randint(length, 4)
            positions.append(positions[-1] + step)
        positions = [p for p in positions if p + length <= 8]
        assert overlap == any(k - j < length for j, k in zip(positions, positions[1:]))
        rng.shuffle(positions)
        expected = oracles.brute_independent(
            spec.alphabet, spec.forbidden, u, v, positions
        )
        assert sub.is_independent(spec, u, v, positions) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_memoized_search_counts_every_candidate(self, seed):
        # longer horizons than the brute-force search reaches, where the
        # memo of failed subtrees skips work; its node counts must be those
        # of the plain search
        rng = random.Random(seed)
        spec = random_sft(rng)
        u, v = random_word_pair(rng, spec, rng.randint(1, 2))
        stride = len(u)
        horizon = rng.randint(4, 14 // stride)
        density = rng.choice(["1/3", "1/2", "3/5", "2/3", "3/4"])
        target = max(1, math.ceil(Fraction(density) * horizon))

        def independent(slots):
            return sub.is_independent(spec, u, v, [j * stride for j in slots])

        found, nodes = reference_search(horizon, target, independent)
        status, cert = sub.independence_status(spec, u, v, horizon, density)
        assert (cert and cert.positions) == found
        assert sub.independence_status(
            spec, u, v, horizon, density, node_budget=nodes
        ) == (status, cert)
        assert sub.independence_status(
            spec, u, v, horizon, density, node_budget=nodes - 1
        ) == ("unknown", None)
