"""The benchmark workloads: seeded inputs, the timed op, output checks.

Every workload follows a fixed schedule of size classes, and each slot of
the schedule draws a fresh random instance of its class from the seed.  The
schedule keeps the mix of cheap and costly ops the same from seed to seed,
so a run's throughput and percentiles describe the workload and not the luck
of one draw; the instances themselves differ with the seed.

Checks run outside the timed region and answer from the tests' brute-force
oracles or from invariants, without calling the library (the comparison of
a CLI process with `cli.run` is the one exception), so a traced run records
only the work of the ops.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


ALPHABETS = {2: "01", 3: "012", 4: "0123"}


def random_word(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def has_periodic_point(alphabet: str, forbidden) -> bool:
    """Some sequence of period <= 4 avoids every forbidden word, so the
    subshift is non-empty.  Sufficient, not necessary: inputs failing it are
    redrawn, which removes no non-empty class the schedule asks for."""
    longest = max([len(w) for w in forbidden] + [1])
    for period in range(1, 5):
        for block in product(alphabet, repeat=period):
            text = "".join(block) * (longest // period + 2)
            if not any(w in text for w in forbidden):
                return True
    return False


def components(cells, pairs) -> tuple[tuple[int, ...], int]:
    """Bitmask of each cell's connected component, by graph search, and
    the number of components: the equivalence closure, found without
    union-find."""
    index = {c: i for i, c in enumerate(cells)}
    adjacent = [[] for _ in cells]
    for u, v in pairs:
        adjacent[index[u]].append(index[v])
        adjacent[index[v]].append(index[u])
    mask = [0] * len(cells)
    count = 0
    for start in range(len(cells)):
        if mask[start]:
            continue
        count += 1
        members, todo = {start}, [start]
        while todo:
            for nxt in adjacent[todo.pop()]:
                if nxt not in members:
                    members.add(nxt)
                    todo.append(nxt)
        bits = sum(1 << j for j in members)
        for j in members:
            mask[j] = bits
    return tuple(mask), count


# ordinal-eval draws terms from this vocabulary: (text, exponent, coefficient),
# with exponent None standing for w
TERMS = (("w", 1, 1), ("w^2", 2, 1), ("w^3*2", 3, 2), ("w^w", None, 1),
         ("3", 0, 3), ("w^2*4", 2, 4))


def canonical(expression: str) -> str:
    """Cantor normal form of a sum of TERMS: a term absorbs every smaller
    term to its left, and equal exponents add their coefficients."""
    rank = {text: (math.inf if e is None else e, e, c) for text, e, c in TERMS}
    out: list[list] = []
    for text in expression.split("+"):
        order, exponent, coefficient = rank[text]
        while out and out[-1][0] < order:
            out.pop()
        if out and out[-1][0] == order:
            out[-1][2] += coefficient
        else:
            out.append([order, exponent, coefficient])
    parts = []
    for _, exponent, coefficient in out:
        if exponent == 0:
            parts.append(str(coefficient))
            continue
        head = "w" if exponent == 1 else f"w^{'w' if exponent is None else exponent}"
        parts.append(head if coefficient == 1 else f"{head}*{coefficient}")
    return "+".join(parts)


class Workload:
    """Base class: `slot(i, rng)` builds the i-th input, `run` is the timed
    op, `check` validates its output, `series` names the size class."""

    name = ""
    expected_calls: tuple[str, ...] = ()

    def __init__(self, root: str, seed: int, oracles, workdir: str):
        self.root = root
        self.seed = seed
        self.oracles = oracles
        self.workdir = workdir
        # ordrank is imported only here, so that a missing library fails the
        # worker's set-up, never an op
        from ordrank import cli, subshift

        self.cli = cli
        self.subshift = subshift
        self.extendable = lru_cache(maxsize=None)(oracles.brute_extendable)
        # brute_realizable looks brute_extendable up in its module globals
        oracles.brute_extendable = self.extendable

    def stream(self, label: str):
        rng = random.Random(f"{self.name}:{self.seed}:{label}")
        i = 0
        while True:
            yield self.slot(i, rng)
            i += 1

    def slot(self, i: int, rng: random.Random):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def series(self, inp, out) -> str | None:
        return None

    def warm_up(self) -> None:
        stream = self.stream("warm-up")
        for _ in range(2):
            inp = next(stream)
            self.check(inp, self.run(inp))


# -- sft-evidence ---------------------------------------------------------------


class SftEvidence(Workload):
    """entropy_rank_report on small random SFTs: the independence search."""

    name = "sft-evidence"
    expected_calls = (
        "subshift.build_graph",
        "subshift.enumerate_words",
        "subshift.realizable",
        "subshift.is_independent",
        "subshift.independence_status",
        "subshift.entropy_rank_report",
        "relations.from_pairs",
        "relations.equiv_closure",
        "relations.gamma_tower_iterate",
        "engine.iterate_steps",
    )
    # One block per (horizon, density): random SFTs of fixed classes
    # (letters, number of extendable 2-words), then the 2-letter full shift
    # at H=8 and density 1.  The search cost grows with the number of word
    # pairs, so fixing the classes fixes the mix.  The full-shift reference
    # op recurs in every block, which puts a dense, seed-independent mass
    # of ops near the 90th percentile and keeps op_p90_ms steady; (2, 4) is
    # drawn twice per block, which kept the median among dense mid-cost ops
    # in trial runs.
    BLOCK = ((2, 3), (2, 4), (2, 4), (3, 4), (3, 8), None)
    PARAMS = tuple(
        (h, d) for h in (8, 10, 12) for d in (Fraction(1, 2), Fraction(2, 3))
    )

    def slot(self, i, rng):
        block, k = divmod(i, len(self.BLOCK))
        if self.BLOCK[k] is None:
            return {"alphabet": "01", "forbidden": (), "horizon": 8,
                    "density": Fraction(1), "full_shift": True}
        horizon, density = self.PARAMS[block % len(self.PARAMS)]
        letters, words2 = self.BLOCK[k]
        alphabet = ALPHABETS[letters]
        while True:
            forbidden = tuple(sorted({
                random_word(rng, alphabet, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            }))
            if len(self.extendable(alphabet, forbidden, 2)) == words2:
                break
        return {"alphabet": alphabet, "forbidden": forbidden, "horizon": horizon,
                "density": density, "full_shift": False}

    def run(self, inp):
        spec = self.subshift.SubshiftSpec(tuple(inp["alphabet"]), inp["forbidden"])
        return self.subshift.entropy_rank_report(
            spec, 2, inp["horizon"], inp["density"], 16
        )

    def series(self, inp, out):
        return f"H{inp['horizon']}"

    def check(self, inp, report):
        alphabet, forbidden = inp["alphabet"], inp["forbidden"]
        sub = self.subshift
        expect(len(report.levels) == 2, "expected levels n=1 and n=2")
        for n, level in enumerate(report.levels, start=1):
            words = self.extendable(alphabet, forbidden, n)
            expect(level.n == n, "levels out of order")
            expect(level.cells == len(words), f"level {n}: cell count")
            expect(set(level.diagonal_certified) <= set(words), "unknown word")
            expect(not level.budget_exhausted, "gamma budget of 16 exhausted")
            # without a node budget nothing is unknown, so lower == upper
            expect(level.lower_reach_top is not None, "missing verdict")
            expect(level.lower_reach_top == level.upper_reach_top,
                   f"level {n}: lower and upper evidence differ")
        tops = [lv.upper_reach_top for lv in report.levels]
        if False in tops:
            want = sub.VERDICT_NOT_CPE
        elif all(tops):
            want = sub.VERDICT_CONSISTENT
        else:
            want = sub.VERDICT_INDETERMINATE
        expect(report.verdict == want, f"verdict {report.verdict!r}")
        if inp["full_shift"]:
            expect(report.verdict == sub.VERDICT_CONSISTENT, "full shift is CPE")
            for level in report.levels:
                expect(level.cells == 2 ** level.n, "full shift cell count")
                expect(len(level.diagonal_certified) == level.cells,
                       "full shift: every word is self-independent")
        elif len(alphabet) == 2 and inp["horizon"] == 8:
            self._oracle_level1(inp, report.levels[0])

    def _oracle_level1(self, inp, level):
        """Level-1 statuses by brute force over the extendable words of
        length H: a pair is certified iff some `target` slots admit every
        u/v pattern."""
        alphabet, forbidden = inp["alphabet"], inp["forbidden"]
        horizon = inp["horizon"]
        target = max(1, math.ceil(inp["density"] * horizon))
        texts = self.extendable(alphabet, forbidden, horizon)
        letters = self.extendable(alphabet, forbidden, 1)
        certified = {}
        for u, v in combinations_with_replacement(letters, 2):
            need = set(product((u, v), repeat=target))
            certified[(u, v)] = next(
                (slots for slots in combinations(range(horizon), target)
                 if need <= {tuple(t[j] for j in slots) for t in texts}),
                None,
            )
        diagonal = [a for a in letters if certified.get((a, a)) is not None]
        expect(list(level.diagonal_certified) == diagonal, "level 1 diagonal")
        off = [(u, v) for (u, v), s in certified.items() if u != v and s is not None]
        for u, v in off[:1]:
            expect(self.oracles.brute_independent(
                alphabet, forbidden, u, v, certified[(u, v)]), "oracle witness")
        closure = self.oracles.warshall_closure(letters, off)
        if len(closure) == len(letters) ** 2:
            expect(level.lower_reach_top is True, "level 1 must reach top")
        if level.upper_reach_top is False:
            expect(len(closure) < len(letters) ** 2, "unsound not-CPE level")


# -- cli-commands -----------------------------------------------------------------


class CliCommands(Workload):
    """Every subcommand, served by `cli.run` in this process on generated
    instance files.  Process start and import are set-up, and so reported
    as setup_s; a traced run also times whole `python -m ordrank.cli`
    processes."""

    name = "cli-commands"
    expected_calls = (
        "ordinals.parse_ordinal",
        "ordinals.format_ordinal",
        "engine.rank_closed_form",
        "engine.iterate_steps",
        "cbspaces.cb_derivative",
        "cbspaces.succ_expansion",
        "relations.from_pairs",
        "relations.equiv_closure",
        "certificates.make_certificate",
        "certificates.verify_lower_bound",
        "certificates.verify_exact_rank",
        "cli.run",
        "cli.load_instance",
        "cli.emit_report",
        "subshift.build_graph",
        "subshift.count_words",
        "subshift.entropy_spectral",
        "subshift.independence_status",
        "subshift.entropy_rank_report",
    )
    KINDS = ("ordinal-eval", "rank-closed", "rank-budget", "gamma", "entropy",
             "words", "ie", "cpe-report", "cert-make", "cert-verify", "invalid")
    # `gamma` runs on relations of these sizes, with n/2 to 2n pairs: the
    # relations layer at the sizes where closure costs more than parsing
    GAMMA_CELLS = (100, 200, 400)
    # `entropy` runs on SFTs of these classes, (letters, length of the
    # longest forbidden word): a cold build_graph and the dense power
    # iteration on |A|^(length-1) window states, 128 to 2,187
    PRESENTATIONS = ((2, 8), (2, 10), (2, 11), (2, 12), (3, 6), (3, 7), (3, 8),
                     (4, 5), (4, 6))
    TIMEOUT_S = 60

    def __init__(self, root, seed, oracles, workdir):
        super().__init__(root, seed, oracles, workdir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.files = 0
        self.last_make: dict[int, dict] = {}  # latest cert-make input, by stream

    def _write(self, payload) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    @staticmethod
    def _gamma(rng, lead: int) -> str:
        """An ordinal string with leading exponent `lead`."""
        head = "w" if lead == 1 else f"w^{lead}"
        if rng.random() < 0.5:
            head += f"*{rng.randint(2, 9)}"
        tail = [f"w^{e}" if e > 1 else "w" for e in range(lead - 1, 0, -1)
                if rng.random() < 0.5]
        tail.append(str(rng.randint(1, 9)))
        return "+".join([head] + tail)

    def _small_sft(self, rng) -> tuple[str, tuple[str, ...]]:
        alphabet = ALPHABETS[rng.choice((2, 3))]
        while True:
            forbidden = tuple(sorted({random_word(rng, alphabet, rng.randint(2, 3))
                                      for _ in range(rng.randint(1, 2))}))
            if self.extendable(alphabet, forbidden, 1):
                return alphabet, forbidden

    @staticmethod
    def _presentation(rng, letters: int, longest: int) -> tuple[str, tuple[str, ...]]:
        alphabet = ALPHABETS[letters]
        while True:
            # all words are long, so the window graph keeps nearly all of its
            # |A|^(longest-1) states and each class has a steady size
            forbidden = {random_word(rng, alphabet, longest)}
            for _ in range(rng.randint(0, 2)):
                forbidden.add(random_word(rng, alphabet, rng.randint(longest - 2, longest)))
            forbidden = tuple(sorted(forbidden))
            if has_periodic_point(alphabet, forbidden):
                return alphabet, forbidden

    def slot(self, i, rng):
        cycle, k = divmod(i, len(self.KINDS))
        kind = self.KINDS[k]
        inp = {"kind": kind, "expect": (0,)}
        if kind == "ordinal-eval":
            terms = [rng.choice(TERMS)[0] for _ in range(rng.randint(2, 5))]
            inp["argv"] = ["ordinal", "eval", "+".join(terms)]
        elif kind in ("rank-closed", "rank-budget"):
            lead = rng.randint(1, 6)
            path = self._write({"type": "ordinal_space", "gamma": self._gamma(rng, lead)})
            inp["argv"] = ["rank", path]
            inp["cb_rank"] = lead + 1
            if kind == "rank-budget":
                budget = rng.randint(1, lead + 4)
                inp["argv"] += ["--budget", str(budget)]
                # the stage after the rank must be seen to equal it
                inp["expect"] = (0,) if budget >= lead + 2 else (2,)
                inp["budget"] = budget
        elif kind == "gamma":
            n = self.GAMMA_CELLS[cycle % len(self.GAMMA_CELLS)]
            points = [f"p{j}" for j in range(n)]
            pairs = [[rng.choice(points), rng.choice(points)]
                     for _ in range(rng.randint(n // 2, 2 * n))]
            inp["points"], inp["pairs"] = points, pairs
            inp["argv"] = ["gamma", self._write(
                {"type": "finite_relation", "points": points, "pairs": pairs})]
        elif kind == "entropy":
            letters, longest = self.PRESENTATIONS[cycle % len(self.PRESENTATIONS)]
            inp["alphabet"], inp["forbidden"] = self._presentation(rng, letters, longest)
            inp["states"] = letters ** (longest - 1)
            inp["argv"] = ["subshift", "entropy", self._write(
                {"type": "sft", "alphabet": list(inp["alphabet"]),
                 "forbidden": list(inp["forbidden"])}), "--n", "32"]
            inp["expect"] = (0, 2)  # 2: power iteration missed the tolerance
        elif kind in ("words", "ie", "cpe-report"):
            alphabet, forbidden = self._small_sft(rng)
            inp["alphabet"], inp["forbidden"] = alphabet, forbidden
            path = self._write({"type": "sft", "alphabet": list(alphabet),
                                "forbidden": list(forbidden)})
            inp["argv"] = {
                "words": ["subshift", "words", path, "--n", "6"],
                "ie": ["subshift", "ie", path, "--n", "1", "--horizon", "6"],
                "cpe-report": ["subshift", "cpe-report", path, "--horizon", "6"],
            }[kind]
            if kind == "cpe-report":
                inp["expect"] = (0, 1, 2)
        elif kind == "cert-make":
            lead = rng.randint(1, 5)
            gamma = self._gamma(rng, lead)
            # succ-expansion from [0, 1] needs `lead` steps to reach w^lead,
            # and one more because gamma always has a finite tail above it
            rank = lead + 1
            exact = cycle % 2 == 1
            k = rank if exact else rng.randint(1, rank)
            inp["argv"] = ["cert", "make", self._write(
                {"type": "ordinal_space", "gamma": gamma}),
                "-k", str(k), "--mode", "S" if exact else "R"]
            inp["k"] = k
            self.last_make[id(rng)] = inp
        elif kind == "cert-verify":
            # verifies the certificate that this stream's cert-make printed
            inp["made_by"] = self.last_make[id(rng)]
            inp["argv"] = ["cert", "verify", self._write({})]
        else:
            inp["argv"] = ["rank", self._write(rng.choice([
                {"type": "ordinal_space", "gamma": "w^^2"},
                {"type": "ordinal_space", "gamma": "w+", "extra": 1},
                {"type": "finite_relation", "points": ["a"], "pairs": [["a", "b"]]},
                {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["2"]},
                {"type": "no_such_type"},
            ]))]
            inp["expect"] = (3,)
        return inp

    def _prepare(self, inp) -> None:
        if inp["kind"] == "cert-verify":
            with open(inp["argv"][2], "w", encoding="utf-8") as fh:
                fh.write(inp["made_by"].get("made", ""))

    def _record(self, inp, code, text, process):
        if inp["kind"] == "cert-make":
            inp["made"] = text
        return {"code": code, "stdout": text, "process": process}

    def run(self, inp):
        self._prepare(inp)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.run(list(inp["argv"]))
        return self._record(inp, code, buffer.getvalue(), False)

    def run_process(self, inp):
        """The same command as one `python -m ordrank.cli` process."""
        self._prepare(inp)
        proc = subprocess.run(
            [sys.executable, "-m", "ordrank.cli"] + inp["argv"],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            timeout=self.TIMEOUT_S, check=False,
        )
        return self._record(inp, proc.returncode, proc.stdout.decode("utf-8"), True)

    def series(self, inp, out):
        if inp["kind"] == "gamma":
            return f"cells{len(inp['points'])}"
        if inp["kind"] == "entropy":
            states = inp["states"]
            if states < 512:
                return "states_lt512"
            return "states_512to1535" if states < 1536 else "states_ge1536"
        return None

    def check(self, inp, out):
        kind, code = inp["kind"], out["code"]
        if out["process"]:
            # a process's report must be byte-identical to cli.run's; only
            # traced runs start processes, after their tracer is removed
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                same = self.cli.run(list(inp["argv"]))
            expect((same, buffer.getvalue()) == (code, out["stdout"]),
                   "process output differs from cli.run on the same argv")
        expect(code in inp["expect"], f"{kind}: exit code {code}")
        report = json.loads(out["stdout"])
        if kind == "invalid":
            expect(report["error"]["kind"] == "input", "invalid input not reported")
        elif kind == "ordinal-eval":
            expect(report["canonical"] == canonical(inp["argv"][2]), "canonical form")
        elif kind == "rank-closed":
            expect(report["verified"] is True, "closed form not verified")
            expect(report["rank"] == str(inp["cb_rank"]), "Cantor-Bendixson rank")
        elif kind == "rank-budget":
            if code == 0:
                expect(report["rank"] == str(inp["cb_rank"]), "step-mode rank")
            else:
                expect(report["rank_is_lower_bound"] is True, "lower bound flag")
                expect(report["rank"] == str(inp["budget"]), "lower bound value")
        elif kind == "gamma":
            points, pairs = inp["points"], inp["pairs"]
            closure, classes = components(points, pairs)
            closed = sum(bin(row).count("1") for row in closure)
            # the pairs lie in their closure, so equal counts mean equal sets
            already = len({tuple(p) for p in pairs}) == closed
            expect(report["rank"] == ("0" if already else "1"), "gamma rank")
            expect(report["reaches_all_pairs"] == (classes == 1), "gamma top")
            expect(report["stages"][-1]["pairs"] == closed, "pair count of the closure")
        elif kind == "entropy":
            bound = math.log(len(inp["alphabet"])) + 1e-9
            expect(0.0 <= report["estimate"] <= bound, "estimate above log|A|")
            expect(report["spectral_converged"] is (code == 0), "converged flag")
            if code == 0:
                # log(count(n))/n bounds the entropy from above for every n
                expect(0.0 <= report["spectral"] <= min(bound, report["estimate"] + 1e-9),
                       "spectral entropy above its bounds")
        elif kind == "words":
            count = len(self.extendable(inp["alphabet"], inp["forbidden"], 6))
            expect(report["count"] == count, "word count differs from the oracle")
        elif kind == "ie":
            expect(report["lower"] == report["upper"], "no budget, so lower == upper")
            for cert in report["certified"][:2]:
                u, v = cert["pair"]
                expect(self.oracles.brute_independent(
                    inp["alphabet"], inp["forbidden"], u, v, cert["shift_positions"]),
                    "certificate rejected by the oracle")
        elif kind == "cpe-report":
            verdict = report["verdict"]
            want = {"CPE-consistent at evidence": 0,
                    "certified not CPE at evidence": 1}.get(verdict, 2)
            expect(code == want, "exit code does not match the verdict")
        elif kind == "cert-make":
            expect(len(report["order"]["order"]) == inp["k"], "certificate size")
        elif kind == "cert-verify":
            expect(report["accepted"] is True, "made certificate not accepted")


WORKLOADS = {w.name: w for w in (SftEvidence, CliCommands)}
