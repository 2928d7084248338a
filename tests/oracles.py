"""Independent oracles the test suite checks the library against.

Nothing here imports the library's algorithms.  Ordinals below w^4 are
4-tuples of coefficients with addition computed from the definitional
recursion (x + 0 = x, x + succ y = succ (x + y), x + limit = sup over the
fundamental sequence) and sups detected by growth-pattern inspection.
Subshift questions are answered by enumerating all admissible strings.
Relation closures are answered by Floyd-Warshall and by explicit path
enumeration over pair sets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

# -- ordinals below w^4 as coefficient 4-tuples ----------------------------

Vec = tuple[int, int, int, int]  # coefficients of w^3, w^2, w, 1

V_ZERO: Vec = (0, 0, 0, 0)


def v_cmp(a: Vec, b: Vec) -> int:
    return (a > b) - (a < b)


def v_sup(seq: list[Vec]) -> Vec:
    """Sup of a strictly increasing sequence growing in one coordinate."""
    first = seq[0]
    grow = None
    for j in range(4):
        if any(v[j] != first[j] for v in seq):
            grow = j
            break
    if grow is None:
        raise AssertionError("sup of a constant sequence")
    for prev, nxt in zip(seq, seq[1:]):
        assert prev[:grow] == nxt[:grow], "prefix changed under the sup"
        assert nxt[grow] > prev[grow], "growth coordinate is not increasing"
    if grow == 0:
        raise OverflowError("sup reaches w^4")
    out = list(first[:grow]) + [0] * (4 - grow)
    out[grow - 1] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def v_add(x: Vec, y: Vec) -> Vec:
    if y == V_ZERO:
        return x
    a, b, c, d = y
    if d > 0:
        base = v_add(x, (a, b, c, 0))
        return (base[0], base[1], base[2], base[3] + d)
    if c > 0:
        s = v_add(x, (a, b, c - 1, 0))
        return v_sup([(s[0], s[1], s[2], s[3] + n) for n in range(1, 8)])
    if b > 0:
        return v_sup([v_add(x, (a, b - 1, n, 0)) for n in range(1, 8)])
    return v_sup([v_add(x, (a - 1, n, 0, 0)) for n in range(1, 8)])


def v_mul_nat(x: Vec, n: int) -> Vec:
    acc = V_ZERO
    for _ in range(n):
        acc = v_add(acc, x)
    return acc


def v_mul_omega(x: Vec) -> Vec:
    if x == V_ZERO:
        return V_ZERO
    return v_sup([v_mul_nat(x, n) for n in range(1, 8)])


def all_vecs(max_coeff: int) -> list[Vec]:
    """Every vector below w^3 with coefficients <= max_coeff."""
    rng = range(max_coeff + 1)
    return [(0, b, c, d) for b, c, d in product(rng, rng, rng)]


# -- brute-force subshift oracle -------------------------------------------


def brute_admissible(alphabet, forbidden, n: int) -> list[str]:
    return [
        w
        for w in ("".join(t) for t in product(alphabet, repeat=n))
        if not any(bad in w for bad in forbidden)
    ]


@lru_cache(maxsize=256)
def brute_extendable(alphabet, forbidden, n: int) -> list[str]:
    """Length-n words occurring in infinite admissible sequences (cached:
    callers must not mutate the list).

    A word extends to infinity iff it extends by enough symbols to force a
    repeated window (pigeonhole on the set of admissible windows): with W
    admissible m-windows, W + m more symbols give even the empty word
    W + 1 windows.
    """
    m = max([len(w) for w in forbidden] + [2]) - 1
    slack = len(brute_admissible(alphabet, forbidden, m)) + m

    def extends(word: str, remaining: int) -> bool:
        if remaining == 0:
            return True
        return any(
            extends((word + symbol)[-(m + 1):], remaining - 1)
            for symbol in alphabet
            if not any(bad in word + symbol for bad in forbidden)
        )

    return [w for w in brute_admissible(alphabet, forbidden, n) if extends(w, slack)]


def brute_realizable(alphabet, forbidden, constraints) -> bool:
    """Cylinder non-emptiness by exhaustive enumeration."""
    assigned: dict[int, str] = {}
    for position, word in constraints:
        for offset, symbol in enumerate(word):
            at = position + offset
            if assigned.get(at, symbol) != symbol:
                return False
            assigned[at] = symbol
    if not assigned:
        return True
    length = max(assigned) + 1
    for w in brute_extendable(alphabet, forbidden, length):
        if all(w[i] == symbol for i, symbol in assigned.items()):
            return True
    return False


def brute_independent(alphabet, forbidden, u, v, positions) -> bool:
    jset = sorted(set(positions))
    for choice in product((u, v), repeat=len(jset)):
        if not brute_realizable(alphabet, forbidden, list(zip(jset, choice))):
            return False
    return True


# -- relation oracles over pair sets ---------------------------------------


def warshall_closure(cells, pairs) -> set[tuple[str, str]]:
    """Reflexive-symmetric-transitive closure by Floyd-Warshall."""
    reach = {(u, u) for u in cells}
    for u, v in pairs:
        reach.add((u, v))
        reach.add((v, u))
    for k in cells:
        for i in cells:
            for j in cells:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    return reach


def exact_paths(cells, pairs, n: int) -> set[tuple[str, str]]:
    """Pairs joined by a walk of exactly n steps, by explicit enumeration."""
    succ = {u: [] for u in cells}
    for u, v in pairs:
        succ[u].append(v)
    frontier = {(u, u) for u in cells}
    for _ in range(n):
        frontier = {(s, t) for s, mid in frontier for t in succ[mid]}
    return frontier


def brute_equiv_iterates(points, pairs, max_steps: int = 20):
    """Stages of the equivalence-closure iteration on a raw pair set.

    Computed without union-find: symmetrize and reflexivize, then compose
    until nothing changes; yields the stage sets [E, gamma(E), ...].
    """

    def one_step(rel: frozenset) -> frozenset:
        base = set(rel)
        base.update((v, u) for u, v in rel)
        base.update((p, p) for p in points)
        while True:
            grown = set(base)
            for a, b in base:
                for c, d in base:
                    if b == c:
                        grown.add((a, d))
            if grown == base:
                return frozenset(base)
            base = grown

    stages = [frozenset(pairs)]
    for _ in range(max_steps):
        nxt = one_step(stages[-1])
        stages.append(nxt)
        if nxt == stages[-2]:
            break
    return stages
