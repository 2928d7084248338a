import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ordrank.ordinals import (
    MAX_TOWER_HEIGHT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalDomainError,
    OrdinalFormatError,
    OrdinalSyntaxError,
    add,
    cmp,
    format_ordinal,
    from_int,
    is_limit,
    leading_exponent,
    least_exponent,
    left_difference,
    mul_omega,
    omega_log_ceiling,
    omega_power,
    parse_ordinal,
    predecessor,
    pretty,
    succ,
)


def vec_of(x: Ordinal) -> oracles.Vec:
    out = [0, 0, 0, 0]
    for exponent, coefficient in x.terms:
        e = exponent.to_int()
        assert e <= 3
        out[3 - e] = coefficient
    return tuple(out)


def ord_of(v: oracles.Vec) -> Ordinal:
    terms = []
    for i, coefficient in enumerate(v):
        if coefficient:
            terms.append((from_int(3 - i), coefficient))
    return Ordinal(tuple(terms))


SMALL = [ord_of(v) for v in oracles.all_vecs(5)]


class TestParse:
    def test_zero(self):
        assert parse_ordinal("0") == ZERO

    def test_direct_transcription(self):
        x = parse_ordinal("w^2*3+w+5")
        assert x.terms == ((from_int(2), 3), (ONE, 1), (ZERO, 5))

    def test_normalizes_w_plus_w(self):
        # frozen from the sum-order oracle: (0,0,1,0) + (0,0,1,0) = (0,0,2,0)
        assert oracles.v_add((0, 0, 1, 0), (0, 0, 1, 0)) == (0, 0, 2, 0)
        assert format_ordinal(parse_ordinal("w+w")) == "w*2"

    def test_normalizes_absorption(self):
        assert format_ordinal(parse_ordinal("1+w")) == "w"
        assert format_ordinal(parse_ordinal("w*2+w^2")) == "w^2"

    def test_nested_towers(self):
        x = parse_ordinal("w^w^2*3")
        assert x == omega_power(omega_power(from_int(2)), 3)

    @pytest.mark.parametrize(
        "text",
        ["", "+", "w*0", "w^", "01", "w**2", "3+", "w^2*", "x", "0+1", "w*2w"],
    )
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(OrdinalSyntaxError) as err:
            parse_ordinal(text)
        assert err.value.position >= 0

    def test_tower_height_limit(self):
        tower = "^".join(["w"] * (MAX_TOWER_HEIGHT + 1))
        assert format_ordinal(parse_ordinal(tower)) == tower
        with pytest.raises(OrdinalSyntaxError, match="exponent tower"):
            parse_ordinal(tower + "^w")


class TestFormat:
    def test_canonical_examples(self):
        assert format_ordinal(ZERO) == "0"
        assert format_ordinal(from_int(7)) == "7"
        assert format_ordinal(OMEGA) == "w"
        assert format_ordinal(omega_power(OMEGA)) == "w^w"
        assert format_ordinal(add(omega_power(from_int(2), 3), from_int(5))) == "w^2*3+5"

    def test_inexpressible_exponent_raises(self):
        awkward = omega_power(add(OMEGA, ONE))  # w^(w+1): grammar has no parens
        with pytest.raises(OrdinalFormatError):
            format_ordinal(awkward)
        assert "w+1" in pretty(awkward)
        assert str(awkward)  # debug rendering still works


class TestCmp:
    def test_examples(self):
        assert cmp(OMEGA, from_int(5)) > 0
        x = add(omega_power(from_int(2)), ONE)
        assert cmp(x, x) == 0
        assert cmp(parse_ordinal("w*2"), parse_ordinal("w^2")) < 0

    def test_exhaustive_against_oracle(self):
        for a in SMALL:
            for b in SMALL:
                assert cmp(a, b) == oracles.v_cmp(vec_of(a), vec_of(b))


class TestStructure:
    def test_succ(self):
        assert format_ordinal(succ(omega_power(from_int(2)))) == "w^2+1"

    def test_is_limit(self):
        assert is_limit(parse_ordinal("w*2"))
        assert not is_limit(ZERO)
        assert not is_limit(parse_ordinal("w+3"))

    def test_least_exponent(self):
        assert least_exponent(parse_ordinal("w^2*3+w")) == ONE
        with pytest.raises(OrdinalDomainError):
            least_exponent(ZERO)
        with pytest.raises(OrdinalDomainError):
            leading_exponent(ZERO)

    def test_predecessor(self):
        assert predecessor(from_int(3)) == from_int(2)
        assert predecessor(parse_ordinal("w+1")) == OMEGA
        with pytest.raises(OrdinalDomainError):
            predecessor(OMEGA)


class TestAdd:
    def test_examples(self):
        # frozen from the sum-order oracle
        assert oracles.v_add((0, 0, 1, 1), (0, 0, 1, 0)) == (0, 0, 2, 0)
        assert add(parse_ordinal("w+1"), OMEGA) == parse_ordinal("w*2")
        assert oracles.v_add((0, 0, 0, 5), (0, 0, 1, 0)) == (0, 0, 1, 0)
        assert add(from_int(5), OMEGA) == OMEGA
        assert add(ZERO, parse_ordinal("w^2+3")) == parse_ordinal("w^2+3")

    def test_exhaustive_against_oracle(self):
        for a in SMALL:
            for b in SMALL:
                expected = oracles.v_add(vec_of(a), vec_of(b))
                assert vec_of(add(a, b)) == expected

    def test_associativity_on_oracle_domain(self):
        rng = random.Random(7)
        triples = [(rng.choice(SMALL), rng.choice(SMALL), rng.choice(SMALL)) for _ in range(300)]
        for a, b, c in triples:
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_succ_compatibility(self):
        for a in SMALL[:60]:
            for b in SMALL[:60]:
                assert add(a, succ(b)) == succ(add(a, b))
                assert cmp(a, succ(a)) < 0


class TestMulOmega:
    def test_examples(self):
        assert mul_omega(ONE) == OMEGA
        assert mul_omega(ZERO) == ZERO
        # frozen from the oracle: sup of (w^2*3+1)*n is w^3
        assert oracles.v_mul_omega((0, 3, 0, 1)) == (1, 0, 0, 0)
        assert mul_omega(parse_ordinal("w^2*3+1")) == parse_ordinal("w^3")

    def test_against_oracle(self):
        for a in SMALL:
            assert vec_of(mul_omega(a)) == oracles.v_mul_omega(vec_of(a))


class TestLeftDifference:
    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(400):
            a, b = rng.choice(SMALL), rng.choice(SMALL)
            if cmp(a, b) > 0:
                a, b = b, a
            assert add(a, left_difference(a, b)) == b

    def test_errors(self):
        with pytest.raises(OrdinalDomainError):
            left_difference(OMEGA, ONE)

    def test_log_ceiling(self):
        assert omega_log_ceiling(parse_ordinal("w^3")) == from_int(3)
        assert omega_log_ceiling(parse_ordinal("w^3+1")) == from_int(4)
        assert omega_log_ceiling(ONE) == ZERO
        assert omega_log_ceiling(from_int(2)) == ONE


# -- grammar round-trips ----------------------------------------------------

from genutils import random_expressible  # noqa: E402


def test_round_trip_fixed_depth():
    rng = random.Random(11)
    for _ in range(500):
        x = random_expressible(rng)
        assert parse_ordinal(format_ordinal(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_round_trip_hypothesis(seed):
    rng = random.Random(seed)
    x = random_expressible(rng)
    assert parse_ordinal(format_ordinal(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_parse_format_idempotent(seed):
    """Re-parsing the canonical form of any parsed string is a fixpoint."""
    rng = random.Random(seed)
    x = random_expressible(rng)
    text = format_ordinal(x)
    assert format_ordinal(parse_ordinal(text)) == text
