"""Exact arithmetic for countable ordinals below epsilon_0, in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck`` with exponents
``e1 > e2 > ... > ek`` (themselves ordinals) and integer coefficients >= 1.
The empty sum is 0.  Values are immutable and every operation is pure, so
they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


class OrdinalSyntaxError(ValueError):
    """Raised on malformed ordinal expressions; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OrdinalDomainError(ValueError):
    """Operation applied outside its domain (e.g. least_exponent of 0)."""


class OrdinalFormatError(ValueError):
    """The value has no rendering in the canonical expression grammar."""


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: tuple of (exponent, coefficient) terms.

    Exponents are strictly decreasing along the tuple and coefficients are
    positive.  Construction validates both, so any reachable instance is in
    canonical form and structural equality is semantic equality.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for exponent, coefficient in self.terms:
            if not isinstance(coefficient, int) or coefficient < 1:
                raise ValueError(f"coefficient must be a positive int, got {coefficient!r}")
            if not isinstance(exponent, Ordinal):
                raise ValueError(f"exponent must be an Ordinal, got {exponent!r}")
            if prev is not None and cmp(prev, exponent) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exponent

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_limit(self) -> bool:
        """True iff nonzero with no immediate predecessor."""
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    def to_int(self) -> int:
        if self.is_zero:
            return 0
        if self.is_finite:
            return self.terms[0][1]
        raise OrdinalDomainError(f"{self} is infinite")

    # -- comparisons ------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return cmp(self, other) < 0

    def __str__(self) -> str:
        try:
            return format_ordinal(self)
        except OrdinalFormatError:
            return pretty(self)

    def __repr__(self) -> str:
        return f"Ordinal({pretty(self)})"


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalDomainError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


def omega_power(exponent: Ordinal, coefficient: int = 1) -> Ordinal:
    """w^exponent * coefficient as a single-term normal form."""
    return Ordinal(((exponent, coefficient),))


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def cmp(a: Ordinal, b: Ordinal) -> int:
    """Total order on normal forms: -1, 0 or 1.

    Term lists compare lexicographically, each term by exponent then
    coefficient; a proper prefix is the smaller ordinal.
    """
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def ord_min(a: Ordinal, b: Ordinal) -> Ordinal:
    return a if cmp(a, b) < 0 else b


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition (non-commutative): terms of `a` below the leading
    exponent of `b` are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.terms[0][0]
    kept = []
    merged_coeff = 0
    for exponent, coefficient in a.terms:
        c = cmp(exponent, lead)
        if c > 0:
            kept.append((exponent, coefficient))
        elif c == 0:
            merged_coeff = coefficient
            break
        else:
            break
    first = (lead, b.terms[0][1] + merged_coeff)
    return Ordinal(tuple(kept) + (first,) + b.terms[1:])


def succ(a: Ordinal) -> Ordinal:
    return add(a, ONE)


def predecessor(a: Ordinal) -> Ordinal:
    if not a.is_successor:
        raise OrdinalDomainError(f"{a} has no predecessor")
    exponent, coefficient = a.terms[-1]
    if coefficient > 1:
        return Ordinal(a.terms[:-1] + ((exponent, coefficient - 1),))
    return Ordinal(a.terms[:-1])


def is_limit(a: Ordinal) -> bool:
    return a.is_limit


def leading_exponent(a: Ordinal) -> Ordinal:
    if a.is_zero:
        raise OrdinalDomainError("leading_exponent of 0 is undefined")
    return a.terms[0][0]


def least_exponent(a: Ordinal) -> Ordinal:
    if a.is_zero:
        raise OrdinalDomainError("least_exponent of 0 is undefined")
    return a.terms[-1][0]


def mul_omega(a: Ordinal) -> Ordinal:
    """a * w: zero is absorbing, otherwise w^(leading_exponent(a) + 1)."""
    if a.is_zero:
        return ZERO
    return omega_power(succ(leading_exponent(a)))


def left_difference(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c == b, for a <= b."""
    if cmp(a, b) > 0:
        raise OrdinalDomainError(f"left_difference requires {a} <= {b}")
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        ea, ca = ta
        eb, cb = tb
        if cmp(ea, eb) == 0 and cb > ca:
            return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
        return Ordinal(b.terms[i:])
    return Ordinal(b.terms[len(a.terms):])


def omega_log_ceiling(a: Ordinal) -> Ordinal:
    """Least e with w^e >= a, for a >= 1."""
    if a.is_zero:
        raise OrdinalDomainError("omega_log_ceiling of 0 is undefined")
    lead = leading_exponent(a)
    if a == omega_power(lead):
        return lead
    return succ(lead)


# -- parsing -------------------------------------------------------------
#
# Grammar (bit-exact):
#   expr := '0' | term ('+' term)*
#   term := 'w' ('^' exponent)? ('*' nat)? | nat
#   nat  := [1-9][0-9]*
#
# '^' binds tighter than '*', which binds tighter than '+', so the exponent
# position accepts only '0', a nat, or a right-nested 'w^...' tower.  Any
# grammar-valid input is accepted, except exponent towers higher than
# MAX_TOWER_HEIGHT: comparison and rendering recurse once per level, so a
# higher tower would exhaust the interpreter's stack.  Non-canonical
# spellings such as "w+w" are normalized by folding terms through `add`.

MAX_TOWER_HEIGHT = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str):
        raise OrdinalSyntaxError(message, self.pos)

    def parse_expr(self) -> Ordinal:
        if self.peek() == "0":
            self.pos += 1
            return ZERO
        value = self.parse_term()
        while self.peek() == "+":
            self.pos += 1
            value = add(value, self.parse_term())
        return value

    def parse_term(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            exponent = ONE
            if self.peek() == "^":
                self.pos += 1
                exponent = self.parse_exponent(1)
            coefficient = 1
            if self.peek() == "*":
                self.pos += 1
                coefficient = self.parse_nat()
            return omega_power(exponent, coefficient)
        if ch.isdigit():
            return from_int(self.parse_nat())
        self.fail("expected 'w', a digit, or '0'")

    def parse_exponent(self, height: int) -> Ordinal:
        if height > MAX_TOWER_HEIGHT:
            self.fail(f"exponent tower higher than {MAX_TOWER_HEIGHT}")
        ch = self.peek()
        if ch == "0":
            self.pos += 1
            return ZERO
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_power(self.parse_exponent(height + 1))
            return OMEGA
        if ch.isdigit():
            return from_int(self.parse_nat())
        self.fail("expected exponent ('0', nat, or 'w' tower)")

    def parse_nat(self) -> int:
        start = self.pos
        ch = self.peek()
        if not ch.isdigit() or ch == "0":
            self.fail("expected a natural number without leading zero")
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def expect_end(self):
        if self.pos != len(self.text):
            self.fail(f"trailing input {self.text[self.pos:]!r}")


def parse_ordinal(text: str) -> Ordinal:
    """Parse an ordinal expression; normalizes non-canonical forms."""
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.expect_end()
    return value


def _format_exponent(e: Ordinal) -> str:
    # Exponent position of the grammar: '0' | nat | 'w' ('^' exponent)?
    if e.is_zero:
        return "0"
    if e.is_finite:
        return str(e.to_int())
    if len(e.terms) == 1 and e.terms[0][1] == 1:
        inner = e.terms[0][0]
        if inner == ONE:
            return "w"
        return "w^" + _format_exponent(inner)
    raise OrdinalFormatError(
        f"exponent {pretty(e)} is not expressible in the canonical grammar"
    )


def format_ordinal(a: Ordinal) -> str:
    """Canonical rendering in the expression grammar.

    Raises OrdinalFormatError for values whose exponents contain sums or
    coefficients (the grammar has no parentheses); no rank produced by the
    supported instances falls in that class.
    """
    if a.is_zero:
        return "0"
    parts = []
    for exponent, coefficient in a.terms:
        if exponent.is_zero:
            parts.append(str(coefficient))
            continue
        rendered = "w"
        if exponent != ONE:
            rendered += "^" + _format_exponent(exponent)
        if coefficient != 1:
            rendered += f"*{coefficient}"
        parts.append(rendered)
    return "+".join(parts)


def pretty(a: Ordinal) -> str:
    """Debug rendering with parentheses; not part of the canonical grammar."""
    if a.is_zero:
        return "0"
    parts = []
    for exponent, coefficient in a.terms:
        if exponent.is_zero:
            parts.append(str(coefficient))
            continue
        if exponent == ONE:
            rendered = "w"
        elif exponent.is_finite or (len(exponent.terms) == 1 and exponent.terms[0][1] == 1):
            rendered = f"w^{pretty(exponent)}"
        else:
            rendered = f"w^({pretty(exponent)})"
        if coefficient != 1:
            rendered += f"*{coefficient}"
        parts.append(rendered)
    return "+".join(parts)
