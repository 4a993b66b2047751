"""Exact multivariate polynomial arithmetic over Q and prime fields.

Coefficients are exact everywhere: rationals are `fractions.Fraction`
values in lowest terms, prime-field residues are plain ints in 0..p-1.
A field reads every value through `coerce` (an int, a Fraction or an
exact literal such as "-3/4"), inverts (`inv`), raises to powers (`pow`,
modular over F_p) and reduces values (`reduce`: the identity over Q,
`a % p` over F_p); polynomials compute with Python's operators and
reduce each output coefficient once.  A polynomial is an immutable term
list kept strictly descending under its ring's monomial order, with no
zero coefficients and no duplicate monomials, so structural equality is
mathematical equality.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

NEG_INF = float("-inf")  # degree of the zero polynomial
TERM_CAP = 10_000  # most terms the parser expands to or monomials_up_to lists
PRODUCT_BUDGET = 10 * TERM_CAP  # term pairs one parse or substitute may multiply
POWER_BIT_CAP = 8192  # bound on e * (coefficient bits - 2) of one power over Q
NEST_CAP = 100  # parentheses and unary minus signs one parse may nest
NVARS_CAP = 1024  # most variables one ring may have


class AmbientMismatch(ValueError):
    """Operands live in different ambient rings."""


class BadPrime(ValueError):
    """Coefficient reduction mod p hit a denominator divisible by p."""

    def __init__(self, p: int, detail: str = "") -> None:
        self.p = p
        super().__init__(f"bad prime {p}" + (f": {detail}" if detail else ""))


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, k): the first k bases decide every n below bound (Jaeschke 1993)
_MILLER_RABIN_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                        (2152302898747, 5), (3474749660383, 6), (341550071728321, 7))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact far beyond word-sized moduli."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MILLER_RABIN_BOUNDS if n < bound), 12)
    for a in _MILLER_RABIN_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_EXACT_LITERAL = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


class RationalField:
    """The rational numbers; elements are reduced `Fraction` values."""

    __slots__ = ()  # no fields, yet not an empty tuple, which would be falsy
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField) or NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def coerce(self, value) -> Fraction:
        if type(value) is Fraction:  # immutable and reduced: no copy
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            text = value.strip()
            if not _EXACT_LITERAL.match(text):
                raise ValueError(f"not an exact rational literal: {text!r}")
            return Fraction(text)
        raise TypeError(f"cannot interpret {value!r} as a rational")

    def inv(self, a):
        return Fraction(a.denominator, a.numerator)

    def pow(self, a, e: int):
        return a ** e

    def reduce(self, a):
        return a

    def __repr__(self) -> str:
        return "QQ"


class _PrimeField(NamedTuple):
    p: int


class PrimeField(_PrimeField):
    """A prime field F_p; elements are canonical residues 0..p-1."""

    __slots__ = ()

    def __new__(cls, p: int) -> "PrimeField":
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an int")
        if p >= 1 << 63:
            raise ValueError("modulus exceeds the machine-word bound")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return super().__new__(cls, p)

    zero = 0
    one = 1

    def coerce(self, value) -> int:
        if type(value) is int:  # not bool, which QQ.coerce refuses
            return value % self.p
        # a Fraction, as reduce_coeffs_mod_p passes every one, is read as is
        q = value if type(value) is Fraction else QQ.coerce(value)
        if q.denominator % self.p == 0:
            raise BadPrime(self.p, f"denominator of {q} vanishes")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def reduce(self, a):
        return a % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

Field = RationalField | PrimeField

Mono = tuple[int, ...]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def monomials_up_to(nvars: int, max_degree: int) -> tuple[Mono, ...]:
    """Every exponent vector with total degree <= max_degree (at most TERM_CAP)."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if max_degree < 0:
        raise ValueError("degree bound must be non-negative")
    if math.comb(nvars + max_degree, nvars) > TERM_CAP:
        raise ValueError(f"over {TERM_CAP} monomials of degree <= {max_degree}")
    # Lexicographic, the first exponent slowest: each vector counts a multiset
    # of variables (index nvars the slack), listed in reverse by combinations.
    def vector(ks: tuple) -> Mono:
        m = [0] * (nvars + 1)
        for k in ks:
            m[k] += 1
        return tuple(m[:nvars])
    ks = itertools.combinations_with_replacement(range(nvars + 1), max_degree)
    return tuple(map(vector, reversed(list(ks))))


def _lex_rank(m: Mono):
    return tuple(map(operator.neg, m))


def _grevlex_rank(m: Mono):
    return (-sum(m),) + m[::-1]


class _MonomialOrder(NamedTuple):
    kind: str = "grevlex"


class MonomialOrder(_MonomialOrder):
    """A fixed multiplicative well-order on monomials (lex or grevlex).

    rank(m), set once per order object, is the order's only key: a flat
    tuple of ints, smaller for the larger monomial, so sorting by rank puts
    the leading monomial first.  Lex ranks m as its negated exponents,
    grevlex as (-deg m, last exponent, ..., first exponent).  The negated
    tuple, tuple(-e for e in rank(m)), sorts ascending.
    """

    def __new__(cls, kind: str = "grevlex") -> "MonomialOrder":
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self = super().__new__(cls, kind)
        self.rank = _lex_rank if kind == "lex" else _grevlex_rank
        return self


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class PolyRing:
    """Ambient ring descriptor.

    Identity is (field, nvars, order); variable names are display metadata
    only and never participate in equality or hashing.  Not a tuple, whose
    order and length would count the names.
    """

    __slots__ = ("field", "nvars", "order", "names")

    def __init__(self, field: Field, nvars: int,
                 order: MonomialOrder = GREVLEX, names: tuple[str, ...] = ()) -> None:
        if nvars < 1:
            raise ValueError("a polynomial ring needs at least one variable")
        if nvars > NVARS_CAP:
            raise ValueError(f"more than {NVARS_CAP} variables")
        names = tuple(names) if names else tuple(f"x{i + 1}" for i in range(nvars))
        if len(names) != nvars:
            raise ValueError("variable name count does not match nvars")
        if len(set(names)) != nvars:
            raise ValueError(f"variable names must be distinct: {names}")
        init = object.__setattr__
        init(self, "field", field)
        init(self, "nvars", nvars)
        init(self, "order", order)
        init(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return other is self or (self.field, self.nvars, self.order) == (
            other.field, other.nvars, other.order)

    def __hash__(self) -> int:
        return hash((self.field, self.nvars, self.order))

    def __repr__(self) -> str:
        return (f"PolyRing(field={self.field!r}, nvars={self.nvars!r}, "
                f"order={self.order!r}, names={self.names!r})")

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, value) -> "Polynomial":
        c = self.field.coerce(value)
        if not c:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.nvars, c),))

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((exps, self.field.one),))

    def from_dict(self, terms: dict) -> "Polynomial":
        monos = sorted((m for m, c in terms.items() if c), key=self.order.rank)
        return Polynomial(self, tuple((m, terms[m]) for m in monos))

    def from_terms(self, pairs: Iterable[tuple]) -> "Polynomial":
        """Build from (coefficient, exponents) pairs; duplicates accumulate."""
        acc: dict = {}
        for coeff, exps in pairs:
            exps = tuple(exps)
            if not all(type(e) is int for e in exps):  # no float, bool or str
                raise TypeError(f"exponents must be ints: {exps!r}")
            if len(exps) != self.nvars:
                raise AmbientMismatch(
                    f"exponent vector length {len(exps)} != {self.nvars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = self.field.coerce(coeff)
            prev = acc.get(exps)
            acc[exps] = c if prev is None else prev + c
        return self.from_dict({m: self.field.reduce(c) for m, c in acc.items()})

    def with_field(self, field: Field) -> "PolyRing":
        return PolyRing(field, self.nvars, self.order, self.names)


class Polynomial:
    """Immutable canonical term list over a fixed ambient ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple) -> None:
        # terms must already be canonical; go through PolyRing.from_dict
        # when that is not guaranteed.
        self.ring = ring
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m, _ in self.terms)

    def leading_term(self) -> tuple:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Mono:
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def monic(self) -> "Polynomial":
        fld = self.ring.field
        if not self.terms or self.terms[0][1] == fld.one:
            return self
        return self.scale(fld.inv(self.terms[0][1]))

    def scale(self, value) -> "Polynomial":
        fld = self.ring.field
        c = fld.coerce(value)
        if not c or not self.terms:
            return self.ring.zero()
        return Polynomial(
            self.ring, tuple((m, fld.reduce(c * tc)) for m, tc in self.terms)
        )

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise AmbientMismatch("polynomials from different rings")
        reduce = self.ring.field.reduce
        acc = dict(self.terms)
        for m, c in other.terms:
            prev = acc.get(m)
            acc[m] = c if prev is None else reduce(prev + c)
        return self.ring.from_dict(acc)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise AmbientMismatch("polynomials from different rings")
        reduce = self.ring.field.reduce
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                v = c1 * c2
                prev = acc.get(m)
                acc[m] = v if prev is None else prev + v
        for m, c in acc.items():
            acc[m] = reduce(c)
        return self.ring.from_dict(acc)

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take non-negative int exponents")
        return _power(self, e, operator.mul)

    def evaluate(self, point: Sequence):
        """Value at a point with coordinates in the coefficient field."""
        if len(point) != self.ring.nvars:
            raise AmbientMismatch("point length does not match the ring")
        fld = self.ring.field
        vals = [fld.coerce(c) for c in point]
        acc = fld.zero
        for mono, c in self.terms:
            v = c
            for i, e in enumerate(mono):
                if e:
                    v = v * fld.pow(vals[i], e)
            acc += v
        return fld.reduce(acc)

    def __repr__(self) -> str:
        return format_polynomial(self)


def _power(base: Polynomial, e: int, mul) -> Polynomial:
    """base ** e by square-and-multiply, forming every product with mul.

    Over Q a one-term base costs one term pair per squaring while its
    coefficient doubles in size, so the coefficient size is bounded first.
    """
    if e * _coeff_bits(base) > POWER_BIT_CAP:
        raise ValueError(f"power coefficients could pass {POWER_BIT_CAP} bits")
    result = base.ring.one()
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _coeff_bits(p: Polynomial) -> int:
    # numerator plus denominator bits past 2 of p's largest coefficient over Q
    if not isinstance(p.ring.field, RationalField):
        return 0
    return max((c.numerator.bit_length() + c.denominator.bit_length()
                for _, c in p.terms), default=2) - 2


class _ProductBudget:
    """Term pairs left for the products of one parse, substitute or search.

    The result's term count can stay small while the work grows with the
    exponent ((x + 1)^e), so the work itself is bounded; passing the budget
    raises error.
    """

    def __init__(self, error: type[Exception] = ValueError) -> None:
        self.left = PRODUCT_BUDGET
        self.error = error

    def mul(self, p: Polynomial, q: Polynomial) -> Polynomial:
        self.left -= len(p.terms) * len(q.terms)
        if self.left < 0:
            raise self.error(f"products would pass {PRODUCT_BUDGET} term pairs")
        return p * q


def substitute(f: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate an integer-coefficient polynomial at polynomial images.

    Acts as the ring homomorphism sending variable i of f's ring to
    images[i]; all images must share one target ring.
    """
    if len(images) != f.ring.nvars:
        raise AmbientMismatch(
            f"expected {f.ring.nvars} images, got {len(images)}"
        )
    target = images[0].ring
    for g in images[1:]:
        if g.ring != target:
            raise AmbientMismatch("images live in different rings")
    budget = _ProductBudget()
    total = target.zero()
    for mono, c in f.terms:
        if not isinstance(c, Fraction) or c.denominator != 1:
            raise ValueError("substitution source must have integer coefficients")
        term = target.constant(c.numerator)
        for i, e in enumerate(mono):
            if e:
                term = budget.mul(term, _power(images[i], e, budget.mul))
        total = total + term
    return total


def reduce_coeffs_mod_p(f: Polynomial, target: PolyRing) -> Polynomial:
    """Map each coefficient a/b to a * b^-1 mod p, into target: f's ring over F_p.

    Raises BadPrime when p divides some reduced denominator.
    """
    if not isinstance(f.ring.field, RationalField):
        raise AmbientMismatch("only rational-coefficient polynomials reduce mod p")
    if (target.nvars, target.order) != (f.ring.nvars, f.ring.order):
        raise AmbientMismatch("the target ring has another shape")
    fp = target.field
    # The order does not depend on the field, so dropping the terms that
    # vanish mod p keeps a canonical term list canonical: no re-sort.
    return Polynomial(
        target,
        tuple((m, v) for m, c in f.terms if (v := fp.coerce(c))),
    )


def _term_body(field: Field, names: tuple[str, ...], coeff, mono: Mono) -> str:
    vars_part = "*".join(
        names[i] if e == 1 else f"{names[i]}^{e}"
        for i, e in enumerate(mono)
        if e
    )
    if not vars_part:
        return str(coeff)
    if coeff == field.one:
        return vars_part
    return f"{coeff}*{vars_part}"


def format_polynomial(f: Polynomial) -> str:
    """Render as "c*x^e*y + ..." with signs folded into the separators."""
    if not f.terms:
        return "0"
    field = f.ring.field
    rational = isinstance(field, RationalField)
    parts = []
    for mono, c in f.terms:
        neg = rational and c < 0
        body = _term_body(field, f.ring.names, -c if neg else c, mono)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()])|\s+|(.)")


def _tokenize(text: str) -> list:
    """An int per number, a str per name or operator ("**" read as "^"), then None."""
    out = []
    for number, word, junk in _TOKEN.findall(text):
        if junk:
            raise ValueError(f"bad character {junk!r} in polynomial text")
        if number:
            out.append(int(number))
        elif word:
            out.append("^" if word == "**" else word)
    out.append(None)
    return out


def _check_terms(bound: int) -> None:
    if bound > TERM_CAP:
        raise ValueError(f"expansion could pass {TERM_CAP} terms")


class _PolyParser:
    """Recursive-descent parser for "+ - * ^ ( )" polynomial expressions."""

    def __init__(self, text: str, ring: PolyRing) -> None:
        self.toks = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.index = {name: k for k, name in enumerate(ring.names)}
        self.budget = _ProductBudget()
        self.depth = 0  # open "(" and unary "-" around the current token

    def nest(self) -> None:
        self.depth += 1
        if self.depth > NEST_CAP:
            raise ValueError(f"polynomial text nests deeper than {NEST_CAP}")

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ValueError(f"unexpected {tok!r} in polynomial text")
        return p

    def expr(self) -> Polynomial:
        sign = self.peek()
        if sign in ("+", "-"):
            self.take()
        p = self.term()
        if sign == "-":
            p = -p
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p - q if op == "-" else p + q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        bits = _coeff_bits(p)  # bounded over the factors as _power bounds e of them
        while self.peek() == "*":
            self.take()
            q = self.factor()
            _check_terms(len(p.terms) * len(q.terms))
            bits += _coeff_bits(q)
            if bits > POWER_BIT_CAP:
                raise ValueError(f"product coefficients could pass {POWER_BIT_CAP} bits")
            p = self.budget.mul(p, q)
        return p

    def factor(self) -> Polynomial:
        if self.peek() == "-":  # negate after "^": x*-y^2 is -(x*y^2)
            self.take()
            self.nest()
            p = -self.factor()
            self.depth -= 1
            return p
        p = self.atom()
        if self.peek() == "^":
            self.take()
            v = self.take()
            if not isinstance(v, int):
                raise ValueError("exponent must be a non-negative integer")
            # (t terms)^v has at most C(t + v - 1, v) terms, and >= v + 1 if t > 1
            t = len(p.terms)
            if t > 1:
                _check_terms(v + 1 if v >= TERM_CAP else math.comb(t + v - 1, v))
            p = _power(p, v, self.budget.mul)
        return p

    def atom(self) -> Polynomial:
        tok = self.take()
        if isinstance(tok, int):
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not isinstance(den, int):
                    raise ValueError("denominator must be an integer")
                if not den:
                    raise ValueError("zero denominator in polynomial text")
                return self.ring.constant(Fraction(tok, den))
            return self.ring.constant(tok)
        if isinstance(tok, str) and tok.isidentifier():
            if tok not in self.index:
                known = ", ".join(self.ring.names)
                raise ValueError(f"unknown variable {tok!r}; ring has {known}")
            return self.ring.variable(self.index[tok])
        if tok == "(":
            self.nest()
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            self.depth -= 1
            return p
        raise ValueError("unexpected end of polynomial text" if tok is None
                         else f"unexpected token {tok!r} in polynomial text")


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse "2*x^2*y - 1/3" style expressions against the ring's names."""
    return _PolyParser(text, ring).parse()
