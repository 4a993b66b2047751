"""Fixed-size coefficient codes for bounded-complexity ideals.

An ideal with generator degrees at most d in n variables flattens to a
D x D grid over the degree-<= d monomial list in descending order, where
D = C(n+d, n) counts those monomials.  Generators are first made monic
with pairwise distinct leading monomials, which caps their number at D;
zero rows pad the grid square.  Codes serialize to JSON with exact
coefficient strings and round-trip bit-identically.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .groebner import IdealPresentation
from .polyarith import (
    Field,
    Mono,
    MonomialOrder,
    PolyRing,
    PrimeField,
    QQ,
    RationalField,
    monomials_up_to,
)


CODE_CELL_CAP = 10 ** 6  # most cells of a D x D code, encoded or decoded


class ComplexityExceeded(ValueError):
    """The presentation does not fit within the requested complexity."""

    def __init__(self, d: int, detail: str = "") -> None:
        self.d = d
        super().__init__(
            f"complexity bound {d} exceeded" + (f": {detail}" if detail else "")
        )


def code_size(n: int, d: int) -> int:
    """Number of monomials of degree <= d in n variables: C(n+d, n).

    Raises ComplexityExceeded when the D x D code would pass CODE_CELL_CAP
    cells; since D >= n + d once d >= n >= 1, a large n + d is refused
    before C(n+d, n) is computed.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < n:
        raise ValueError(f"complexity bound {d} below the variable count {n}")
    size = n + d
    if size <= math.isqrt(CODE_CELL_CAP):
        size = math.comb(n + d, n)
    if size * size > CODE_CELL_CAP:
        raise ComplexityExceeded(
            d, f"a code of at least {size} x {size} passes {CODE_CELL_CAP} cells"
        )
    return size


def monomial_basis(nvars: int, d: int, order: MonomialOrder) -> list[Mono]:
    """Monomials of total degree <= d, descending under the order."""
    return sorted(monomials_up_to(nvars, d), key=order.rank)


def _poly_sort_key(g, order: MonomialOrder):
    # simpler generators first: the negated rank sorts ascending
    return (
        tuple(-e for e in order.rank(g.leading_monomial())),
        len(g.terms),
        tuple((tuple(-e for e in order.rank(m)), c) for m, c in g.terms),
    )


def normalize_generators(I: IdealPresentation) -> IdealPresentation:
    """Same ideal, generators monic with pairwise distinct leading monomials.

    Leading-term collisions are resolved by subtracting the kept generator;
    each subtraction strictly lowers the colliding lead, so this terminates.
    Zero differences drop out.  Simpler generators are processed first, so
    {x+y, x} normalizes to {x, y}.
    """
    ring = I.ring
    order = ring.order
    queue = sorted(
        (g.monic() for g in I.generators if g),
        key=lambda g: _poly_sort_key(g, order),
    )
    by_lm: dict = {}
    for f in queue:  # also reaches the differences appended below
        lm = f.leading_monomial()
        kept = by_lm.get(lm)
        if kept is None:
            by_lm[lm] = f
        else:
            diff = f - kept
            if diff:
                queue.append(diff.monic())
    gens = sorted(by_lm.values(), key=lambda g: order.rank(g.leading_monomial()))
    return IdealPresentation(ring, tuple(gens))


class IdealCode(NamedTuple):
    """The flattened form: header (n, d, order, field) plus a D x D grid."""

    nvars: int
    complexity: int
    order: MonomialOrder
    field: Field
    rows: tuple[tuple, ...]


def encode_ideal(I: IdealPresentation, d: int) -> IdealCode:
    """Coefficient rows of the normalized generators on the monomial list."""
    ring = I.ring
    n = ring.nvars
    if d < n:
        raise ComplexityExceeded(d, f"{n} variables force complexity >= {n}")
    size = code_size(n, d)
    norm = normalize_generators(I)
    degs = [int(g.degree()) for g in norm.generators if g]
    if degs and max(degs) > d:
        raise ComplexityExceeded(
            d, f"a normalized generator has degree {max(degs)}"
        )
    monos = monomial_basis(n, d, ring.order)
    index = {m: i for i, m in enumerate(monos)}
    zero = ring.field.zero
    rows = []
    for g in norm.generators:
        if not g:
            continue
        row = [zero] * size
        for m, c in g.terms:
            row[index[m]] = c
        rows.append(tuple(row))
    assert len(rows) <= size  # leading-term dedup caps the generator count
    zero_row = (zero,) * size
    while len(rows) < size:
        rows.append(zero_row)
    return IdealCode(n, d, ring.order, ring.field, tuple(rows))


def decode_ideal(code: IdealCode) -> IdealPresentation:
    """Rebuild a presentation from the nonzero rows of a code."""
    size = code_size(code.nvars, code.complexity)
    if len(code.rows) != size or any(len(r) != size for r in code.rows):
        raise ValueError(f"malformed code: expected {size} rows of {size} entries")
    ring = PolyRing(code.field, code.nvars, code.order)
    monos = monomial_basis(code.nvars, code.complexity, code.order)
    gens = []
    for row in code.rows:
        terms = {m: c for m, c in zip(monos, row) if c}
        if terms:
            gens.append(ring.from_dict(terms))
    return IdealPresentation(ring, tuple(gens))


def field_to_json(field: Field):
    if isinstance(field, RationalField):
        return "Q"
    return {"Fp": field.p}


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"} and type(obj["Fp"]) is int:
        return PrimeField(obj["Fp"])
    raise ValueError(f"unknown field descriptor {obj!r}")


def code_to_json(code: IdealCode) -> str:
    """Serialize with exact coefficient strings; byte-stable output."""
    obj = {
        "nvars": code.nvars,
        "complexity": code.complexity,
        "order": code.order.kind,
        "field": field_to_json(code.field),
        "rows": [[str(c) for c in row] for row in code.rows],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def code_from_json(text: str) -> IdealCode:
    try:
        obj = json.loads(text)
    except RecursionError as exc:
        raise ValueError("code JSON nests too deeply") from exc
    if not isinstance(obj, dict) or set(obj) != {
        "nvars",
        "complexity",
        "order",
        "field",
        "rows",
    }:
        raise ValueError("malformed code object")
    fld = field_from_json(obj["field"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(c, str) for c in row) for row in rows
    ):
        raise ValueError("code rows must be lists of coefficient strings")
    if any(type(obj[k]) is not int for k in ("nvars", "complexity")):
        raise ValueError("nvars and complexity must be JSON integers")
    return IdealCode(
        obj["nvars"],
        obj["complexity"],
        MonomialOrder(obj["order"]),
        fld,
        tuple(tuple(fld.coerce(entry) for entry in row) for row in rows),
    )
