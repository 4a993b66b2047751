"""Shared ideal corpus for the test suite: named small ideals plus seeded
random ones, all within 4 variables and generator degree 4."""

from __future__ import annotations

import random

from gbtransfer.groebner import IdealPresentation
from gbtransfer.polyarith import GREVLEX, PolyRing, QQ, parse_polynomial

R1 = PolyRing(QQ, 1, GREVLEX, ("x",))
R2 = PolyRing(QQ, 2, GREVLEX, ("x", "y"))
R3 = PolyRing(QQ, 3, GREVLEX, ("x", "y", "z"))
R4 = PolyRing(QQ, 4, GREVLEX, ("w", "x", "y", "z"))


def P(text, ring=R2):
    return parse_polynomial(text, ring)


def mk(ring, *texts) -> IdealPresentation:
    return IdealPresentation(ring, tuple(P(t, ring) for t in texts))


NAMED_IDEALS = [
    ("principal_1v", mk(R1, "x")),
    ("square_1v", mk(R1, "x^2")),
    ("shifted_1v", mk(R1, "x - 1")),
    ("cubic_1v", mk(R1, "x^3 + x + 1")),
    ("split_1v", mk(R1, "x^2 - 1")),
    ("axis", mk(R2, "x")),
    ("parabola", mk(R2, "x^2 - y")),
    ("cross", mk(R2, "x*y")),
    ("parabola_axis", mk(R2, "x^2 - y", "x")),
    ("skew_origin", mk(R2, "x - y", "2*y")),
    ("fat_point", mk(R2, "x^2", "y")),
    ("no_rational_root", mk(R2, "x^2 + 1")),
    ("two_parabolas", mk(R2, "x^2 - y", "y^2 - x")),
    ("line_and_cross", mk(R2, "x + y", "x*y")),
    ("double_line", mk(R2, "x^2 - 2*x*y + y^2", "y - 1")),
    ("cusp_curve", mk(R2, "x^3 - y^2")),
    ("hyperbola", mk(R2, "x*y - 1")),
    ("mixed_pair", mk(R2, "2*x + 3*y", "x^2")),
    ("deg4_curve", mk(R2, "x^4 + y^4 - 1")),
    ("cyclic3", mk(R3, "x + y + z", "x*y + y*z + z*x", "x*y*z - 1")),
    ("katsura2", mk(R3, "x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y")),
    ("two_planes", mk(R3, "x*y", "x*z")),
    ("point_3v", mk(R3, "x - y", "y - z", "z^2")),
    ("sphere_saddle", mk(R3, "x^2 + y^2 + z^2 - 1", "x*y - z")),
    ("twisted_cubic", mk(R3, "y - x^2", "z - x^3")),
    ("quadric_pair_4v", mk(R4, "w*x - y*z", "w + x + y + z")),
    ("chain_4v", mk(R4, "w^2 - x", "x^2 - y", "y^2 - z")),
    ("cyclic4", mk(
        R4,
        "w + x + y + z",
        "w*x + x*y + y*z + z*w",
        "w*x*y + x*y*z + y*z*w + z*w*x",
        "w*x*y*z - 1",
    )),
    ("katsura3", mk(
        R4,
        "w + 2*x + 2*y + 2*z - 1",
        "w^2 + 2*x^2 + 2*y^2 + 2*z^2 - w",
        "2*w*x + 2*x*y + 2*y*z - x",
        "x^2 + 2*w*y + 2*x*z - y",
    )),
]

MONOMIAL_IDEALS = [
    ("zero_2v", IdealPresentation(R2, (R2.zero(),))),
    ("axis_m", mk(R2, "x")),
    ("other_axis_m", mk(R2, "y")),
    ("cross_m", mk(R2, "x*y")),
    ("origin_m", mk(R2, "x", "y")),
    ("double_axis_m", mk(R2, "x^2")),
    ("mixed_powers_m", mk(R2, "x^2", "y^3")),
    ("two_planes_m", mk(R3, "x*y", "x*z")),
    ("space_cross_m", mk(R3, "x*y*z")),
    ("origin_3v_m", mk(R3, "x", "y", "z")),
    ("edge_triangle_m", mk(R3, "x*y", "y*z", "z*x")),
    ("staircase_m", mk(R3, "x^2*y", "y*z")),
    ("pairs_4v_m", mk(R4, "w*x", "y*z")),
    ("full_product_m", mk(R4, "w*x*y*z")),
    ("origin_4v_m", mk(R4, "w", "x", "y", "z")),
    ("powers_4v_m", mk(R4, "w^2", "x^2*y")),
]

# Every corpus ideal in <= 2 variables whose generators have degree <= 3;
# the completeness oracle runs over exactly these.
SMALL_2V_IDEALS = [
    (name, pres)
    for name, pres in NAMED_IDEALS
    if pres.ring.nvars <= 2
    and all(int(g.degree()) <= 3 for g in pres.generators if g)
]


def random_poly(
    rng: random.Random,
    ring: PolyRing,
    max_degree: int,
    max_terms: int = 3,
    coeff_pool=(-3, -2, -1, 1, 2, 3),
):
    """Random sparse polynomial with small integer coefficients.

    Constant-free so random ideals stay proper-looking; may still be zero
    when terms cancel.
    """
    from gbtransfer.polyarith import monomials_up_to

    monos = [m for m in monomials_up_to(ring.nvars, max_degree) if sum(m) > 0]
    acc = {}
    fld = ring.field
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = fld.coerce(rng.choice(coeff_pool))
        prev = acc.get(m)
        acc[m] = c if prev is None else fld.reduce(prev + c)
    return ring.from_dict(acc)


def random_query(
    rng: random.Random,
    ring: PolyRing,
    max_degree: int,
    max_terms: int = 4,
    coeff_pool=(-3, -2, -1, 1, 2, 3),
):
    """Random query polynomial; unlike random_poly, constants are allowed."""
    from gbtransfer.polyarith import monomials_up_to

    monos = list(monomials_up_to(ring.nvars, max_degree))
    acc = {}
    fld = ring.field
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = fld.coerce(rng.choice(coeff_pool))
        prev = acc.get(m)
        acc[m] = c if prev is None else fld.reduce(prev + c)
    return ring.from_dict(acc)


def random_ideal(
    rng: random.Random, ring: PolyRing, max_degree: int = 4, n_gens: int = 2
) -> IdealPresentation:
    gens = []
    while len(gens) < n_gens:
        g = random_poly(rng, ring, max_degree)
        if g:
            gens.append(g)
    return IdealPresentation(ring, tuple(gens))


def corpus_30(seed: int = 20240) -> list[tuple[str, IdealPresentation]]:
    """At least 30 ideals in <= 4 variables with generator degree <= 4."""
    rng = random.Random(seed)
    out = list(NAMED_IDEALS)
    rings = [R1, R2, R2, R3]
    k = 0
    while len(out) < 32:
        ring = rings[k % len(rings)]
        out.append((f"random_{k}", random_ideal(rng, ring, max_degree=3)))
        k += 1
    return out
