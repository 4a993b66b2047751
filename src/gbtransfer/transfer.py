"""Witness verification, reduction mod p, and the uniform-complexity sweep.

A witness packages an ideal I (defining the quotient algebra), a prime
candidate m, lifted element tuples x and y, an optional rational point,
and a claimed height.  Verification checks, inside the witness's own
field: Rad((x) + I) = m, vanishing of every system equation at (x, y)
modulo I, the height bookkeeping ht(m) - ht(I), and the residue-field
certification through the rational point.  The sweep answers every
requested prime outside a finite bad set from the characteristic-zero run,
or, in a finite exceptional set, by re-running the checks mod p.  The
primality probe, which no per-prime outcome prints, runs once, over Q.  It
reports the per-prime outcomes and the maximal complexity seen, which
never exceeds the characteristic-zero complexity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress, filterfalse, product as _cartesian, repeat
from typing import NamedTuple, Sequence

from .groebner import (
    DegreeCapExceeded,
    IdealPresentation,
    ideal_contains,
    normal_form,
)
from .polyarith import (
    AmbientMismatch,
    BadPrime,
    GREVLEX,
    NVARS_CAP,
    MonomialOrder,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    RationalField,
    format_polynomial,
    is_prime,
    reduce_coeffs_mod_p,
    substitute,
)
from .predicates import (
    PROBE_TRIAL_CAP,
    ComplexityReport,
    NotContained,
    ProbeResult,
    RadicalResult,
    UnitIdeal,
    complexity_of,
    height_poly,
    prime_probe,
    radical_equals,
    rational_maximal,
)

POINT_BUDGET = 10 ** 6
PRIME_RANGE_CAP = 10 ** 6  # widest LO..HI span listed; largest number sieved


class DegenerateGenerator(ValueError):
    """Reduction mod p collapsed a generator to zero or to a unit."""


class BudgetExceeded(RuntimeError):
    """Point enumeration would exceed the configured evaluation budget."""


class CharZeroFailure(RuntimeError):
    """Sweep refused: the witness already fails in characteristic zero."""

    def __init__(self, result: "VerificationResult") -> None:
        self.result = result
        super().__init__("witness fails in characteristic zero")


def system_ring(n: int, r: int, order: MonomialOrder = GREVLEX) -> PolyRing:
    """Ring for system equations over Z: variables X1..Xn, Y1..Yr."""
    if n + r > NVARS_CAP:
        raise ValueError(f"more than {NVARS_CAP} variables")
    names = tuple(f"X{i + 1}" for i in range(n)) + tuple(
        f"Y{j + 1}" for j in range(r)
    )
    return PolyRing(QQ, n + r, order, names)


class _DiophantineSystem(NamedTuple):
    n: int
    r: int
    equations: tuple[Polynomial, ...]


class DiophantineSystem(_DiophantineSystem):
    """Equations over Z in the parameter slots X and the free slots Y."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, equations: tuple[Polynomial, ...]):
        if n < 0 or r < 0 or n + r < 1:
            raise ValueError("need n >= 0, r >= 0 and n + r >= 1")
        for F in equations:
            if F.ring.nvars != n + r:
                raise AmbientMismatch(
                    "equation variable count does not match n + r"
                )
            if not isinstance(F.ring.field, RationalField):
                raise AmbientMismatch("system equations live over Z inside Q")
            for _, c in F.terms:
                if c.denominator != 1:
                    raise ValueError("system coefficients must be integers")
        return super().__new__(cls, n, r, equations)


class _Witness(NamedTuple):
    ring: PolyRing
    i_gens: tuple[Polynomial, ...]
    m_gens: tuple[Polynomial, ...]
    point_b: tuple | None
    x_images: tuple[Polynomial, ...]
    y_images: tuple[Polynomial, ...]
    claimed_n: int
    domain_claim: bool = False


class Witness(_Witness):
    """Semi-parametric witness data over one ambient ring."""

    __slots__ = ()

    def __new__(cls, ring, i_gens, m_gens, point_b, x_images, y_images,
                claimed_n, domain_claim=False):
        for g in (*i_gens, *m_gens, *x_images, *y_images):
            if g.ring != ring:
                raise AmbientMismatch("witness polynomial outside the ring")
        if point_b is not None:
            point_b = tuple(ring.field.coerce(c) for c in point_b)
            if len(point_b) != ring.nvars:
                raise AmbientMismatch("point length does not match the ring")
        return super().__new__(cls, ring, tuple(i_gens), tuple(m_gens), point_b,
                               tuple(x_images), tuple(y_images), claimed_n,
                               domain_claim)

    def ideal_i(self) -> IdealPresentation:
        return IdealPresentation(self.ring, self.i_gens)

    def ideal_m(self) -> IdealPresentation:
        return IdealPresentation(self.ring, self.m_gens)


class _Caps(NamedTuple):
    exponent_cap: int = 16
    probe_trials: int = 200
    probe_degree: int = 2
    seed: int = 0


class Caps(_Caps):
    """Resource knobs shared by verification and sweeps."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # the messages of radical_equals and prime_probe, which check again
        if self.exponent_cap < 1:
            raise ValueError("exponent cap must be at least 1")
        if self.probe_degree < 1 or self.probe_trials < 1:
            raise ValueError("degree bound and trial count must be positive")
        if self.probe_trials > PROBE_TRIAL_CAP:
            raise ValueError(f"over {PROBE_TRIAL_CAP} probe trials")
        return self


CERT_PASSED = "passed"
CERT_FAILED = "failed"
CERT_NOT_CERTIFIED = "not_certified"


class VerificationResult(NamedTuple):
    """The checks' outcomes.  ideals holds the presentations of m, (x) + I
    and I, with the bases they computed, which a sweep reads over Q to build
    its exceptional set.  It takes no part in as_dict."""

    condition1: RadicalResult
    condition2: tuple[bool, ...]
    condition2_residues: tuple[str, ...]
    condition3: str
    height_computed: int
    claimed_n: int
    prime_probe: ProbeResult | None
    complexity: ComplexityReport
    passed: bool
    ideals: tuple[IdealPresentation, ...]

    @property
    def height_ok(self) -> bool:
        return self.height_computed == self.claimed_n

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "condition1": self.condition1.as_dict(),
            "condition2": [
                {"alpha": k + 1, "zero": ok, "residue": res}
                for k, (ok, res) in enumerate(
                    zip(self.condition2, self.condition2_residues)
                )
            ],
            "condition3": self.condition3,
            "height": {
                "computed": self.height_computed,
                "claimed": self.claimed_n,
                "ok": self.height_ok,
            },
            "prime_probe": (
                self.prime_probe.as_dict() if self.prime_probe else None
            ),
            "complexity": self.complexity.as_dict(),
        }


def verify_witness(
    sys_: DiophantineSystem, w: Witness, caps: Caps = Caps()
) -> VerificationResult:
    """Run all witness checks in w's own coefficient field.

    Requires I inside m up front.  Overall pass needs the radical equality,
    vanishing of every equation, the height match, and, when a point is
    supplied, the rational-maximality certification.  The primality probe
    on I is attached as evidence when the witness claims a domain; a sweep
    runs it over Q only.
    """
    if len(w.x_images) != sys_.n or len(w.y_images) != sys_.r:
        raise AmbientMismatch("witness tuple shape does not match the system")
    ring = w.ring
    I = w.ideal_i()
    m = w.ideal_m()
    radical_src = IdealPresentation(ring, w.x_images + w.i_gens)
    if not ideal_contains(I, m):
        raise NotContained("I is not contained in m")
    cond1 = radical_equals(radical_src, m, caps.exponent_cap)

    images = list(w.x_images) + list(w.y_images)
    flags, residues = [], []
    for F in sys_.equations:
        residue = normal_form(substitute(F, images), I.basis)
        flags.append(not residue)
        residues.append(format_polynomial(residue))

    # I inside m was checked above, so the height is a plain difference
    height_n = height_poly(m).height - height_poly(I).height

    cond3 = CERT_NOT_CERTIFIED
    if w.point_b is not None:
        # I lies in m, so m = (T - b) also puts b on V(I)
        ok3 = rational_maximal(m, w.point_b)
        cond3 = CERT_PASSED if ok3 else CERT_FAILED

    probe = None
    if w.domain_claim:
        probe = prime_probe(I, caps.probe_degree, caps.probe_trials, caps.seed)

    passed = (
        cond1.equal
        and all(flags)
        and height_n == w.claimed_n
        and cond3 != CERT_FAILED
    )
    return VerificationResult(
        condition1=cond1,
        condition2=tuple(flags),
        condition2_residues=tuple(residues),
        condition3=cond3,
        height_computed=height_n,
        claimed_n=w.claimed_n,
        prime_probe=probe,
        complexity=complexity_of(
            ring.nvars,
            [g for g in (*w.i_gens, *w.m_gens, *w.x_images, *w.y_images) if g],
        ),
        passed=passed,
        ideals=(m, radical_src, I),
    )


def _dividing(numbers, candidates: Sequence[int]) -> set[int]:
    # the candidates dividing one of numbers: one product of the distinct
    # nonzero absolute values, one remainder per candidate up to it
    product = math.prod({abs(n) for n in numbers} - {0})
    ordered = sorted(candidates)
    return {p for p in ordered[: bisect_right(ordered, product)] if product % p == 0}


def bad_primes(w: Witness, candidates: Sequence[int]) -> dict[int, tuple[str, ...]]:
    """The candidate primes the sweep must exclude, with reasons.

    A candidate is bad when it divides a denominator anywhere in the
    witness data (every coefficient and the point b), or the numerator of
    a leading coefficient of a generator of I, m or (x): those vanishing
    mod p would collapse leading-term structure or drop degrees, silently
    distorting the uniform complexity claim.  A sound over-approximation,
    not a minimal set.  Each reason takes one product, of the denominators
    or of the leading numerators, and one remainder per candidate up to
    it (_dividing), so huge coefficients cost no factoring.
    """
    if not isinstance(w.ring.field, RationalField):
        raise AmbientMismatch("bad primes only make sense for rational witnesses")
    gens = (*w.i_gens, *w.m_gens, *w.x_images)
    denominators = {c.denominator for g in (*gens, *w.y_images) for _, c in g.terms}
    denominators.update(c.denominator for c in w.point_b or ())
    leads = {g.leading_coeff().numerator for g in gens if g}
    hits = {
        "denominator": _dividing(denominators, candidates),
        "leading-coeff": _dividing(leads, candidates),
    }
    return {
        p: tuple(why for why, ps in hits.items() if p in ps)
        for p in sorted(set.union(*hits.values()))
    }


def reduce_witness_mod_p(w: Witness, p: int) -> Witness:
    """Coefficient-reduce every witness component into F_p.

    Structure (variable counts, order, claimed height, domain claim) is
    preserved; Witness reads the point b into F_p.  Raises BadPrime on
    denominator hits and DegenerateGenerator when a generator of I, m or
    (x) collapses to zero or to a nonzero constant.
    """
    if not isinstance(w.ring.field, RationalField):
        raise AmbientMismatch("the witness already has positive characteristic")
    target = w.ring.with_field(PrimeField(p))

    def reduce_many(gens, structural: bool) -> tuple[Polynomial, ...]:
        out = []
        for g in gens:
            rg = reduce_coeffs_mod_p(g, target)
            if structural and g:
                if not rg:
                    raise DegenerateGenerator(
                        f"generator {format_polynomial(g)} vanishes mod {p}"
                    )
                if g.degree() > 0 and rg.degree() == 0:
                    raise DegenerateGenerator(
                        f"generator {format_polynomial(g)} becomes a unit mod {p}"
                    )
            out.append(rg)
        return tuple(out)

    i2 = reduce_many(w.i_gens, True)
    m2 = reduce_many(w.m_gens, True)
    x2 = reduce_many(w.x_images, True)
    y2 = reduce_many(w.y_images, False)
    return Witness(target, i2, m2, w.point_b, x2, y2, w.claimed_n, w.domain_claim)


def _conditions(res: VerificationResult) -> tuple:
    # what a sweep entry prints of a verification: condition 1's status,
    # the condition 2 flags, condition 3 and whether the height matched
    return (res.condition1.status, res.condition2, res.condition3, res.height_ok)


class PrimeOutcome(NamedTuple):
    """One sweep entry: verification summary or the recorded error."""

    p: int
    passed: bool | None
    d: int | None
    error: str | None
    unresolved_over_prime_field: bool
    conditions: tuple | None

    def as_dict(self) -> dict:
        out = self._asdict()
        if self.conditions is not None:
            cond1, cond2, cond3, height_ok = self.conditions
            out["conditions"] = {
                "condition1": cond1,
                "condition2": list(cond2),
                "condition3": cond3,
                "height_ok": height_ok,
            }
        return out


class SweepReport(NamedTuple):
    prime_range: tuple[int, int] | None
    bad_primes: tuple[tuple[int, tuple[str, ...]], ...]
    per_prime: tuple[PrimeOutcome, ...]
    uniform_d: int | None
    char0_d: int
    char0_result: VerificationResult

    def all_passed(self) -> bool:
        return all(o.passed for o in self.per_prime)

    def as_dict(self) -> dict:
        return {
            "prime_range": list(self.prime_range) if self.prime_range else None,
            "char0_d": self.char0_d,
            "uniform_d": self.uniform_d,
            "bad_primes": [
                {"p": p, "reasons": list(reasons)}
                for p, reasons in self.bad_primes
            ],
            "per_prime": [o.as_dict() for o in self.per_prime],
            "char0": self.char0_result.as_dict(),
        }


def _run_prime(
    sys_: DiophantineSystem, w: Witness, p: int, caps: Caps
) -> PrimeOutcome:
    # An outcome prints no probe, so w mod p is verified without one.
    try:
        wp = reduce_witness_mod_p(w, p)
        res = verify_witness(sys_, wp._replace(domain_claim=False), caps)
    except (
        BadPrime,
        DegenerateGenerator,
        NotContained,
        UnitIdeal,
        DegreeCapExceeded,
    ) as exc:
        return PrimeOutcome(p, None, None, f"{type(exc).__name__}: {exc}", False, None)
    # A failure confined to the rational-point certification may only mean
    # the witness point lives in a proper extension of F_p.
    unresolved = (
        not res.passed
        and res.condition3 == CERT_FAILED
        and res.condition1.equal
        and all(res.condition2)
        and res.height_ok
    )
    return PrimeOutcome(
        p, res.passed, res.complexity.complexity, None, unresolved, _conditions(res)
    )


def exceptional_primes(
    w: Witness, char0: VerificationResult, candidates: Sequence[int]
) -> set[int]:
    """The candidates at which a sweep runs every check.

    char0 is the passing verification of the rational witness w; no
    candidate is bad for w (bad_primes).  A candidate is exceptional when
    it divides, in one product taken once: a numerator or denominator of a
    pivot of the bases over Q of m, (x) + I and I (char0.ideals), or one
    top-degree coefficient numerator of each witness polynomial.

    At any other prime p, every check a sweep runs on w mod p (all but the
    probe) gives what a sweep entry prints of char0 (Traverso's Groebner
    trace, Pauer's lucky ideals):
    - no witness polynomial vanishes or drops degree, so no generator
      degenerates and the complexity is char0's;
    - buchberger runs at p in lockstep with its run over Q.  Each element
      it keeps over Q is p-integral and maps to the one kept at p: an input
      generator or a new remainder keeps its leading monomial (p divides no
      pivot) and its sugar (no generator drops degree), and a remainder zero
      over Q is zero at p.  The criteria read only leads, so the pairs, their
      order and the leads agree, and each basis at p is the image of Q's;
    - an image basis is monic, so NF_p of a p-integral image is the image
      of NF_Q, zero where NF_Q is.  Every NF_Q behind I in m, (x) + I in m,
      condition 2 and condition 3 is zero, so those are char0's, and the
      heights read the same leads.  NF_Q(g^e) is zero at char0's exponent
      e of each generator g of m, so the radical search at p stops at or
      before e and condition 1 is equal, which is all an entry prints of
      it.  An exponent at p is lower where p divides the content of an
      earlier NF_Q(g^e);
    - no cap fires at p that the checks over Q passed.  A division at p
      uses the same lead table in the same order, so its steps and pushed
      monomials are a subset of those of the division over Q, and a factor
      in F_p has no bit size.  The radical search at p takes no more powers
      than over Q, each with at most the terms it has over Q, so the
      product budgets hold; a basis run at p charges WORK_CAP for the same
      lead tests and a subset of Q's tail terms, 1 each (Q's at least 1).
    """
    numbers = {
        n
        for J in char0.ideals
        for c in J.groebner.pivots
        for n in (c.numerator, c.denominator)
    }
    numbers.update(
        max(g.terms, key=lambda t: sum(t[0]))[1].numerator
        for g in (*w.i_gens, *w.m_gens, *w.x_images, *w.y_images)
        if g
    )
    return _dividing(numbers, candidates)


def sweep(
    sys_: DiophantineSystem,
    w: Witness,
    primes: Sequence[int],
    caps: Caps = Caps(),
    prime_range: tuple[int, int] | None = None,
) -> SweepReport:
    """Verify over Q, then re-verify mod p only at the exceptional primes.

    Refuses first the smallest candidate that is not prime (ValueError),
    found by one sieve when no candidate exceeds PRIME_RANGE_CAP, then
    refuses to run unless the witness verifies in characteristic zero
    (CharZeroFailure carries the failing result).  Per-prime errors are
    recorded, never raised.  The primality probe runs once, in the
    verification over Q, which the report prints; no entry prints it.  A
    good prime outside exceptional_primes costs builtin calls only: its
    entry is char0's, with its p, which prints what every other check at p
    prints (the radical exponents at p may be lower, and no entry prints
    them).  The primes in S run every other check, one after another in
    ascending order, so the report is the same on every run.
    """
    candidates = sorted(set(map(int, primes)))
    if candidates and candidates[0] < 2:
        raise ValueError(f"{candidates[0]} is not prime")
    top = candidates[-1] if candidates else 0
    prime = _sieve(top).__getitem__ if top <= PRIME_RANGE_CAP else is_prime
    if not all(map(prime, candidates)):
        raise ValueError(f"{next(filterfalse(prime, candidates))} is not prime")
    char0 = verify_witness(sys_, w, caps)
    if not char0.passed:
        raise CharZeroFailure(char0)
    bad = bad_primes(w, candidates)
    good = [p for p in candidates if p not in bad] if bad else candidates
    if good:  # no F_p holds a good prime past the word bound: refuse it
        PrimeField(good[-1])
    exceptional = exceptional_primes(w, char0, good)
    char0_d = char0.complexity.complexity
    # PrimeOutcome._make's tuple.__new__, with no Python frame per prime
    rows = zip(good, *map(repeat, (True, char0_d, None, False, _conditions(char0))))
    outcomes = list(map(tuple.__new__, repeat(PrimeOutcome), rows))
    ran = [_run_prime(sys_, w, p, caps) for p in sorted(exceptional)]
    for o in ran:
        outcomes[bisect_left(good, o.p)] = o
    ds = [o.d for o in ran if o.d is not None] + [char0_d] * (len(ran) < len(good))
    if prime_range is None and candidates:
        prime_range = (candidates[0], candidates[-1])
    return SweepReport(
        prime_range=prime_range,
        bad_primes=tuple(bad.items()),
        per_prime=tuple(outcomes),
        uniform_d=max(ds, default=None),
        char0_d=char0_d,
        char0_result=char0,
    )


def _sieve(n: int) -> bytearray:
    # entry k is 1 exactly when k is prime, for 0 <= k <= n (Eratosthenes)
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return sieve


def primes_in_range(lo: int, hi: int) -> list[int]:
    """The primes in lo..hi, by one sieve when hi <= PRIME_RANGE_CAP, else by
    is_prime; a span wider than PRIME_RANGE_CAP is refused."""
    if hi - lo > PRIME_RANGE_CAP:
        raise ValueError(
            f"prime range {lo}..{hi} is wider than {PRIME_RANGE_CAP}"
        )
    lo = max(lo, 2)
    if hi > PRIME_RANGE_CAP:
        return [p for p in range(lo, hi + 1) if is_prime(p)]
    return list(compress(range(lo, hi + 1), _sieve(max(hi, 0))[lo:]))


def search_witness_points(I: IdealPresentation) -> list[tuple[int, ...]]:
    """All F_p-rational points of V(I), by exhaustive enumeration.

    Points are exponent-ordered tuples of residues; every returned point
    zeroes every generator.
    """
    field = I.ring.field
    if not isinstance(field, PrimeField):
        raise AmbientMismatch("point search runs over a prime field")
    p, n = field.p, I.ring.nvars
    if p ** n > POINT_BUDGET:
        raise BudgetExceeded(f"{p}^{n} points exceed the budget {POINT_BUDGET}")
    gens = [g for g in I.generators if g]
    out = []
    for point in _cartesian(range(p), repeat=n):
        if all(not g.evaluate(point) for g in gens):
            out.append(point)
    return out
