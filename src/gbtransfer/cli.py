"""Command-line surface: case files, verification, sweeps, predicate tools.

Exit codes: 0 for a pass, 1 for a negative verdict, 2 for structural or
parse errors.  Standard output carries machine-readable JSON only;
messages go to standard error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain, islice, repeat
from operator import itemgetter, mod
from pathlib import Path

from .encoding import (
    code_from_json,
    code_to_json,
    decode_ideal,
    encode_ideal,
    field_from_json,
)
from .groebner import DegreeCapExceeded, IdealPresentation
from .polyarith import (
    AmbientMismatch,
    MonomialOrder,
    PolyRing,
    PrimeField,
    QQ,
    RationalField,
    format_polynomial,
    parse_polynomial,
)
from .predicates import (
    complexity,
    dimension,
    height_poly,
    prime_probe,
    radical_equals,
    rational_maximal,
)
from .transfer import (
    Caps,
    CharZeroFailure,
    DiophantineSystem,
    Witness,
    primes_in_range,
    reduce_witness_mod_p,
    sweep,
    system_ring,
    verify_witness,
)


class CaseFormatError(ValueError):
    """A case file does not match the expected schema."""


def _emit(obj) -> None:
    _write(chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj), "\n"), ())


def _emit_sweep(report, *outs) -> None:
    # what _emit(report.as_dict()) writes, to every out, each distinct entry
    # but the last encoded once (_entry): indented JSON escapes line breaks
    # in strings, so a line break and an indent can only mark a key
    init, rest = report.per_prime[:-1], itemgetter(slice(1, None))
    entries = {k: _entry(o) for k, o in dict(zip(map(rest, init), init)).items()}
    texts = map(mod, map(entries.__getitem__, map(rest, init)), map(itemgetter(0), init))
    last = report._replace(per_prime=report.per_prime[-1:]).as_dict()
    text = json.dumps(last, indent=2, sort_keys=True)
    head, sep, tail = text.partition('\n  "per_prime": [')
    _write(chain((head, sep), texts, (tail, "\n")), outs)


def _entry(o) -> str:
    # o's entry in per_prime and a comma, as a %-template of its p
    text = f"\n{json.dumps(o.as_dict(), indent=2, sort_keys=True)},".replace("%", "%%")
    return text.replace("\n", "\n    ").replace(f'\n      "p": {o.p},', '\n      "p": %d,')


def _write(chunks, outs) -> None:
    # to every out (stdout when none is given) in batches, never one string
    while batch := "".join(islice(chunks, 4096)):
        for out in outs or (sys.stdout,):
            out.write(batch)


def _expect_keys(obj, required, optional=(), where="object"):
    if not isinstance(obj, dict):
        raise CaseFormatError(f"{where} must be a JSON object")
    keys = set(obj)
    missing = sorted(set(required) - keys)
    unknown = sorted(keys - set(required) - set(optional))
    if missing:
        raise CaseFormatError(f"{where} is missing keys: {', '.join(missing)}")
    if unknown:
        raise CaseFormatError(f"{where} has unknown keys: {', '.join(unknown)}")


def _coeff_string(value, where):
    if isinstance(value, str) or type(value) is int:  # not bool, not float
        return str(value)
    raise CaseFormatError(f"{where}: coefficients must be exact strings")


def _poly_from_json(obj, ring: PolyRing, where: str):
    if not isinstance(obj, list):
        raise CaseFormatError(f"{where} must be a list of terms")
    pairs = []
    for k, term in enumerate(obj):
        _expect_keys(term, ("coeff", "exps"), where=f"{where}[{k}]")
        exps = term["exps"]
        if not isinstance(exps, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0
            for e in exps
        ):
            raise CaseFormatError(
                f"{where}[{k}]: exps must be non-negative integers"
            )
        coeff = _coeff_string(term["coeff"], f"{where}[{k}]")
        try:
            pairs.append((ring.field.coerce(coeff), tuple(exps)))
        except ValueError as exc:
            raise CaseFormatError(f"{where}[{k}]: {exc}") from exc
    try:
        return ring.from_terms(pairs)
    except ValueError as exc:
        raise CaseFormatError(f"{where}: {exc}") from exc


def parse_case(obj) -> tuple[DiophantineSystem, Witness]:
    """Strict CaseFile reader: unknown fields are rejected."""
    _expect_keys(obj, ("ring", "system", "witness"), where="case")

    ring_obj = obj["ring"]
    _expect_keys(ring_obj, ("field", "vars", "order"), where="ring")
    try:
        field = field_from_json(ring_obj["field"])
        order = MonomialOrder(ring_obj["order"])
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from exc
    names = ring_obj["vars"]
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(v, str) and v for v in names)
        or len(set(names)) != len(names)
    ):
        raise CaseFormatError("ring.vars must be distinct non-empty names")
    ring = PolyRing(field, len(names), order, tuple(names))

    sys_obj = obj["system"]
    _expect_keys(sys_obj, ("n", "r", "equations"), where="system")
    n, r = sys_obj["n"], sys_obj["r"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (n, r)):
        raise CaseFormatError("system.n and system.r must be non-negative ints")
    sring = system_ring(n, r, order)
    if not isinstance(sys_obj["equations"], list):
        raise CaseFormatError("system.equations must be a list")
    equations = tuple(
        _poly_from_json(eq, sring, f"system.equations[{k}]")
        for k, eq in enumerate(sys_obj["equations"])
    )
    try:
        system = DiophantineSystem(n, r, equations)
    except ValueError as exc:
        raise CaseFormatError(f"system: {exc}") from exc

    w_obj = obj["witness"]
    _expect_keys(
        w_obj,
        ("I", "m", "b", "x", "y", "claimed_n", "domain_claim"),
        where="witness",
    )

    def polys(key: str) -> tuple:
        block = w_obj[key]
        if not isinstance(block, list):
            raise CaseFormatError(f"witness.{key} must be a list of polynomials")
        return tuple(
            _poly_from_json(entry, ring, f"witness.{key}[{k}]")
            for k, entry in enumerate(block)
        )

    i_gens, m_gens = polys("I"), polys("m")
    x_images, y_images = polys("x"), polys("y")

    b_obj = w_obj["b"]
    point_b = None
    if b_obj is not None:
        if not isinstance(b_obj, list):
            raise CaseFormatError("witness.b must be null or a coordinate list")
        coords = [_coeff_string(c, f"witness.b[{k}]") for k, c in enumerate(b_obj)]
        try:
            point_b = tuple(ring.field.coerce(c) for c in coords)
        except ValueError as exc:
            raise CaseFormatError(f"witness.b: {exc}") from exc

    claimed_n = w_obj["claimed_n"]
    if not isinstance(claimed_n, int) or isinstance(claimed_n, bool) or claimed_n < 0:
        raise CaseFormatError("witness.claimed_n must be a non-negative int")
    if not isinstance(w_obj["domain_claim"], bool):
        raise CaseFormatError("witness.domain_claim must be a boolean")

    try:
        witness = Witness(
            ring,
            i_gens,
            m_gens,
            point_b,
            x_images,
            y_images,
            claimed_n,
            w_obj["domain_claim"],
        )
    except AmbientMismatch as exc:
        raise CaseFormatError(f"witness: {exc}") from exc
    return system, witness


def load_case(path: str) -> tuple[DiophantineSystem, Witness]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CaseFormatError(f"cannot read case file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"case file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CaseFormatError("case file nests too deeply") from exc
    return parse_case(obj)


def _read_operand(text: str) -> str:
    if text.startswith("@"):
        try:
            return Path(text[1:]).read_text(encoding="utf-8").strip()
        except OSError as exc:
            raise CaseFormatError(f"cannot read operand file: {exc}") from exc
    return text


_FIELD_FLAG = re.compile(r"^F(\d+)$")


def _ring_from_args(args) -> PolyRing:
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise CaseFormatError("--vars needs a comma-separated name list")
    if args.field == "Q":
        field = QQ
    else:
        m = _FIELD_FLAG.match(args.field)
        if not m:
            raise CaseFormatError('--field must be "Q" or "F<p>"')
        field = PrimeField(int(m.group(1)))
    return PolyRing(field, len(names), MonomialOrder(args.order), names)


def _parse_ideal_arg(text: str, ring: PolyRing) -> IdealPresentation:
    body = _read_operand(text).strip()
    if body.startswith("("):  # strip one pair only if it encloses everything
        depth = 0
        for k, ch in enumerate(body):
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                if k == len(body) - 1:
                    body = body[1:-1]
                break
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:k])
            start = k + 1
    parts.append(body[start:])
    gens = tuple(parse_polynomial(part, ring) for part in parts if part.strip())
    if not gens:
        raise CaseFormatError("empty ideal operand")
    return IdealPresentation(ring, gens)


def _parse_point_arg(text: str, ring: PolyRing) -> tuple:
    coords = [c.strip() for c in _read_operand(text).split(",")]
    try:
        return tuple(ring.field.coerce(c) for c in coords)
    except ValueError as exc:
        raise CaseFormatError(f"bad point: {exc}") from exc


def _caps_from_args(args) -> Caps:
    return Caps(**{name: getattr(args, name) for name in Caps._fields})


def _cmd_verify(args) -> int:
    system, witness = load_case(args.case)
    caps = _caps_from_args(args)
    if args.prime is not None:
        witness = reduce_witness_mod_p(witness, args.prime)
    elif args.char0 and not isinstance(witness.ring.field, RationalField):
        raise CaseFormatError("--char0 requires a rational-field case")
    result = verify_witness(system, witness, caps)
    _emit(result.as_dict())
    return 0 if result.passed else 1


_PRIME_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_primes_flag(text: str) -> tuple[list[int], tuple[int, int] | None]:
    m = _PRIME_RANGE.match(text.strip())
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        return primes_in_range(lo, hi), (lo, hi)
    try:
        explicit = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CaseFormatError(
            '--primes takes "LO..HI" or a comma-separated list'
        ) from exc
    return explicit, None


def _cmd_sweep(args) -> int:
    system, witness = load_case(args.case)
    caps = _caps_from_args(args)
    primes, prime_range = _parse_primes_flag(args.primes)
    try:
        report = sweep(system, witness, primes, caps, prime_range=prime_range)
    except CharZeroFailure as exc:
        print("witness fails in characteristic zero", file=sys.stderr)
        _emit(exc.result.as_dict())
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            _emit_sweep(report, out, sys.stdout)
    else:
        _emit_sweep(report)
    return 0 if report.all_passed() else 1


def _run_gb(pres, args):
    return {"basis": [format_polynomial(g) for g in pres.basis]}, 0


def _run_member(pres, args):
    f = parse_polynomial(_read_operand(args.f), pres.ring)
    residue = pres.normal_form(f)
    payload = {"member": not residue, "normal_form": format_polynomial(residue)}
    return payload, 1 if residue else 0


def _run_dim(pres, args):
    return {"dimension": dimension(pres)}, 0


def _run_height(pres, args):
    return height_poly(pres).as_dict(), 0


def _run_radical_eq(pres, args):
    P = _parse_ideal_arg(args.radical, pres.ring)
    result = radical_equals(pres, P, args.cap)
    return result.as_dict(), 0 if result.equal else 1


def _run_prime_probe(pres, args):
    result = prime_probe(pres, args.degree_bound, args.trials, args.seed)
    return result.as_dict(), 0 if result.probably_prime else 1


def _run_maximal(pres, args):
    ring = pres.ring
    point = _parse_point_arg(args.point, ring)
    if len(point) != ring.nvars:
        raise CaseFormatError("point length does not match --vars")
    verdict = rational_maximal(pres, point)
    payload = {
        "rational_maximal": verdict,
        "point": [str(c) for c in point],
    }
    return payload, 0 if verdict else 1


def _run_encode(pres, args):
    return code_to_json(encode_ideal(pres, args.d)), 0


def _run_complexity(pres, args):
    return complexity(pres).as_dict(), 0


# Commands on one ideal given by the ring flags and --ideal: (name, help,
# extra flags, run(pres, args) -> (payload, exit code)).  A str payload is
# printed as is, any other as indented JSON.
_IDEAL_COMMANDS = (
    ("gb", "reduced Groebner basis", {}, _run_gb),
    ("member", "ideal membership", {"--f": {"required": True}}, _run_member),
    ("dim", "Krull dimension of ring/I", {}, _run_dim),
    ("height", "codimension of an ideal", {}, _run_height),
    (
        "radical-eq",
        "bounded radical equality check",
        {
            "--radical": {"required": True, "help": "the candidate prime P"},
            "--cap": {"type": int, "default": Caps().exponent_cap},
        },
        _run_radical_eq,
    ),
    (
        "prime-probe",
        "randomized non-primality search",
        {
            "--degree-bound": {"type": int, "default": Caps().probe_degree},
            "--trials": {"type": int, "default": Caps().probe_trials},
            "--seed": {"type": int, "default": Caps().seed},
        },
        _run_prime_probe,
    ),
    (
        "maximal",
        "rational maximality certification",
        {"--point": {"required": True, "help": "comma-separated coordinates"}},
        _run_maximal,
    ),
    (
        "encode",
        "flatten an ideal to its code",
        {"--d": {"type": int, "required": True}},
        _run_encode,
    ),
    ("complexity", "presentation complexity report", {}, _run_complexity),
)


def _cmd_ideal(args) -> int:
    pres = _parse_ideal_arg(args.ideal, _ring_from_args(args))
    payload, code = args.run(pres, args)
    if isinstance(payload, str):
        print(payload)
    else:
        _emit(payload)
    return code


def _cmd_decode(args) -> int:
    code = code_from_json(_read_operand(args.code))
    pres = decode_ideal(code)
    _emit({
        "nvars": code.nvars,
        "complexity": code.complexity,
        "generators": [format_polynomial(g) for g in pres.generators],
    })
    return 0


def _add_caps_flags(sub) -> None:
    # one flag per Caps field, --exponent-cap for exponent_cap
    for name, default in Caps()._asdict().items():
        sub.add_argument("--" + name.replace("_", "-"), type=int, default=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbtransfer",
        description="Exact Groebner predicates and mod-p witness sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="verify a witness case file")
    p.add_argument("case")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, default=None)
    group.add_argument("--char0", action="store_true")
    _add_caps_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("sweep", help="re-verify a case at every good prime")
    p.add_argument("case")
    p.add_argument("--primes", required=True, help='"LO..HI" or "p1,p2,..."')
    p.add_argument("--output", default=None)
    _add_caps_flags(p)
    p.set_defaults(func=_cmd_sweep)

    for name, help_text, flags, run in _IDEAL_COMMANDS:
        if name == "complexity":  # decode keeps its place in the help listing
            p = subs.add_parser("decode", help="rebuild generators from a code")
            p.add_argument("--code", required=True, help="inline JSON or @file")
            p.set_defaults(func=_cmd_decode)
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("--field", default="Q", help='"Q" (default) or "F<p>"')
        p.add_argument("--order", default="grevlex", choices=("grevlex", "lex"))
        p.add_argument("--ideal", required=True)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=_cmd_ideal, run=run)
    return parser


# Flags whose value is a polynomial, an ideal, a point or a code, which may
# start with "-": "--f -x", "--point -1,-2".
_OPERAND_FLAGS = frozenset({"--f", "--ideal", "--radical", "--point", "--code"})


def _attach_operands(argv: list[str]) -> list[str]:
    """Join each operand flag to the token after it: "--f", "-x" -> "--f=-x".

    argparse reads a token that starts with "-" as a flag of its own and
    then finds the operand flag without a value.  Every option of the CLI
    but -h is a long "--name", so such a token stays a flag and
    "--ideal --field F7" still fails.
    """
    out: list[str] = []
    for token in argv:
        is_option = token.startswith("--") or token == "-h"
        if out and out[-1] in _OPERAND_FLAGS and not is_option:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# Every input and structural error the program raises is a ValueError; the
# kernel caps raise DegreeCapExceeded.
_STRUCTURAL_ERRORS = (ValueError, DegreeCapExceeded, OSError)


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_operands(argv))
    try:
        return args.func(args)
    except _STRUCTURAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
