"""Seeded inputs for the gbtransfer benchmark.

Every workload is an endless sequence of rounds.  A round holds a fixed mix
of operations (each bundled case once, each kernel ideal once, each CLI
command kind once); the seed picks the prime windows, the variants and the
order inside a round.  Keeping the mix fixed per round makes the latency
quantiles of a run independent of the seed.

Every choice is drawn from a finite grid, so every operation the generator
can emit has a recorded reference digest (see ``record.py``).  This module
does not import the program: it only describes operations.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("sweep-probe", "sweep-lift", "kernel-fp", "kernel-q", "cli")

# The passing rational bundled cases; fp_nilpotent is native F_p and
# square_root_bad_lift fails in characteristic zero, so sweep refuses both.
CASES = (
    "square_root",
    "sixth_scaled",
    "hyperbola",
    "cusp",
    "shifted_square",
    "tenth_scaled",
    "plane_origin",
)

PRIME_LIMIT = 20000
PROBE_WINDOW = 8  # consecutive primes per sweep-probe op
LIFT_WINDOW = 200  # consecutive primes per sweep-lift op
WINDOW_STARTS = 64  # positions a window may start at

# Scaled square_root variants divide the lift by a product of two of these,
# so bad_primes has to trial-divide a 12-digit denominator.
SCALE_PRIMES = (999931, 999953, 999961, 999983)
SCALE_PAIRS = tuple(
    (p, q)
    for i, p in enumerate(SCALE_PRIMES)
    for q in SCALE_PRIMES[i + 1:]
)

KERNEL_P = 32003
KERNEL_IDEALS = ("cyclic4", "katsura3", "katsura4", "cyclic5", "katsura5")

VERIFY_PRIMES = tuple(p for p in range(7, 100) if all(p % d for d in range(2, p)))
CLI_SWEEP_CASE = "sixth_scaled"
CLI_SWEEP_PRIMES = "2..200"

_CODE_QQ = (
    '{"complexity":2,"field":"Q","nvars":2,"order":"grevlex","rows":'
    '[["1","0","0","0","-1","0"],["0","1","0","0","0","0"],'
    '["0","0","0","0","0","0"],["0","0","0","0","0","0"],'
    '["0","0","0","0","0","0"],["0","0","0","0","0","0"]]}'
)
_CODE_F7 = (
    '{"complexity":1,"field":{"Fp":7},"nvars":1,"order":"grevlex","rows":'
    '[["1","5"],["0","0"]]}'
)

# Small inline operands for the one-shot predicate commands; each is
# expected to exit 0.
CLI_ONE_SHOTS = {
    "gb": (
        ("--vars", "x,y,z", "--ideal", "(x^2 - y, x*y - z, y^2 - x*z)"),
        ("--vars", "x,y,z", "--field", "F32003",
         "--ideal", "(x*y - 1, y*z - x, x^2 + y^2 + z^2 - 3)"),
        ("--vars", "x,y", "--order", "lex", "--ideal", "(x^2 + y^2 - 1, x - y)"),
    ),
    "member": (
        ("--vars", "x,y", "--f", "x^3 - x*y", "--ideal", "(x^2 - y)"),
        ("--vars", "x,y,z", "--field", "F101",
         "--f", "x*z - y^2*z", "--ideal", "(x - y^2, z^2 - x)"),
    ),
    "dim": (
        ("--vars", "x,y,z", "--ideal", "(x*y, x*z)"),
        ("--vars", "x,y,z,w", "--ideal", "(x*w - y*z, x^2 - y)"),
    ),
    "radical-eq": (
        ("--vars", "x,y", "--ideal", "(x^2, y^3)", "--radical", "(x, y)",
         "--cap", "4"),
        ("--vars", "x,y", "--field", "F7", "--ideal", "(x^2 - 2*x*y + y^2, y^2)",
         "--radical", "(x, y)"),
    ),
    "prime-probe": (
        ("--vars", "x,y", "--ideal", "(x^2 - y^3)", "--seed", "3"),
        ("--vars", "x,y,z", "--field", "F101", "--ideal", "(x - y*z, y - z^2)",
         "--seed", "1"),
    ),
    "maximal": (
        ("--vars", "x,y", "--ideal", "(x - 1, y + 2)", "--point", "1,-2"),
        ("--vars", "x,y", "--field", "F5", "--ideal", "(x - 2, x*y - 1)",
         "--point", "2,3"),
    ),
    "encode": (
        ("--vars", "x,y", "--ideal", "(x^2 - y, x*y)", "--d", "2"),
        ("--vars", "x,y,z", "--field", "F101", "--ideal", "(x - 1, y^2 - z)",
         "--d", "3"),
    ),
    "decode": (("--code", _CODE_QQ), ("--code", _CODE_F7)),
    "complexity": (
        ("--vars", "x,y", "--ideal", "(x^3 + y, x*y^2)"),
        ("--vars", "a,b,c", "--ideal", "(a*b*c - 1, a + b + c)"),
    ),
}


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


PRIMES = primes_up_to(PRIME_LIMIT)


def window(slot: int, size: int) -> list[int]:
    """The primes of window ``slot`` (0 <= slot < WINDOW_STARTS)."""
    last = len(PRIMES) - size
    start = slot * last // (WINDOW_STARTS - 1)
    return PRIMES[start:start + size]


def scaled_case(base: dict, p: int, q: int) -> dict:
    """square_root with the lift divided by p*q: 6*X1 - Y1^2 style scaling."""
    n = p * q
    case = {
        "ring": base["ring"],
        "system": dict(base["system"]),
        "witness": dict(base["witness"]),
    }
    eq = [dict(t) for t in base["system"]["equations"][0]]
    eq[0]["coeff"] = str(n)
    case["system"]["equations"] = [eq]
    case["witness"]["x"] = [[{"coeff": f"1/{n}", "exps": [2]}]]
    case["witness"]["domain_claim"] = False
    return case


def kernel_generators(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Variable names and generator strings of cyclic-n or katsura-n."""
    n = int(name[-1])
    if name.startswith("cyclic"):
        xs = tuple(f"x{i}" for i in range(n))
        gens = [
            " + ".join(
                "*".join(xs[(i + k) % n] for k in range(d)) for i in range(n)
            )
            for d in range(1, n)
        ]
        gens.append("*".join(xs) + " - 1")
        return xs, tuple(gens)
    xs = tuple(f"u{i}" for i in range(n + 1))
    gens = [" + ".join([xs[0]] + [f"2*{x}" for x in xs[1:]]) + " - 1"]
    for l in range(n):
        terms = [
            f"{xs[abs(l - i)]}*{xs[abs(i)]}"
            for i in range(-n, n + 1)
            if abs(l - i) <= n
        ]
        gens.append(" + ".join(terms) + f" - {xs[l]}")
    return xs, tuple(gens)


def _sweep_round(rng: random.Random, workload: str) -> list[tuple]:
    if workload == "sweep-probe":
        ops = [("probe", c, rng.randrange(WINDOW_STARTS)) for c in CASES]
    else:
        ops = [("lift", c, rng.randrange(WINDOW_STARTS)) for c in CASES]
        ops.append(
            ("scaled", rng.randrange(len(SCALE_PAIRS)), rng.randrange(WINDOW_STARTS))
        )
    return ops


def _cli_round(rng: random.Random, index: int, offsets: dict) -> list[tuple]:
    # The sweep case and the one-shot operands rotate with the round index
    # from seeded offsets, so every run sees nearly the same mix of costs.
    ops = [("cli", "verify", f"cases/{c}.json", "--char0") for c in CASES]
    ops += [
        ("cli", "verify", f"cases/{c}.json", "--prime", str(rng.choice(VERIFY_PRIMES)))
        for c in CASES
    ]
    ops.append(("cli", "sweep", f"cases/{CLI_SWEEP_CASE}.json", "--primes", CLI_SWEEP_PRIMES))
    for cmd, variants in CLI_ONE_SHOTS.items():
        ops.append(("cli", cmd) + variants[(index + offsets[cmd]) % len(variants)])
    return ops


def rounds(workload: str, seed: int):
    """Endless, deterministic sequence of rounds for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    offsets = {cmd: rng.randrange(len(v)) for cmd, v in CLI_ONE_SHOTS.items()}
    for index in itertools.count():
        if workload.startswith("sweep"):
            ops = _sweep_round(rng, workload)
        elif workload == "cli":
            ops = _cli_round(rng, index, offsets)
        else:
            field = "fp" if workload == "kernel-fp" else "q"
            ops = [("kernel", field, name) for name in KERNEL_IDEALS]
        rng.shuffle(ops)
        yield ops


def all_ops(workload: str) -> list[tuple]:
    """Every operation the generator can emit for a workload."""
    if workload == "sweep-probe":
        return [("probe", c, s) for c in CASES for s in range(WINDOW_STARTS)]
    if workload == "sweep-lift":
        return [("lift", c, s) for c in CASES for s in range(WINDOW_STARTS)] + [
            ("scaled", k, s)
            for k in range(len(SCALE_PAIRS))
            for s in range(WINDOW_STARTS)
        ]
    if workload.startswith("kernel"):
        field = "fp" if workload == "kernel-fp" else "q"
        return [("kernel", field, name) for name in KERNEL_IDEALS]
    ops = [("cli", "verify", f"cases/{c}.json", "--char0") for c in CASES]
    ops += [
        ("cli", "verify", f"cases/{c}.json", "--prime", str(p))
        for c in CASES
        for p in VERIFY_PRIMES
    ]
    ops.append(
        ("cli", "sweep", f"cases/{CLI_SWEEP_CASE}.json", "--primes", CLI_SWEEP_PRIMES)
    )
    for cmd, variants in CLI_ONE_SHOTS.items():
        ops += [("cli", cmd) + v for v in variants]
    return ops


KEY_SEP = "|"


def op_key(op: tuple) -> str:
    """Stable text key of an operation, used to look up its digest."""
    return KEY_SEP.join(str(part) for part in op)
