"""Outside-in layer tracing for the gbtransfer benchmark.

The tracer wraps public functions of the program's modules and records one
span per call: its name, its duration and the span that called it.  Spans
are folded in memory into (caller, callee) edges with call count, total
time and self time (the span minus the child spans it covers), and written
out when the run ends.  Nothing inside ``src/`` is modified: each wrapped
name is replaced in every program module and class that holds it, and put
back by ``uninstall``.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

# (module, qualified name) of every timed function; metric names are
# "<module>.<qualname>.<calls|total_s|self_s>".
TIMED = (
    ("transfer", "sweep"),
    ("transfer", "verify_witness"),
    ("transfer", "reduce_witness_mod_p"),
    ("transfer", "bad_primes"),
    ("predicates", "prime_probe"),
    ("predicates", "random_bounded_poly"),
    ("predicates", "radical_equals"),
    ("predicates", "height_in_quotient"),
    ("predicates", "dimension"),
    ("predicates", "rational_maximal"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "s_polynomial"),
    ("groebner", "ideal_member"),
    ("groebner", "ideal_contains"),
    ("groebner", "ideal_equal"),
    ("polyarith", "parse_polynomial"),
    ("polyarith", "Polynomial.__mul__"),
    ("polyarith", "PolyRing.from_dict"),
    ("polyarith", "substitute"),
    ("polyarith", "reduce_coeffs_mod_p"),
    ("encoding", "encode_ideal"),
    ("encoding", "decode_ideal"),
    ("encoding", "code_to_json"),
    ("encoding", "code_from_json"),
    ("cli", "load_case"),
    ("cli", "main"),
)
# Too hot to time: counted only.
COUNTED = (("polyarith", "MonomialOrder.sort_key"),)

PACKAGE = "gbtransfer"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, qual in TIMED:
        base = f"{mod}.{qual}"
        out += [
            (f"{base}.calls", "count", "lower"),
            (f"{base}.total_s", "s", "lower"),
            (f"{base}.self_s", "s", "lower"),
        ]
        if qual == "verify_witness":
            out += [(f"{base}.char0_s", "s", "lower"), (f"{base}.fp_s", "s", "lower")]
        if qual == "buchberger":
            out += [
                (f"{base}.hit_ratio", "ratio", "higher"),
                (f"{base}.miss_s", "s", "lower"),
            ]
    for mod, qual in COUNTED:
        out.append((f"{mod}.{qual.split('.')[-1]}.calls", "count", "lower"))
    out += [
        ("cli.import.calls", "count", "lower"),
        ("cli.import.total_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.extra: dict[str, float] = {}
        self.counters: dict[str, itertools.count] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._seen_keys: set = set()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _timed(self, name: str, fn, after=None):
        clock = time.perf_counter
        stack_of = self._stack
        edges, lock = self.edges, self._lock

        def span(*args, **kwargs):
            stack = stack_of()
            frame = [name, 0.0]
            caller = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with lock:
                    rec = edges.get((caller, name))
                    if rec is None:
                        rec = edges[(caller, name)] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if after is not None:
                    after(args, dt)

        span.__wrapped__ = fn
        return span

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] = self.extra.get(key, 0.0) + value

    def _verify_after(self, args, dt) -> None:
        field = args[1].ring.field
        kind = "char0_s" if type(field).__name__ == "RationalField" else "fp_s"
        self._add(f"transfer.verify_witness.{kind}", dt)

    def _count_hits(self, fn):
        # A presentation already seen since the last clear_cache is a hit,
        # whatever the program's own cache does with it.
        def call(pres, *args, **kwargs):
            key = (pres.ring, pres.generators)
            hit = key in self._seen_keys
            t0 = time.perf_counter()
            try:
                return fn(pres, *args, **kwargs)
            finally:
                if hit:
                    self._add("groebner.buchberger.hits", 1)
                else:
                    self._seen_keys.add(key)
                    self._add("groebner.buchberger.miss_s", time.perf_counter() - t0)

        return call

    def _clear_wrapper(self, fn):
        def clear_cache():
            self._seen_keys.clear()
            return fn()

        clear_cache.__wrapped__ = fn
        return clear_cache

    def _counted(self, name: str, fn):
        counter = self.counters[name] = itertools.count()
        tick = counter.__next__

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------

    def _replace(self, orig, new) -> None:
        """Point every program module global and class attribute at new."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            holders = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith(PACKAGE)
            ]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._patched.append((holder, attr, orig))
                        setattr(holder, attr, new)

    def install(self) -> None:
        pkg = sys.modules[PACKAGE]
        for mod, qual in TIMED:
            orig = _resolve(pkg, mod, qual)
            if orig is None:
                continue
            name = f"{mod}.{qual}"
            after = self._verify_after if qual == "verify_witness" else None
            fn = self._count_hits(orig) if qual == "buchberger" else orig
            self._replace(orig, self._timed(name, fn, after))
        for mod, qual in COUNTED:
            orig = _resolve(pkg, mod, qual)
            if orig is not None:
                name = f"{mod}.{qual.split('.')[-1]}"
                self._replace(orig, self._counted(name, orig))
        clear = _resolve(pkg, "groebner", "clear_cache")
        if clear is not None:
            self._replace(clear, self._clear_wrapper(clear))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready edge table plus extras; summable across processes.

        Reads the call counters, so take it once, after the traced pass.
        """
        extra = dict(self.extra)
        for name, counter in self.counters.items():
            extra[f"{name}.calls"] = float(next(counter))
        return {"edges": _edge_rows(self.edges), "extra": extra}


def _resolve(pkg, mod: str, qual: str):
    obj = getattr(pkg, mod, None)
    for part in qual.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def merge(snapshots: list[dict]) -> dict:
    """Sum edge tables and extras of several snapshots."""
    edges: dict[tuple[str, str], list] = {}
    extra: dict[str, float] = {}
    for snap in snapshots:
        for e in snap["edges"]:
            rec = edges.setdefault((e["caller"], e["name"]), [0, 0.0, 0.0])
            rec[0] += e["calls"]
            rec[1] += e["total_s"]
            rec[2] += e["self_s"]
        for k, v in snap["extra"].items():
            extra[k] = extra.get(k, 0.0) + v
    return {"edges": _edge_rows(edges), "extra": extra}


def _edge_rows(edges: dict[tuple[str, str], list]) -> list[dict]:
    return [
        {"caller": c, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
        for (c, n), r in sorted(edges.items())
    ]


def layer_metrics(
    snap: dict, overhead_frac: float, time_scale: float = 1.0
) -> dict[str, float]:
    """Per-layer metric values, keyed as in metric_specs().

    Times are multiplied by time_scale; counts and ratios are not.
    """
    per_name: dict[str, list] = {}
    for e in snap["edges"]:
        rec = per_name.setdefault(e["name"], [0, 0.0, 0.0])
        rec[0] += e["calls"]
        rec[1] += e["total_s"]
        rec[2] += e["self_s"]
    extra = snap["extra"]
    out: dict[str, float] = {}
    for name, _, _ in metric_specs():
        base, _, field = name.rpartition(".")
        if name in extra:
            out[name] = extra[name]
        elif base in per_name and field in ("calls", "total_s", "self_s"):
            calls, total, self_s = per_name[base]
            out[name] = {"calls": calls, "total_s": total, "self_s": self_s}[field]
        else:
            out[name] = 0.0
    bb = per_name.get("groebner.buchberger", [0])[0]
    out["groebner.buchberger.hit_ratio"] = (
        extra.get("groebner.buchberger.hits", 0.0) / bb if bb else 0.0
    )
    out["trace.overhead_frac"] = overhead_frac
    for name, unit, _ in metric_specs():
        if unit == "count":
            out[name] = int(out[name])
        elif unit == "s":
            out[name] *= time_scale
    return out
