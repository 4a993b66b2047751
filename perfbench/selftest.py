"""Tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

The reference-basis test needs sympy and is skipped without it.  The file
name keeps a plain ``pytest`` run of the repository from collecting these
slower tests; ``python3 -m pytest perfbench/selftest.py`` also runs them.
"""

from __future__ import annotations

import itertools
import json
import unittest

import gen
import run
import spans


def first_rounds(workload: str, seed: int, n: int) -> list[list[tuple]]:
    return list(itertools.islice(gen.rounds(workload, seed), n))


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(
                first_rounds(workload, 7, 4), first_rounds(workload, 7, 4)
            )
        self.assertNotEqual(
            first_rounds("sweep-probe", 1, 4), first_rounds("sweep-probe", 2, 4)
        )

    def test_rounds_keep_a_fixed_mix(self):
        for workload in gen.WORKLOADS:
            kinds = {
                tuple(sorted(op[:2] if op[0] == "cli" else op[:1] for op in r))
                for r in first_rounds(workload, 3, 6)
            }
            self.assertEqual(len(kinds), 1, workload)

    def test_every_generated_op_has_a_digest(self):
        ref = json.loads((run.BENCH / "reference.json").read_text(encoding="utf-8"))
        for workload in gen.WORKLOADS:
            known = {gen.op_key(op) for op in gen.all_ops(workload)}
            self.assertEqual(known, set(ref["digests"][workload]), workload)
            for seed in range(5):
                for r in first_rounds(workload, seed, 20):
                    for op in r:
                        self.assertIn(gen.op_key(op), known)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            spans.metric_specs(),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )


class TraceTest(unittest.TestCase):
    def test_traced_outputs_match_and_counts_repeat(self):
        for workload in ("sweep-probe", "sweep-lift", "kernel-fp", "cli"):
            first = run.trace(workload, seed=11, seconds=1)
            second = run.trace(workload, seed=11, seconds=1)
            # trace() counts a traced output that differs from the
            # untraced one as a failure.
            self.assertTrue(first["correct"], workload)
            self.assertEqual(first["failed"], 0, workload)
            calls = {
                k: v["value"] for k, v in first["metrics"].items()
                if k.endswith(".calls")
            }
            self.assertEqual(
                calls,
                {k: second["metrics"][k]["value"] for k in calls},
                workload,
            )
            self.assertGreater(calls["groebner.buchberger.calls"], 0, workload)

    def test_tracer_restores_the_program(self):
        prog = run.set_up("kernel-fp")
        before = prog.gt.buchberger, prog.gt.polyarith.Polynomial.__mul__
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(prog.gt.buchberger, before[0])
        tracer.uninstall()
        self.assertIs(prog.gt.buchberger, before[0])
        self.assertIs(prog.gt.polyarith.Polynomial.__mul__, before[1])


class ReferenceBasisTest(unittest.TestCase):
    def test_kernel_bases_match_sympy(self):
        try:
            import sympy
        except ImportError:
            self.skipTest("sympy is not installed")
        digests = json.loads(
            (run.BENCH / "reference.json").read_text(encoding="utf-8")
        )["digests"]
        fields = (("kernel-q", {"domain": "QQ"}), ("kernel-fp", {"modulus": gen.KERNEL_P}))
        for workload, kw in fields:
            prog = run.set_up(workload)
            for name in ("cyclic5", "katsura5"):
                names, gens = gen.kernel_generators(name)
                syms = sympy.symbols(names)
                ref = sympy.groebner(
                    [sympy.sympify(g.replace("^", "**")) for g in gens],
                    *syms, order="grevlex", **kw,
                )
                ours = prog.gt.buchberger(prog.inputs[name]).basis
                as_poly = [
                    sympy.Poly(
                        sympy.sympify(prog.gt.format_polynomial(g).replace("^", "**")),
                        *syms, **kw,
                    ).monic()
                    for g in ours
                ]
                theirs = [sympy.Poly(e, *syms, **kw).monic() for e in ref.exprs]
                self.assertEqual(
                    {p.as_expr() for p in as_poly},
                    {p.as_expr() for p in theirs},
                    f"{name} {workload}",
                )
                # The recorded digest is the digest of this checked basis.
                op = ("kernel", workload.split("-")[1], name)
                self.assertEqual(
                    run.digest(run.Runner(prog)(op)[2]),
                    digests[workload][gen.op_key(op)],
                )


if __name__ == "__main__":
    unittest.main()
