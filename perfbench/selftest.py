"""Tests of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, self time and busy time on synthetic span
trees, the merge of a child process's spans, that every wrapper is gone
after a traced pass, and that BENCHMARK.json names exactly the metrics
the runner prints.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import run
import workloads  # imports fibera from this checkout's src/
import tracing
from stats import tail

import fibera
from fibera import gradedlin, infinity, parse

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent, op=1):
    return [name, float(start), float(end), parent, op]


class TailRule(unittest.TestCase):
    def test_eleven_samples_pick_the_smallest(self):
        value, pct, n = tail(range(1, 12))
        self.assertEqual((value, n), (1, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_hundred_samples_pick_p90(self):
        value, pct, n = tail(list(range(100, 0, -1)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_exactly_ten_samples_lie_beyond(self):
        xs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3]
        value, _, _ = tail(xs)
        ordered = sorted(xs)
        index = ordered.index(value)
        self.assertEqual(len(ordered[len(xs) - 10:]), 10)
        self.assertLessEqual(index, len(xs) - 11)
        self.assertEqual(ordered[len(xs) - 11], value)

    def test_ten_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            tail(range(10))


class SpanArithmetic(unittest.TestCase):
    # op 0..10
    #   gradedlin.factor 1..4
    #     polyform.wedge 2..3
    #   fibre.fibre_class 5..9
    #     gradedlin.solve 6..8
    #       gradedlin.solve 6.5..7   (same name nested: busy counts it once)
    TREE = [
        span("op", 0, 10, -1),
        span("gradedlin.factor", 1, 4, 0),
        span("polyform.wedge", 2, 3, 1),
        span("fibre.fibre_class", 5, 9, 0),
        span("gradedlin.solve", 6, 8, 3),
        span("gradedlin.solve", 6.5, 7, 4),
    ]

    def test_self_times(self):
        selfs = tracing.self_times(self.TREE)
        self.assertEqual(selfs["op"], 3.0)
        self.assertEqual(selfs["gradedlin"], 2.0 + 1.5 + 0.5)
        self.assertEqual(selfs["polyform"], 1.0)
        self.assertEqual(selfs["fibre"], 2.0)

    def test_self_times_add_up_to_root_time(self):
        selfs = tracing.self_times(self.TREE)
        self.assertEqual(sum(selfs.values()), 10.0)

    def test_two_roots(self):
        tree = self.TREE + [span("op", 20, 25, -1, op=2),
                            span("groebner.buchberger", 21, 22, 6, op=2)]
        selfs = tracing.self_times(tree)
        self.assertEqual(selfs["op"], 3.0 + 4.0)
        self.assertEqual(sum(selfs.values()), 15.0)

    def test_busy_counts_nested_same_name_once(self):
        solve = lambda n: n == "gradedlin.solve"
        self.assertEqual(tracing.busy(self.TREE, solve), 2.0)
        layer = lambda n: n.startswith("gradedlin.")
        self.assertEqual(tracing.busy(self.TREE, layer), 5.0)

    def test_calls_within(self):
        self.assertEqual(tracing.calls(self.TREE, "gradedlin.solve"), 2)
        self.assertEqual(tracing.calls_within(
            self.TREE, "gradedlin.solve", "fibre.fibre_class"), 2)
        self.assertEqual(tracing.calls_within(
            self.TREE, "polyform.wedge", "fibre.fibre_class"), 0)

    def test_adopt_child_spans(self):
        tr = tracing.Tracer()
        tr.spans.append(span("op", 0, 10, -1, op=4))
        child = {"spans": [["cli.main", 2, 9, -1], ["parse.problem", 3, 4, 0]],
                 "counts": {"basis_len_max": 6, "solve.unsolvable": 2}}
        tr.counts["basis_len_max"] = 9
        tr.counts["solve.unsolvable"] = 1
        tr.adopt(child, 0)
        self.assertEqual(tr.spans[1], span("cli.main", 2, 9, 0, op=4))
        self.assertEqual(tr.spans[2], span("parse.problem", 3, 4, 1, op=4))
        self.assertEqual(tr.cli_startup_s, [3.0])
        self.assertEqual(tr.counts["basis_len_max"], 9)
        self.assertEqual(tr.counts["solve.unsolvable"], 3)
        selfs = tracing.self_times(tr.spans)
        self.assertEqual((selfs["op"], selfs["cli"], selfs["parse"]),
                         (3.0, 6.0, 1.0))


def bindings():
    """Every (namespace, attribute) -> object that tracing may replace."""
    out = {}
    for ns in tracing.fibera_modules():
        for key, value in vars(ns).items():
            out[(ns.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(ns.__name__, f"{key}.{attr}")] = member
    return out


class Wrappers(unittest.TestCase):
    def test_traced_pass_leaves_no_wrapper_behind(self):
        before = bindings()
        tr = tracing.Tracer()
        with tracing.traced(tr):
            self.assertIsNot(infinity.monomial_basis, before[
                ("fibera.infinity", "monomial_basis")])
            with tr.op_span(1):
                P = parse.parse_problem(workloads.RelativeGolden.text)
                F = infinity.PolyMap(P.map_components, P.weights)
                B = infinity.infinity_basis(F)
        self.assertEqual(B.mu, 5)
        names = {s[0] for s in tr.spans}
        for expected in ("op", "parse.problem", "infinity.polymap",
                         "infinity.basis", "gradedlin.factor",
                         "gradedlin.solve", "groebner.buchberger"):
            self.assertIn(expected, names)
        self.assertEqual(tracing.wrapped_names(), [])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_reimported_names_are_wrapped_everywhere(self):
        tr = tracing.Tracer()
        with tracing.traced(tr):
            for ns in (fibera, gradedlin, infinity):
                self.assertTrue(hasattr(ns.monomial_basis, "__perfbench_span__"))
            self.assertIs(infinity.buchberger, fibera.groebner.buchberger)
            self.assertTrue(hasattr(gradedlin.CombinationSolver.solve,
                                    "__perfbench_span__"))
        self.assertFalse(hasattr(infinity.monomial_basis, "__perfbench_span__"))

    def test_factor_shape_from_columns_passed_any_way(self):
        from fractions import Fraction
        cols = [{"r1": Fraction(1, 2), "r2": 3}, {"r1": 1}, {"r1": 2, "r2": 6}]
        tr = tracing.Tracer()
        with tracing.traced(tr):
            with tr.op_span(1):
                a = gradedlin.ExactLinearSolver(iter(cols))
                b = gradedlin.ExactLinearSolver(columns=cols)
        self.assertEqual((a.rank, b.rank), (2, 2))
        self.assertEqual(tracing.calls(tr.spans, "gradedlin.factor"), 2)
        c = tr.counts
        self.assertEqual((c["factor.rows_max"], c["factor.cols_max"],
                          c["factor.rank_max"], c["factor.nnz_sum"],
                          c["factor.max_bits"]), (2, 3, 2, 10, 3))

    def test_no_recording_outside_an_op(self):
        tr = tracing.Tracer()
        with tracing.traced(tr):
            parse.parse_problem(workloads.RelativeGolden.text)
        self.assertEqual(tr.spans, [])

    def test_installing_twice_is_refused(self):
        tr = tracing.Tracer()
        with tracing.traced(tr):
            with self.assertRaises(RuntimeError):
                tracing.install(tr)
        self.assertEqual(tracing.wrapped_names(), [])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(workloads.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
