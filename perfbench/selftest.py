"""Self-tests for the benchmark's reference checks.

Each check must accept the known answer and reject a perturbed one: a
flipped probability, a flipped verdict, a wrong defect path. These tests
need no cslcheck import.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402


def _store_text(env, family) -> str:
    return json.dumps(w.store_doc(env, family))


class RunReference(unittest.TestCase):
    def setUp(self):
        rng = random.Random(7)
        self.inputs = {n: w.otp_input(rng, False, n, "message", 6) for n in (1, 2)}
        self.want = {n: w.otp_output(d, False, n) for n, d in self.inputs.items()}
        self.check = w.check_store(w.OTP_ENV, self.want)

    def test_closed_form_is_a_distribution(self):
        for dist in self.want.values():
            self.assertEqual(sum(dist.values()), 1)

    def test_closed_form_on_uniform_input_is_uniform(self):
        for stretch in (False, True):
            d = w.otp_input(random.Random(0), stretch, 2, "uniform", 0)
            out = w.otp_output(d, stretch, 2)
            points = 2 ** (2 + 3 if stretch else 2 + 2)  # keys x messages
            self.assertEqual(len(out), points)
            self.assertEqual(set(out.values()), {Fraction(1, points)})

    def test_potp_pads_the_key_with_a_zero(self):
        out = w.otp_output({("000", "00", "101"): Fraction(1)}, True, 2)
        self.assertEqual(out[("111", "01", "101")], Fraction(1, 4))

    def test_accepts_the_known_answer(self):
        self.assertIsNone(self.check(0, _store_text(w.OTP_ENV, self.want), ""))

    def test_rejects_one_flipped_probability(self):
        bad = {n: dict(d) for n, d in self.want.items()}
        a, b = sorted(bad[2])[:2]
        bad[2][a], bad[2][b] = bad[2][a] + Fraction(1, 64), bad[2][b] - Fraction(1, 64)
        self.assertIn("closed form", self.check(0, _store_text(w.OTP_ENV, bad), ""))

    def test_rejects_a_missing_point_a_repeated_point_and_a_bad_exit(self):
        bad = {n: dict(d) for n, d in self.want.items()}
        bad[1].pop(min(bad[1]))
        self.assertIsNotNone(self.check(0, _store_text(w.OTP_ENV, bad), ""))
        doc = w.store_doc(w.OTP_ENV, self.want)
        doc["family"]["1"].append(doc["family"]["1"][0])
        self.assertIn("twice", self.check(0, json.dumps(doc), ""))
        self.assertIsNotNone(self.check(2, _store_text(w.OTP_ENV, self.want), ""))


class EvalReference(unittest.TestCase):
    def test_accepts_the_known_verdicts(self):
        self.assertIsNone(w.check_verdict([3], True)(0, "n=3: true\noverall: true\n", ""))
        self.assertIsNone(w.check_verdict([3], False)(1, "n=3: false\noverall: false\n", ""))

    def test_rejects_one_flipped_verdict(self):
        self.assertIsNotNone(w.check_verdict([3], True)(1, "n=3: false\noverall: false\n", ""))
        self.assertIsNotNone(w.check_verdict([3], False)(0, "n=3: true\noverall: true\n", ""))
        self.assertIsNotNone(w.check_verdict([3], True)(1, "n=3: true\noverall: true\n", ""))

    def _split(self, dist, names, left):
        """Is the joint a product of its marginals on left and the rest?"""
        idx = [names.index(v) for v in left]
        rest = [i for i in range(len(names)) if i not in idx]
        ml, mr = {}, {}
        for key, pr in dist.items():
            kl, kr = tuple(key[i] for i in idx), tuple(key[i] for i in rest)
            ml[kl] = ml.get(kl, 0) + pr
            mr[kr] = mr.get(kr, 0) + pr
        return all(dist.get(self._merge(a, b, idx, rest), 0) == pa * pb
                   for a, pa in ml.items() for b, pb in mr.items())

    @staticmethod
    def _merge(a, b, idx, rest):
        key = [None] * (len(idx) + len(rest))
        for i, v in zip(idx, a):
            key[i] = v
        for i, v in zip(rest, b):
            key[i] = v
        return tuple(key)

    def test_product_stores_split_at_every_star_and_correlated_ones_do_not(self):
        rng = random.Random(3)
        for n, kinds, correlated, _ in w.EVAL_SHAPES:
            groups, formula, dist = w.eval_case(rng, n, kinds, correlated)
            names = sorted(v for _, vs in groups for v in vs)
            self.assertEqual(sum(dist.values()), 1)
            splits = [self._split(dist, names, [v for _, vs in groups[:i] for v in vs])
                      for i in range(1, len(groups))]
            self.assertEqual(all(splits), not correlated, (kinds, formula))


class CheckReference(unittest.TestCase):
    PATH = "root.children[0].children[1]"

    def test_accepts_rejection_at_the_planted_node(self):
        err = f"proof error: {self.PATH}: post certificate: step s3: unknown step rule\n"
        self.assertIsNone(w.check_reject(self.PATH)(1, "", err))

    def test_rejects_a_wrong_defect_path(self):
        err = "proof error: root.children[0]: post certificate: step s3: unknown\n"
        self.assertIn("planted at", w.check_reject(self.PATH)(1, "", err))

    def test_rejects_acceptance_of_a_defective_script_and_a_usage_error(self):
        self.assertIsNotNone(w.check_reject(self.PATH)(0, "ok: ...\n", ""))
        self.assertIsNotNone(w.check_reject(self.PATH)(2, "", f"error: {self.PATH}: bad\n"))

    def test_accept_rejects_a_rejection(self):
        self.assertIsNotNone(w.check_accept("ok: x\n")(1, "", "proof error: root: no\n"))

    def test_planted_defect_changes_only_the_node_at_its_path(self):
        doc = {"root": {"rule": "Seq", "pre": "P", "mid": "M", "children": [
            {"rule": "Weak", "pre_cert": {"steps": [{"id": "s1", "rule": "AP"}], "root": "s1"},
             "post_cert": {"steps": [{"id": "s1", "rule": "AP"}], "root": "s1"}},
            {"rule": "Assn"}]}}
        for seed in range(20):
            mutated = json.loads(json.dumps(doc))
            path, kind = w.plant_defect(mutated, random.Random(seed))
            changed = [p for (p, a), (_, b) in zip(w._nodes(doc["root"]), w._nodes(mutated["root"]))
                       if {k: v for k, v in a.items() if k != "children"}
                       != {k: v for k, v in b.items() if k != "children"}]
            self.assertEqual(changed, [path], kind)


class PropsReference(unittest.TestCase):
    OK = "monad  cases=50    pass\nkozen  cases=50    pass\noverall: pass\n"

    def test_accepts_all_pass_and_counts_cases_times_suites(self):
        self.assertIsNone(w.check_props(0, self.OK, ""))
        self.assertEqual(w.props_work(self.OK), 100)

    def test_rejects_a_failing_suite(self):
        bad = self.OK.replace("kozen  cases=50    pass", "kozen  cases=50    FAIL")
        self.assertIsNotNone(w.check_props(0, bad, ""))
        self.assertIsNotNone(w.check_props(1, self.OK, ""))


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        import run
        import tracer

        doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual([x["name"] for x in doc["workloads"]], list(w.WORKLOADS))
        self.assertEqual({x["name"]: x["unit"] for x in doc["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({x["name"]: (x["unit"], x["better"]) for x in doc["per_layer"]},
                         {k: v[:2] for k, v in tracer.LAYER_METRICS.items()})


if __name__ == "__main__":
    unittest.main()
