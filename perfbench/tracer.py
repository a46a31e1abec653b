"""Per-layer tracing of cslcheck from outside the package.

install() swaps the public functions of each module for timing or counting
wrappers, everywhere they are bound: in the defining module and in every
cslcheck module that imported them by name. Nothing under src/ changes.

Timed functions record spans. Only the outermost span of a recursive (or
same-group) call is timed; a span's self time is its duration minus the
spans opened inside it. Per-point functions (FinDist.__init__, bind) are
counted, never timed, because a clock read per point would swamp them.

Each layer metric is listed in LAYER_METRICS with the end-to-end metric and
workload it should move; BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# name -> (unit, better, moves): "moves" is the end-to-end metric(s) and
# workload(s) the layer metric should move.
LAYER_METRICS = {
    "syntax.tokenize_s": ("s", "lower", "check_exp work_per_s, op_tail_ms"),
    "syntax.tokens": ("count", "lower", "check_exp work_per_s, op_tail_ms"),
    "syntax.tokens_per_s": ("1/s", "higher", "check_exp work_per_s, op_tail_ms"),
    "syntax.parse_s": ("s", "lower", "check_exp work_per_s, op_tail_ms"),
    "types.type_program_s": ("s", "lower", "check_exp op_tail_ms"),
    "types.type_program_calls": ("count", "lower", "check_exp op_tail_ms"),
    "types.wf_formula_s": ("s", "lower", "check_exp op_tail_ms"),
    "types.wf_formula_calls": ("count", "lower", "check_exp op_tail_ms"),
    "logic.check_hilbert_s": ("s", "lower", "check_exp op_tail_ms"),
    "logic.cert_steps": ("count", "lower", "check_exp op_tail_ms"),
    "logic.match_axiom_calls": ("count", "lower", "check_exp op_tail_ms"),
    "hoare.check_triple_s": ("s", "lower", "check_exp op_tail_ms"),
    "hoare.self_s": ("s", "lower", "check_exp op_tail_ms"),
    "hoare.nodes": ("count", "lower", "check_exp op_tail_ms"),
    "semantics.run_store_s": ("s", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "semantics.eval_expr_s": ("s", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "semantics.eval_expr_calls": ("count", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "dist.bind_calls": ("count", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "dist.findist_new": ("count", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "dist.out_support": ("count", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "dist.max_den_bits": ("bits", "lower", "run_otp work_per_s, wall_s; props work_per_s"),
    "dist.project_s": ("s", "lower", "eval_star wall_s, op_p50_ms"),
    "dist.project_calls": ("count", "lower", "eval_star wall_s, op_p50_ms"),
    "dist.tensor_s": ("s", "lower", "eval_star wall_s, op_p50_ms"),
    "dist.tensor_calls": ("count", "lower", "eval_star wall_s, op_p50_ms"),
    "dist.stat_dist_calls": ("count", "lower", "eval_star wall_s, op_p50_ms"),
    "logic.sat_formula_s": ("s", "lower", "eval_star wall_s, op_p50_ms"),
    "logic.sat_formula_calls": ("count", "lower", "eval_star wall_s, op_p50_ms"),
    "logic.indist_checks": ("count", "lower", "eval_star wall_s, op_p50_ms"),
    "logic.indist_true_ratio": ("ratio", "higher", "eval_star wall_s, op_p50_ms"),
    "logic.sat_bi_s": ("s", "lower", "props work_per_s"),
    "logic.search_annotation_s": ("s", "lower", "props work_per_s"),
    "cli.store_decode_s": ("s", "lower", "eval_star, run_otp wall_s"),
    "cli.store_encode_s": ("s", "lower", "eval_star, run_otp wall_s"),
    "cli.self_s": ("s", "lower", "eval_star, run_otp wall_s"),
    "gen.gen_s": ("s", "lower", "props work_per_s"),
    "hoare.fuzz_hit_ratio": ("ratio", "higher", "props work_per_s"),
}
SUITES = (
    "monad", "kozen", "pkrm", "mv", "locality", "frame", "unit", "linearity",
    "axioms", "fuzz", "bi", "split_merge", "independence",
)
for _suite in SUITES:
    LAYER_METRICS[f"props.suite_s.{_suite}"] = ("s", "lower", "props work_per_s")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower", "none: traced minus untraced wall_s")


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # time in outermost spans, per key
        self.child = defaultdict(float)  # time of spans opened inside them
        self.calls = defaultdict(int)  # every call, nested ones included
        self.extra = defaultdict(int)  # counters computed from arguments/results
        self._active = defaultdict(int)
        self._stack = []  # child time accumulated by each open span

    def self_time(self, key: str) -> float:
        return self.total[key] - self.child[key]

    def timed(self, key, fn, after=None):
        """Wrap fn in a span; after(args, result) runs outside every span."""

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self._active[key]:
                return fn(*args, **kwargs)
            self._active[key] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._active[key] -= 1
                self.total[key] += dt
                self.child[key] += frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                t1 = perf_counter()
                after(args, result)
                if self._stack:  # keep bookkeeping out of the caller's self time
                    self._stack[-1][0] += perf_counter() - t1
            return result

        return wrapper

    def counted(self, key, fn, after=None):
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every cslcheck module-level name bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "cslcheck" and not name.startswith("cslcheck."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    import cslcheck._gen as gen
    import cslcheck._props as props
    import cslcheck.cli as cli
    import cslcheck.dist as dist
    import cslcheck.hoare as hoare
    import cslcheck.logic as logic
    import cslcheck.semantics as semantics
    import cslcheck.syntax as syntax
    import cslcheck.types as types

    t = Tracer()

    def wrap(module, attr, key, kind="timed", after=None):
        original = getattr(module, attr)
        _rebind(original, getattr(t, kind)(key, original, after))

    def count_tokens(args, tokens):
        t.extra["tokens"] += len(tokens)

    def count_steps(args, result):
        t.extra["cert_steps"] += len(args[0].steps)

    def count_indist(args, verdict):
        t.extra["indist_true"] += bool(verdict)

    def measure_output(args, store):
        for n in store.tested_ns():
            d = store.at(n)
            t.extra["out_support"] += len(d)
            bits = max((pr.denominator.bit_length() for _, pr in d.items()), default=0)
            t.extra["max_den_bits"] = max(t.extra["max_den_bits"], bits)

    def count_fuzz(args, report):
        t.extra["fuzz_hits"] += report.hits
        t.extra["fuzz_cases"] += report.cases

    wrap(syntax, "tokenize", "tokenize", after=count_tokens)
    for attr in dir(syntax):
        if attr.startswith("parse_") and callable(getattr(syntax, attr)):
            wrap(syntax, attr, "parse")
    wrap(types, "type_program", "type_program")
    wrap(types, "wf_formula", "wf_formula")
    wrap(logic, "check_hilbert", "check_hilbert", after=count_steps)
    wrap(logic, "match_axiom", "match_axiom", "counted")
    wrap(logic, "sat_formula", "sat_formula")
    wrap(logic, "sat_bi", "sat_bi")
    wrap(logic, "search_annotation", "search_annotation")
    wrap(semantics, "store_indist", "store_indist", "counted", after=count_indist)
    wrap(hoare, "check_triple", "check_triple")
    wrap(hoare, "_check_node", "nodes", "counted")
    wrap(hoare, "fuzz_rule_soundness", "fuzz", after=count_fuzz)
    wrap(semantics, "run_store", "run_store", after=measure_output)
    wrap(semantics, "eval_expr", "eval_expr")
    wrap(dist, "project", "project")
    wrap(dist, "tensor", "tensor")
    wrap(dist, "stat_dist", "stat_dist", "counted")
    wrap(cli, "parse_store", "store_decode")
    wrap(cli, "store_to_text", "store_encode")
    wrap(cli, "main", "cli")
    for attr in dir(gen):
        if attr.startswith("gen_") and callable(getattr(gen, attr)):
            wrap(gen, attr, "gen")
    dist.FinDist.__init__ = t.counted("findist_new", dist.FinDist.__init__)
    dist.FinDist.bind = t.counted("bind", dist.FinDist.bind)

    suites = []
    for suite in props.ALL_SUITES:
        # the suite decorator keeps the decorated function in its closure
        inner = [c.cell_contents for c in suite.__closure__ or () if callable(c.cell_contents)]
        name = inner[0].__name__.removeprefix("suite_") if inner else suite.__name__
        suites.append(t.timed(f"suite.{name}", suite))
    for module in (props, cli):
        module.ALL_SUITES = tuple(suites)
    return t


def layer_metrics(t: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass values of every LAYER_METRICS name."""
    per = 1.0 / passes
    c, e = t.calls, t.extra
    tok_s = t.total["tokenize"]
    values = {
        "syntax.tokenize_s": tok_s * per,
        "syntax.tokens": e["tokens"] * per,
        "syntax.tokens_per_s": e["tokens"] / tok_s if tok_s else 0.0,
        "syntax.parse_s": t.self_time("parse") * per,
        "types.type_program_s": t.total["type_program"] * per,
        "types.type_program_calls": c["type_program"] * per,
        "types.wf_formula_s": t.total["wf_formula"] * per,
        "types.wf_formula_calls": c["wf_formula"] * per,
        "logic.check_hilbert_s": t.total["check_hilbert"] * per,
        "logic.cert_steps": e["cert_steps"] * per,
        "logic.match_axiom_calls": c["match_axiom"] * per,
        "hoare.check_triple_s": t.total["check_triple"] * per,
        "hoare.self_s": t.self_time("check_triple") * per,
        "hoare.nodes": c["nodes"] * per,
        "semantics.run_store_s": t.total["run_store"] * per,
        "semantics.eval_expr_s": t.total["eval_expr"] * per,
        "semantics.eval_expr_calls": c["eval_expr"] * per,
        "dist.bind_calls": c["bind"] * per,
        "dist.findist_new": c["findist_new"] * per,
        "dist.out_support": e["out_support"] * per,
        "dist.max_den_bits": e["max_den_bits"],
        "dist.project_s": t.total["project"] * per,
        "dist.project_calls": c["project"] * per,
        "dist.tensor_s": t.total["tensor"] * per,
        "dist.tensor_calls": c["tensor"] * per,
        "dist.stat_dist_calls": c["stat_dist"] * per,
        "logic.sat_formula_s": t.total["sat_formula"] * per,
        "logic.sat_formula_calls": c["sat_formula"] * per,
        "logic.indist_checks": c["store_indist"] * per,
        "logic.indist_true_ratio": e["indist_true"] / c["store_indist"] if c["store_indist"] else 0.0,
        "logic.sat_bi_s": t.total["sat_bi"] * per,
        "logic.search_annotation_s": t.total["search_annotation"] * per,
        "cli.store_decode_s": t.total["store_decode"] * per,
        "cli.store_encode_s": t.total["store_encode"] * per,
        "cli.self_s": t.self_time("cli") * per,
        "gen.gen_s": t.total["gen"] * per,
        "hoare.fuzz_hit_ratio": e["fuzz_hits"] / e["fuzz_cases"] if e["fuzz_cases"] else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for name in SUITES:
        values[f"props.suite_s.{name}"] = t.total[f"suite.{name}"] * per
    return values
