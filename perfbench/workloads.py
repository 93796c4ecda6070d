"""The four perfbench workloads and the closed loop that times them.

Run as a script, this is the child process of run.py: it runs one
workload and prints one JSON line with its metrics.  One client, no
threads: each op starts only after the previous one has finished and been
checked.  Every input is derived from the seed, and input i depends only
on (seed, i), so a traced pass can replay exactly the ops of an untraced
one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SHIM = HERE / "cli_shim.py"

SETUP_REPEATS = 15

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def load_fibera():
    """Import fibera from this checkout's src/, never from elsewhere."""
    if not (SRC / "fibera" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fibera sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibera
    import fibera.cli  # noqa: F401  (writes every module's bytecode before timing)
    if Path(fibera.__file__).resolve().parent != SRC / "fibera":
        raise SystemExit(f"perfbench: fibera imported from {fibera.__file__}")
    return fibera


load_fibera()
from fibera import fibre, infinity, parse  # noqa: E402
from fibera.polyform import KForm, Polynomial  # noqa: E402

from stats import tail  # noqa: E402
import tracing  # noqa: E402


def _rng(seed, i):
    return random.Random(f"{seed}:{i}")


def _exponents(n, degree):
    """Exponent vectors of total degree <= degree, in lexicographic order."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(degree + 1)
            for rest in _exponents(n - 1, degree - a)]


def _random_form(rng, n, k_sets, max_poly_degree, density=0.4):
    """Random form over the index sets k_sets; integer coefficients in
    -4..4, each monomial present with probability `density` (criterion 08)."""
    coeffs = {}
    for S in k_sets:
        terms = {}
        for e in _exponents(n, max_poly_degree):
            if rng.random() < density:
                c = rng.randint(-4, 4)
                if c:
                    terms[e] = c
        if terms:
            coeffs[S] = Polynomial(n, terms)
    return KForm(n, len(k_sets[0]), coeffs)


def _problem_text(names, components):
    quoted = ", ".join(f'"{c}"' for c in components)
    return (f"vars    = [{', '.join(names)}]\n"
            f"weights = [{', '.join('1' for _ in names)}]\n"
            f"map     = [{quoted}]\n")


class Workload:
    """One set of inputs and the op run on them.

    setup() is timed as setup_s; prepare() and check() are not timed;
    op() is one timed op.  A run stops at a multiple of `cycle` ops once
    `min_ops` are done and the time is up.  A traced run replays the first
    `trace_ops` ops.
    """

    name = ""
    cycle = 1
    min_ops = 21
    trace_ops = 0
    rss_of_children = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def prepare(self, ctx, i):
        raise NotImplementedError

    def op(self, ctx, inp):
        raise NotImplementedError

    def check(self, ctx, i, inp, result):
        raise NotImplementedError

    def enable_trace(self, ctx):
        """Make the ops of `ctx` record spans outside this process too."""

    def adopt_trace(self, ctx, tracer, root):
        """Merge spans recorded outside this process into `tracer`."""

    def close(self, ctx):
        """Release what setup() acquired."""


GOLDEN = ("x*z", "x^2 + y^2 - z^2")


class RelativeGolden(Workload):
    """Relative decompositions of random degree <= 8 one-forms on the golden
    map, each verified.  Every 1-form is relatively closed here."""

    name = "relative-golden"
    trace_ops = 24
    text = _problem_text(("x", "y", "z"), GOLDEN)

    def __init__(self, seed):
        super().__init__(seed)
        self._forms = {}

    def setup(self):
        P = parse.parse_problem(self.text)
        F = infinity.PolyMap(P.map_components, P.weights)
        return F, infinity.infinity_basis(F)

    def prepare(self, ctx, i):
        form = self._forms.get(i)
        if form is None:
            form = _random_form(_rng(self.seed, i), 3, [(0,), (1,), (2,)], 7)
            self._forms[i] = form
        return form

    def op(self, ctx, form):
        F, B = ctx
        dec = fibre.relative_decompose(form, F, B)
        return dec, fibre.verify_decomposition(form, dec, F, B)

    def check(self, ctx, i, form, result):
        dec, verified = result
        return verified is True and len(dec.coeff_polys) == 5


# name, variables, components, pinned mu, pinned basis degrees.  The
# degrees agree with the Hilbert series of each Jacobian ring shifted by
# the degree of i_X(dx_1 ^ ... ^ dx_n): (1 + t)^4 t^4 for the Fermat
# cubic, (1 + t + t^2)^3 t^3 for the quartic.
LADDER = (
    ("fermat-c4", ("a", "b", "c", "e"), ("a^3 + b^3 + c^3 + e^3",), 16,
     [4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 8]),
    ("quadric-c4", ("a", "b", "c", "e"), ("a*c + b*e", "a^2 + b^2 - c^2 + e^2"),
     7, [3, 3, 3, 3, 4, 4, 4]),
    ("quartic-c3", ("x", "y", "z"), ("x^3*y + y^3*z + z^3*x + x*y",), 27,
     [3, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 8,
      8, 8, 9]),
)


class BasisLadder(Workload):
    """Problem text to infinity basis for each map of a fixed ladder.

    The seed permutes each map's variable order and rotates the ladder.
    Runs stop at whole ladders, at least six, so the op mix and the
    sample the tail rule picks stay the same from run to run.
    """

    name = "basis-ladder"
    cycle = len(LADDER)
    min_ops = 6 * len(LADDER)
    trace_ops = len(LADDER)

    def setup(self):
        rng = random.Random(self.seed)
        rungs = []
        for _, names, components, mu, degrees in LADDER:
            order = list(names)
            rng.shuffle(order)
            rungs.append((_problem_text(order, components), mu, degrees))
        start = self.seed % len(rungs)
        return rungs[start:] + rungs[:start]

    def prepare(self, rungs, i):
        return rungs[i % len(rungs)]

    def op(self, ctx, rung):
        P = parse.parse_problem(rung[0])
        F = infinity.PolyMap(P.map_components, P.weights)
        cia = infinity.is_complete_intersection_at_infinity(F)
        mu = infinity.milnor_number(F)
        B = infinity.infinity_basis(F)
        return bool(cia), mu, B.mu, list(B.degrees), len(B.forms)

    def check(self, ctx, i, rung, result):
        _, mu, degrees = rung
        return result == (True, mu, mu, degrees, mu)


SPHERE_DEGREE_BOUND = 4
SPHERE_PINNED = {"form_degree": 1, "degree_bound": SPHERE_DEGREE_BOUND,
                 "space_dimension": 60, "closed_dimension": 45,
                 "exact_dimension": 45, "all_exact": True}


class VanishSphere(Workload):
    """Bounded vanishing of H^1 on sphere fibres at seeded rational points.

    Each op gets a fresh PolyMap, built untimed, so its per-point caches
    start cold and memory does not grow with the number of ops.
    """

    name = "vanish-sphere"
    trace_ops = 6
    text = _problem_text(("x", "y", "z"), ("x^2 + y^2 + z^2",))

    def setup(self):
        P = parse.parse_problem(self.text)
        F = infinity.PolyMap(P.map_components, P.weights)
        infinity.infinity_basis(F)
        return P

    def prepare(self, P, i):
        rng = _rng(self.seed, i)
        y = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 5))
        return infinity.PolyMap(P.map_components, P.weights), y

    def op(self, ctx, inp):
        F, y = inp
        return fibre.verify_vanishing(F, 1, F.point([y]), SPHERE_DEGREE_BOUND)

    def check(self, ctx, i, inp, result):
        return result == SPHERE_PINNED


QUADRIC = LADDER[1]


class CliRoundtrip(Workload):
    """`fibera` commands as separate processes on two problem files.

    One round is eight commands per problem; a run stops at whole rounds.
    Every command's stdout must match, byte for byte, the same command's
    stdout in the first round this seed ran.
    """

    name = "cli-roundtrip"
    rss_of_children = True
    trace_ops = 16
    cycle = 16
    min_ops = 32

    def __init__(self, seed):
        super().__init__(seed)
        self.first_stdout = {}

    def _inputs(self, tag, names, components, k, mu, degrees):
        rng = _rng(self.seed, tag)
        n = len(names)
        sets = list(combinations(range(n), k))

        def form_text(max_poly_degree):
            # The first term has the top degree, so the cost of a command
            # varies little from seed to seed.
            terms = []
            while len(terms) < 4:
                S = rng.choice(sets)
                e = [0] * n
                degree = rng.randint(0, max_poly_degree) if terms else max_poly_degree
                for _ in range(degree):
                    e[rng.randrange(n)] += 1
                mono = "*".join(f"{v}^{p}" for v, p in zip(names, e) if p)
                dx = ", ".join(names[j] for j in S)
                c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                terms.append(f"{c}*{mono + '*' if mono else ''}d[{dx}]")
            return " + ".join(terms)

        point = ", ".join(f"{rng.randint(-5, 5)}/{rng.randint(1, 3)}"
                          for _ in components)
        a_terms = []
        for _ in range(3):
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            a_terms.append((rng.choice([-3, -2, -1, 1, 2, 3]), i, j))
        tn = ["t_1", "t_2"]
        a_text = " + ".join(f"{c}*{tn[0]}^{i}*{tn[1]}^{j}" for c, i, j in a_terms)
        p_text = " + ".join(f"{c}*({components[0]})^{i}*({components[1]})^{j}"
                            for c, i, j in a_terms)
        return {"tag": tag, "text": _problem_text(names, components), "mu": mu,
                "degrees": degrees, "class_form": form_text(3),
                "point": point, "decompose_form": form_text(3),
                "poly": p_text, "a": a_text}

    def setup(self):
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        problems = [
            self._inputs("golden", ("x", "y", "z"), GOLDEN, 1, 5,
                         [2, 2, 2, 3, 3]),
            self._inputs("quadric", QUADRIC[1], QUADRIC[2], 2, QUADRIC[3],
                         QUADRIC[4]),
        ]
        commands = []
        for p in problems:
            fib = work / f"{p['tag']}.fib"
            fib.write_text(p["text"], encoding="utf-8")
            f = str(fib)
            cls_json = str(work / f"{p['tag']}-class.json")
            dec_json = str(work / f"{p['tag']}-decompose.json")
            commands += [
                ("check", p, ["check", f], None),
                ("milnor", p, ["milnor", f], None),
                ("basis", p, ["basis", f], None),
                ("class", p, ["class", f, "--form", p["class_form"], "--point",
                              p["point"], "--witness", "--json"], cls_json),
                ("verify", p, ["verify", cls_json], None),
                ("decompose", p, ["decompose", f, "--form", p["decompose_form"],
                                  "--json"], dec_json),
                ("verify", p, ["verify", dec_json], None),
                ("subalgebra", p, ["subalgebra", f, "--poly", p["poly"]], None),
            ]
        return {"work": work, "commands": commands, "spans": None}

    def prepare(self, ctx, i):
        return i % len(ctx["commands"]), ctx["commands"][i % len(ctx["commands"])]

    def op(self, ctx, inp):
        _, (_, _, argv, _) = inp
        env = dict(os.environ)
        env.pop("PERFBENCH_SPANS", None)
        if ctx["spans"] is not None:
            env["PERFBENCH_SPANS"] = ctx["spans"]
        return subprocess.run([sys.executable, str(SHIM), *argv], env=env,
                              capture_output=True, timeout=120)

    def enable_trace(self, ctx):
        ctx["spans"] = str(ctx["work"] / "spans.json")

    def adopt_trace(self, ctx, tracer, root):
        with open(ctx["spans"], encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(ctx["spans"])
        tracer.adopt(child, root)

    def check(self, ctx, i, inp, proc):
        slot, (kind, p, argv, save_to) = inp
        out = proc.stdout.decode("utf-8", "replace")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            return False
        first = self.first_stdout.setdefault(slot, proc.stdout)
        if proc.stdout != first:
            return False
        if save_to is not None:
            Path(save_to).write_bytes(proc.stdout)
        mu = p["mu"]
        if kind == "check":
            return out.startswith("complete intersection at infinity\n")
        if kind == "milnor":
            return out == f"mu = {mu}\n"
        if kind == "basis":
            lines = out.splitlines()
            degrees = [int(ln.split("(degree ", 1)[1].split(")", 1)[0])
                       for ln in lines[1:]]
            return lines[0] == f"mu = {mu}" and degrees == p["degrees"]
        if kind == "class":
            obj = json.loads(out)
            return len(obj["result"]["lambda"]) == mu and obj["witness"]
        if kind == "decompose":
            return len(json.loads(out)["result"]["a"]) == mu
        if kind == "verify":
            return out == "verification: PASS\n"
        if kind == "subalgebra":
            head, _, expr = out.rstrip("\n").partition(" = ")
            names = ["t_1", "t_2"]
            return head == "A(t)" and (parse.parse_polynomial_expr(expr, names)
                                       == parse.parse_polynomial_expr(p["a"], names))
        return False

    def close(self, ctx):
        shutil.rmtree(ctx["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (RelativeGolden, BasisLadder, VanishSphere,
                                 CliRoundtrip)}


# ------------------------------------------------------------- closed loop

def _loop(wl, ctx, seconds=None, count=None, tracer=None, between=None):
    """Run ops until `count` are done, or until the time is up at a whole
    cycle with at least wl.min_ops done.  `between(elapsed)` is called
    before each op.  Returns (latencies, failed)."""
    latencies = []
    failed = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if count is not None:
            if i >= count:
                break
        elif elapsed >= seconds and i >= wl.min_ops and i % wl.cycle == 0:
            break
        if between is not None:
            between(elapsed)
        inp = wl.prepare(ctx, i)
        # Ops take turns on the CPUs this process may use, so every run
        # samples each CPU alike: the CPUs of a shared virtual machine can
        # differ in speed for minutes at a time.
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        ok = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(ctx, inp)
            else:
                with tracer.op_span(i + 1) as root:
                    result = wl.op(ctx, inp)
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - t0)
        if ok:
            try:
                if tracer is not None:
                    wl.adopt_trace(ctx, tracer, root)
                ok = bool(wl.check(ctx, i, inp, result))
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            failed += 1
            print(f"perfbench: {wl.name} op {i} failed", file=sys.stderr)
        i += 1
    return latencies, failed


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _timed_setup(wl):
    t0 = time.perf_counter()
    ctx = wl.setup()
    return ctx, time.perf_counter() - t0


def run_untraced(wl, seconds):
    # The ops use the first set-up.  Spare set-ups, one every
    # seconds / SETUP_REPEATS for as long as the run lasts (at least
    # SETUP_REPEATS in all), are thrown away, so the median samples the
    # machine as the ops do.
    ctx, first = _timed_setup(wl)
    setups = [first]

    def spare_setup(elapsed=None):
        if elapsed is None or elapsed >= len(setups) * seconds / SETUP_REPEATS:
            spare, dt = _timed_setup(wl)
            wl.close(spare)
            setups.append(dt)

    try:
        latencies, failed = _loop(wl, ctx, seconds=seconds, between=spare_setup)
        while len(setups) < SETUP_REPEATS:
            spare_setup()
    finally:
        wl.close(ctx)
    completed = len(latencies) - failed
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "ops_per_s": completed / sum(latencies),
        "peak_rss_mb": _peak_rss_mb(wl),
        "setup_s": statistics.median(setups),
    }
    info = {"op_tail_percentile": tail_pct, "samples": n,
            "fail_frac": failed / len(latencies),
            "setup_repeats": SETUP_REPEATS}
    return _result(failed == 0, len(latencies), failed, metrics, END_TO_END,
                   info)


def _result(correct, attempted, failed, values, units, info):
    units = dict(units)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
            "info": info}


def run_traced(wl):
    """The first wl.trace_ops ops, once untraced and once traced, each from
    a fresh set-up so both passes start cold."""
    t0 = time.perf_counter()
    ctx = wl.setup()
    try:
        latencies, failed = _loop(wl, ctx, count=wl.trace_ops)
    finally:
        wl.close(ctx)
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        t0 = time.perf_counter()
        with tracer.op_span(0):
            ctx = wl.setup()
        wl.enable_trace(ctx)
        try:
            traced_lat, traced_failed = _loop(wl, ctx, count=wl.trace_ops,
                                              tracer=tracer)
        finally:
            wl.close(ctx)
        traced_s = time.perf_counter() - t0
    failed += traced_failed

    problems = []
    leftover = tracing.wrapped_names()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    metrics = tracing.layer_metrics(tracer, untraced_s, traced_s)
    parts = sum(metrics[f"{layer}.self_s"]
                for layer in tracing.LAYERS + (tracing.ROOT,))
    if abs(parts - metrics["op.traced_s"]) > 1e-6 * max(1.0, parts):
        problems.append(f"self times add to {parts}, traced ops took "
                        f"{metrics['op.traced_s']}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{wl.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"],
         "spans": tracer.spans}), encoding="utf-8")
    info = {"layer_self_sum_s": parts, "trace_problems": problems,
            "spans_file": str(spans_file.relative_to(ROOT))}
    return _result(failed == 0 and not problems,
                   len(latencies) + len(traced_lat), failed, metrics,
                   tracing.PER_LAYER, info)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of an untraced run; a traced run replays "
                         "a fixed list of ops instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = run_traced(wl)
    else:
        result = run_untraced(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
