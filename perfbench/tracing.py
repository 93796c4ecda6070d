"""Outside-in tracing of fibera's public entry points.

`install` replaces each entry point listed in ENTRY_POINTS with a wrapper
that records a span (name, start, end, parent span, op id) while an op is
active.  Class methods are wrapped on the class.  Module-level functions
are replaced in every fibera namespace that binds them, because callers
import `monomial_basis`, `buchberger`, `exterior_derivative`, ... by name.
`uninstall` puts every original back, so untraced code runs unwrapped.

Spans stay in memory.  `layer_metrics` turns them, together with the
counters the wrappers take from call arguments and return values, into
the per-layer metrics listed in PER_LAYER.  Nothing inside fibera is
changed or read beyond the public attributes of what a call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("polyform", "groebner", "gradedlin", "infinity", "fibre", "parse",
           "cli")

# (module, attribute path, span name); the span name's prefix is its layer.
ENTRY_POINTS = (
    ("polyform", "exterior_derivative", "polyform.exterior_derivative"),
    ("polyform", "wedge", "polyform.wedge"),
    ("polyform", "Polynomial.compose", "polyform.compose"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "GroebnerBasis.normal_form", "groebner.normal_form"),
    ("groebner", "ideal_dimension", "groebner.ideal_dimension"),
    ("groebner", "quotient_vector_basis", "groebner.quotient_basis"),
    ("gradedlin", "monomial_basis", "gradedlin.monomial_basis"),
    ("gradedlin", "operator_columns", "gradedlin.operator_columns"),
    ("gradedlin", "ExactLinearSolver.__init__", "gradedlin.factor"),
    ("gradedlin", "ExactLinearSolver.solve", "gradedlin.solve"),
    ("gradedlin", "ExactLinearSolver.nullspace", "gradedlin.nullspace"),
    ("gradedlin", "CombinationSolver.__init__", "gradedlin.combination_init"),
    ("gradedlin", "CombinationSolver.solve", "gradedlin.combination_solve"),
    ("infinity", "PolyMap.__init__", "infinity.polymap"),
    ("infinity", "is_complete_intersection_at_infinity", "infinity.cia_check"),
    ("infinity", "milnor_number", "infinity.milnor"),
    ("infinity", "infinity_basis", "infinity.basis"),
    ("fibre", "fibre_class", "fibre.fibre_class"),
    ("fibre", "relative_decompose", "fibre.relative_decompose"),
    ("fibre", "verify_decomposition", "fibre.verify"),
    ("fibre", "verify_vanishing", "fibre.vanishing"),
    ("fibre", "is_in_subalgebra", "fibre.subalgebra"),
    ("parse", "parse_problem", "parse.problem"),
    ("parse", "parse_form_expr", "parse.form"),
    ("parse", "parse_polynomial_expr", "parse.polynomial"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("polyform", "groebner", "gradedlin", "infinity", "fibre", "parse",
          "cli")

# Every metric a traced run reports, in BENCHMARK.json order.  Counts and
# busy times cover the traced set-up and the traced ops; ratios name their
# base in the README.
PER_LAYER = (
    ("gradedlin.solve.calls", "count"),
    ("gradedlin.solve.busy_s", "s"),
    ("gradedlin.solve.unsolvable", "count"),
    ("gradedlin.factor.calls", "count"),
    ("gradedlin.factor.busy_s", "s"),
    ("gradedlin.factor.rows_max", "count"),
    ("gradedlin.factor.cols_max", "count"),
    ("gradedlin.factor.rank_max", "count"),
    ("gradedlin.factor.nnz_sum", "count"),
    ("gradedlin.factor.density", "ratio"),
    ("gradedlin.factor.rank_ratio", "ratio"),
    ("gradedlin.factor.max_bits", "bits"),
    ("gradedlin.solves_per_factor", "ratio"),
    ("gradedlin.nullspace.busy_s", "s"),
    ("gradedlin.nullspace.dim", "count"),
    ("gradedlin.monomial_basis.calls", "count"),
    ("gradedlin.monomial_basis.busy_s", "s"),
    ("gradedlin.monomial_basis.size_sum", "count"),
    ("infinity.polymap.calls", "count"),
    ("infinity.polymap.busy_s", "s"),
    ("infinity.basis.calls", "count"),
    ("infinity.basis.busy_s", "s"),
    ("infinity.basis.candidates", "count"),
    ("infinity.basis.keep_ratio", "ratio"),
    ("fibre.relative_decompose.calls", "count"),
    ("fibre.relative_decompose.busy_s", "s"),
    ("fibre.fibre_class.calls", "count"),
    ("fibre.fibre_class.busy_s", "s"),
    ("fibre.fibre_class.per_decompose", "ratio"),
    ("fibre.cia_checks", "count"),
    ("fibre.verify.calls", "count"),
    ("fibre.verify.busy_s", "s"),
    ("fibre.vanishing.busy_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.busy_s", "s"),
    ("groebner.basis_len_max", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.busy_s", "s"),
    ("polyform.exterior_derivative.calls", "count"),
    ("polyform.exterior_derivative.busy_s", "s"),
    ("polyform.wedge.calls", "count"),
    ("polyform.wedge.busy_s", "s"),
    ("polyform.compose.calls", "count"),
    ("polyform.compose.busy_s", "s"),
    ("parse.busy_s", "s"),
    ("cli.startup_ms", "ms"),
    ("cli.main.busy_s", "s"),
    ("polyform.self_s", "s"),
    ("groebner.self_s", "s"),
    ("gradedlin.self_s", "s"),
    ("infinity.self_s", "s"),
    ("fibre.self_s", "s"),
    ("parse.self_s", "s"),
    ("cli.self_s", "s"),
    ("op.self_s", "s"),
    ("op.traced_s", "s"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

ROOT = "op"  # name of the span that encloses one op (or the traced set-up)


class Tracer:
    """Spans and boundary counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = None  # id of the active op; wrappers record only inside one
        self.counts = Counter()
        self.cli_startup_s = []  # per CLI op: child wall time minus cli.main
        self._stack = []
        self._factors = []  # (columns, solver) awaiting shape statistics

    @contextmanager
    def op_span(self, op_id):
        """Root span of one op, yielding its index; factor shapes are
        summarised after it ends."""
        self.op = op_id
        index = len(self.spans)
        rec = [ROOT, 0.0, 0.0, -1, op_id]
        self._stack.append(index)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield index
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.op = None
            self.flush()

    def record(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child, parent):
        """Merge what a traced child process wrote (see run_traced_cli):
        its spans go under span `parent`, its counters into ours, and the
        parent's wall time not spent in the child's root spans counts as
        the child's start-up."""
        base = len(self.spans)
        _, start, end, _, op = self.spans[parent]
        in_roots = 0.0
        for name, s, e, p in child["spans"]:
            if p < 0:
                in_roots += e - s
            self.spans.append([name, s, e, parent if p < 0 else base + p, op])
        self.cli_startup_s.append((end - start) - in_roots)
        for key, value in child["counts"].items():
            # counters named *max* hold maxima, the others sums
            if "max" in key:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def flush(self):
        # Runs between ops, outside every span, so its cost is not charged
        # to a layer.
        c = self.counts
        for columns, solver in self._factors:
            nnz = 0
            bits = 0
            for col in columns:
                for v in col.values():
                    if v:
                        nnz += 1
                        bits = max(bits, abs(v.numerator).bit_length(),
                                   v.denominator.bit_length())
            c["factor.rows_max"] = max(c["factor.rows_max"], solver.nrows)
            c["factor.cols_max"] = max(c["factor.cols_max"], solver.ncols)
            c["factor.rank_max"] = max(c["factor.rank_max"], solver.rank)
            c["factor.rank_sum"] += solver.rank
            c["factor.cols_sum"] += solver.ncols
            c["factor.cells_sum"] += solver.nrows * solver.ncols
            c["factor.nnz_sum"] += nnz
            c["factor.max_bits"] = max(c["factor.max_bits"], bits)
        self._factors.clear()


# ------------------------------------------------------- boundary counters

def _columns_as_list(args, kwargs):
    # ExactLinearSolver(self, columns, row_keys=None): pass the columns
    # positionally and as a list, so their shape can be read after the op
    # even if the caller passed an iterator.
    kwargs = dict(kwargs)
    columns = args[1] if len(args) > 1 else kwargs.pop("columns")
    return (args[0], list(columns)) + tuple(args[2:]), kwargs


def _after_factor(tr, args, result):
    tr._factors.append((args[1], args[0]))


def _after_solve(tr, args, result):
    if result is None:
        tr.counts["solve.unsolvable"] += 1


def _after_nullspace(tr, args, result):
    tr.counts["nullspace.dim"] += len(result)


def _after_monomial_basis(tr, args, result):
    tr.counts["monomial_basis.size_sum"] += len(result)


def _after_buchberger(tr, args, result):
    tr.counts["basis_len_max"] = max(tr.counts["basis_len_max"], len(result))


def _after_basis(tr, args, result):
    tr.counts["basis.kept"] += len(result)


BEFORE = {"gradedlin.factor": _columns_as_list}
AFTER = {
    "gradedlin.factor": _after_factor,
    "gradedlin.solve": _after_solve,
    "gradedlin.nullspace": _after_nullspace,
    "gradedlin.monomial_basis": _after_monomial_basis,
    "groebner.buchberger": _after_buchberger,
    "infinity.basis": _after_basis,
}


# ------------------------------------------------------- install / uninstall

_MARK = "__perfbench_span__"


def _make_wrapper(tracer, name, fn):
    before = BEFORE.get(name)
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        result = tracer.record(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(wrapper, _MARK, name)
    return wrapper


def fibera_modules():
    pkg = importlib.import_module("fibera")
    return [pkg] + [importlib.import_module(f"fibera.{m}") for m in MODULES]


def install(tracer):
    """Wrap every entry point; returns the (owner, attribute, original)
    triples that `uninstall` restores."""
    namespaces = fibera_modules()
    restore = []
    try:
        _wrap_all(tracer, namespaces, restore)
    except BaseException:
        uninstall(restore)
        raise
    return restore


def _wrap_all(tracer, namespaces, restore):
    for mod_name, path, span in ENTRY_POINTS:
        owner = importlib.import_module(f"fibera.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            original = owner.__dict__[attr]
            if hasattr(original, _MARK):
                raise RuntimeError(f"{path} is already wrapped")
            restore.append((owner, attr, original))
            setattr(owner, attr, _make_wrapper(tracer, span, original))
            continue
        original = getattr(owner, attr)
        if hasattr(original, _MARK):
            raise RuntimeError(f"{path} is already wrapped")
        wrapper = _make_wrapper(tracer, span, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    restore.append((ns, key, original))
                    setattr(ns, key, wrapper)


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def wrapped_names():
    """Attributes of fibera modules and classes that are still wrappers."""
    out = []
    for ns in fibera_modules():
        for key, value in vars(ns).items():
            if hasattr(value, _MARK):
                out.append(f"{ns.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        out.append(f"{ns.__name__}.{key}.{attr}")
    return out


@contextmanager
def traced(tracer):
    restore = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(restore)


# ------------------------------------------------------------ span arithmetic

def layer_of(name):
    return ROOT if name == ROOT else name.split(".", 1)[0]


def self_times(spans):
    """Self time per layer: each span's duration minus the part its direct
    children cover.  Root spans count as layer "op"."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[layer_of(name)] += (end - start) - covered[i]
    return out


def _has_ancestor(spans, i, match):
    p = spans[i][3]
    while p >= 0:
        if match(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def busy(spans, match):
    """Wall time inside spans whose name matches, not counting a matching
    span nested in another matching span twice."""
    total = 0.0
    for i, sp in enumerate(spans):
        if match(sp[0]) and not _has_ancestor(spans, i, match):
            total += sp[2] - sp[1]
    return total


def calls(spans, name):
    return sum(1 for sp in spans if sp[0] == name)


def calls_within(spans, name, outer):
    return sum(1 for i, sp in enumerate(spans)
               if sp[0] == name and _has_ancestor(spans, i, lambda n: n == outer))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced_s, traced_s):
    """Every PER_LAYER metric from one traced pass.

    untraced_s and traced_s are the wall times of the same set-up and op
    list run without and with tracing.
    """
    sp = tracer.spans
    c = tracer.counts

    def named(n):
        return lambda s: s == n

    m = {}
    for short in ("solve", "factor", "monomial_basis"):
        n = f"gradedlin.{short}"
        m[f"{n}.calls"] = calls(sp, n)
        m[f"{n}.busy_s"] = busy(sp, named(n))
    m["gradedlin.solve.unsolvable"] = c["solve.unsolvable"]
    for key in ("rows_max", "cols_max", "rank_max", "nnz_sum", "max_bits"):
        m[f"gradedlin.factor.{key}"] = c[f"factor.{key}"]
    m["gradedlin.factor.density"] = _ratio(c["factor.nnz_sum"],
                                           c["factor.cells_sum"])
    m["gradedlin.factor.rank_ratio"] = _ratio(c["factor.rank_sum"],
                                              c["factor.cols_sum"])
    m["gradedlin.solves_per_factor"] = _ratio(m["gradedlin.solve.calls"],
                                              m["gradedlin.factor.calls"])
    m["gradedlin.nullspace.busy_s"] = busy(sp, named("gradedlin.nullspace"))
    m["gradedlin.nullspace.dim"] = c["nullspace.dim"]
    m["gradedlin.monomial_basis.size_sum"] = c["monomial_basis.size_sum"]
    for n in ("infinity.polymap", "infinity.basis", "fibre.relative_decompose",
              "fibre.fibre_class", "fibre.verify", "groebner.buchberger",
              "groebner.normal_form", "polyform.exterior_derivative",
              "polyform.wedge", "polyform.compose"):
        m[f"{n}.calls"] = calls(sp, n)
        m[f"{n}.busy_s"] = busy(sp, named(n))
    candidates = calls_within(sp, "gradedlin.solve", "infinity.basis")
    m["infinity.basis.candidates"] = candidates
    m["infinity.basis.keep_ratio"] = _ratio(c["basis.kept"], candidates)
    m["fibre.fibre_class.per_decompose"] = _ratio(
        calls_within(sp, "fibre.fibre_class", "fibre.relative_decompose"),
        m["fibre.relative_decompose.calls"])
    m["fibre.cia_checks"] = calls(sp, "infinity.cia_check")
    m["fibre.vanishing.busy_s"] = busy(sp, named("fibre.vanishing"))
    m["groebner.basis_len_max"] = c["basis_len_max"]
    m["parse.busy_s"] = busy(sp, lambda s: s.startswith("parse."))
    startup = sorted(tracer.cli_startup_s)
    m["cli.startup_ms"] = 1e3 * startup[len(startup) // 2] if startup else 0.0
    m["cli.main.busy_s"] = busy(sp, named("cli.main"))
    selfs = self_times(sp)
    for layer in LAYERS + (ROOT,):
        m[f"{layer}.self_s"] = selfs[layer]
    m["op.traced_s"] = sum(s[2] - s[1] for s in sp if s[3] < 0)
    m["trace.ops"] = len({s[4] for s in sp if s[3] < 0})
    m["trace.spans"] = len(sp)
    m["trace.untraced_s"] = untraced_s
    m["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return {name: m[name] for name, _ in PER_LAYER}


# -------------------------------------------------------------- CLI children

def run_traced_cli(spans_path, op_id=0):
    """Body of a traced `fibera` child: wrap, run cli.main, write spans."""
    import fibera.cli

    tracer = Tracer()
    with traced(tracer):
        tracer.op = op_id
        try:
            code = fibera.cli.main()
        finally:
            tracer.op = None
            tracer.flush()
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": [s[:4] for s in tracer.spans],
                           "counts": tracer.counts}, fh)
    return code
