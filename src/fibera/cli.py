"""The fibera command line tool.

    fibera check      FILE            CIA verdict and the dimensions behind it
    fibera milnor     FILE            Milnor number of the fibre at infinity
    fibera basis      FILE            weighted-homogeneous cohomology basis
    fibera class      FILE --form W --point Y   coordinates of W on the fibre over Y
    fibera decompose  FILE --form W   relative decomposition with certified bounds
    fibera subalgebra FILE --poly P   is P a polynomial in the map components
    fibera verify     WITNESS.json    recheck a previously emitted witness

Exit codes: 0 success, 1 mathematical precondition failure (including a
negative CIA verdict from check), 2 parse or input error, 3 internal error
(a failed internal consistency check, reported without a traceback).
With --json a problem command emits one self-contained object (problem
text included) in place of its text; `verify` accepts the objects of
`class --witness` and `decompose`.  A value of --form, --point or --poly
may start with "-": `--point -5/3` reads like `--point=-5/3`.
"""

from __future__ import annotations

import argparse
import re
import sys

from .polyform import KForm
from .gradedlin import coordinates_kform, kform_coordinates
from .infinity import (PolyMap, PreconditionError, infinity_basis,
                       is_complete_intersection_at_infinity, milnor_number)
from .fibre import (FibreClass, RelativeDecomposition, fibre_class,
                    is_in_subalgebra, relative_decompose, verify_decomposition)
from .parse import (ParseError, form_str, form_to_polynomial, parse_form_expr,
                    parse_point, parse_problem, parse_rational, poly_str)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


# hashlib and json are imported where they are used: every command is its
# own process, and only the --json and verify paths need them.

def _input_hash(text):
    import hashlib
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")


def _resolve_form(spec, problem):
    if spec in problem.forms:
        return problem.forms[spec]
    return parse_form_expr(spec, problem.var_names)


def _resolve_point(spec, problem):
    if spec in problem.points:
        return problem.points[spec]
    return parse_point(spec, problem.q)


def _t_str(a, F):
    """a(t) printed in t (t_1, ..., t_q when q > 1), weighted by deg f_i."""
    names = ["t"] if F.q == 1 else [f"t_{i + 1}" for i in range(F.q)]
    return poly_str(a, names, tuple(F.degrees))


def _guard_degree_bound(form, weights, bound):
    if bound is None:
        return
    r = form.weighted_degree(weights)
    if r > bound:
        raise PreconditionError(
            f"form has weighted degree {r}, exceeding --degree-bound {bound}")


# ---------------------------------------------------------------- JSON codecs

def form_to_json(f):
    coords = kform_coordinates(f)
    return [[list(e), list(S), str(coords[S, e])] for S, e in sorted(coords)]


def poly_to_json(P):
    return form_to_json(KForm.from_polynomial(P))


def form_from_json(data, n):
    coords = {}
    k = 0
    for e, S, c in data:
        if not all(type(a) is int and a >= 0 for a in [*e, *S]):
            raise ValueError(f"exponents and indices must be nonnegative "
                             f"integers, got {e!r} and {S!r}")
        k = len(S)
        coords[tuple(S), tuple(e)] = parse_rational(c)
    return coordinates_kform(n, k, coords)


def poly_from_json(data, n):
    return form_from_json(data, n).as_polynomial()


def _witness(w, problem):
    """The JSON object and the text lines of the witness omega, eta of a
    fibre class or a relative decomposition."""
    names, weights = problem.var_names, problem.weights
    obj = {"omega": form_to_json(w.omega),
           "eta": [form_to_json(e) for e in w.eta]}
    lines = [f"Omega = {form_str(w.omega, names, weights)}"]
    lines += [f"eta_{i} = {form_str(e, names, weights)}"
              for i, e in enumerate(w.eta, start=1)]
    return obj, lines


def _long_integer_at(raw):
    """(line, column) of the first JSON integer longer than int() converts,
    the one ValueError of json.loads that is not a JSONDecodeError."""
    for m in re.finditer(r'"(?:[^"\\]|\\.)*"|[-+.0-9eE]+', raw):
        digits = m.group().lstrip("-")
        if digits.isdigit() and len(digits) > sys.get_int_max_str_digits():
            at = m.start()
            return raw.count("\n", 0, at) + 1, at - raw.rfind("\n", 0, at)
    return None, None


# ------------------------------------------------------------------- commands
#
# A problem command takes the parsed arguments and problem file and returns
# its exit code, the JSON keys it owns and its text lines; _run prints one
# or the other.

def _run(command, args):
    problem = parse_problem(_read(args.file))
    code, keys, lines = command(args, problem)
    if args.json:
        import json
        obj = {"command": args.command, "input_hash": _input_hash(problem.source),
               "problem": problem.source, "witness": None, **keys}
        lines = [json.dumps(obj, indent=2, sort_keys=True)]
    print(*lines, sep="\n")
    return code


def cmd_check(args, problem):
    F = PolyMap(problem.map_components, problem.weights)
    verdict = is_complete_intersection_at_infinity(F)
    result = {
        "cia": verdict.is_cia,
        "dim_fibre_at_infinity": verdict.dim_fibre,
        "dim_singular_at_infinity": verdict.dim_singular,
        "n": F.n,
        "q": F.q,
    }
    lines = [("complete intersection at infinity" if verdict.is_cia
              else "not a complete intersection at infinity"),
             f"dim V(I) = {verdict.dim_fibre}",
             f"dim V(I+J) = {verdict.dim_singular}"]
    return EXIT_OK if verdict.is_cia else EXIT_MATH, {"result": result}, lines


def cmd_milnor(args, problem):
    mu = milnor_number(PolyMap(problem.map_components, problem.weights))
    return EXIT_OK, {"result": {"mu": mu}}, [f"mu = {mu}"]


def cmd_basis(args, problem):
    B = infinity_basis(PolyMap(problem.map_components, problem.weights))
    result = {
        "mu": B.mu,
        "degrees": B.degrees,
        "forms": [form_to_json(b) for b in B.forms],
    }
    lines = [f"mu = {B.mu}"]
    lines += [f"omega_{i} (degree {d}) = "
              f"{form_str(b, problem.var_names, problem.weights)}"
              for i, (b, d) in enumerate(zip(B.forms, B.degrees), start=1)]
    return EXIT_OK, {"result": result}, lines


def cmd_class(args, problem):
    form = _resolve_form(args.form, problem)
    point = _resolve_point(args.point, problem)
    _guard_degree_bound(form, problem.weights, args.degree_bound)
    F = PolyMap(problem.map_components, problem.weights)
    fc = fibre_class(form, F, point, infinity_basis(F))
    lam = [str(c) for c in fc.coefficients]
    keys = {"form": form_to_json(form), "point": [str(c) for c in point],
            "result": {"lambda": lam}}
    lines = ["lambda = (" + ", ".join(lam) + ")"]
    if args.witness:
        keys["witness"], witness_lines = _witness(fc, problem)
        lines += witness_lines
    return EXIT_OK, keys, lines


def cmd_decompose(args, problem):
    form = _resolve_form(args.form, problem)
    _guard_degree_bound(form, problem.weights, args.degree_bound)
    F = PolyMap(problem.map_components, problem.weights)
    B = infinity_basis(F)
    dec = relative_decompose(form, F, B)
    if not verify_decomposition(form, dec, F, B):
        raise RuntimeError("internal: decomposition failed self-verification")
    witness, witness_lines = _witness(dec, problem)
    keys = {"form": form_to_json(form),
            "result": {"a": [poly_to_json(a) for a in dec.coeff_polys]},
            "witness": witness}
    r = form.weighted_degree(problem.weights)
    lines = [f"a_{i}(t) = {_t_str(a, F)}"
             for i, a in enumerate(dec.coeff_polys, start=1)]
    lines += witness_lines
    lines.append(f"verified: identity and degree bounds hold (deg omega = {r})")
    return EXIT_OK, keys, lines


def cmd_subalgebra(args, problem):
    P = form_to_polynomial(_resolve_form(args.poly, problem))
    F = PolyMap(problem.map_components, problem.weights)
    A = is_in_subalgebra(P, F)
    result = {
        "in_subalgebra": A is not None,
        "a": poly_to_json(A) if A is not None else None,
    }
    line = "not in C[F]" if A is None else f"A(t) = {_t_str(A, F)}"
    return EXIT_OK, {"result": result}, [line]


def cmd_verify(args):
    import json
    raw = _read(args.file)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad witness JSON: {exc}")
    except ValueError:
        raise ParseError("bad witness JSON: integer literal too long",
                         *_long_integer_at(raw)) from None

    def fail(reason):
        print(f"verification: FAIL ({reason})")
        return EXIT_MATH

    try:
        command = data["command"]
        problem_text = data["problem"]
        claimed_hash = data["input_hash"]
        result = data["result"]
        witness = data["witness"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"witness JSON missing key: {exc}")
    if command not in ("class", "decompose"):
        raise ParseError(f"cannot verify a {command!r} result")
    if witness is None:
        raise ParseError("witness JSON has no witness "
                         "(re-run with --witness)")
    if not isinstance(problem_text, str):
        raise ParseError("witness JSON problem is not a string")
    if _input_hash(problem_text) != claimed_hash:
        return fail("input_hash mismatch")
    problem = parse_problem(problem_text)
    n = problem.n
    F = PolyMap(problem.map_components, problem.weights)
    B = infinity_basis(F)
    try:
        omega = form_from_json(data["form"], n)
        # read in the order form, point, lambda or a, omega, eta: of several
        # faults, the first in that order is the one reported
        if command == "class":
            record = FibreClass
            fields = (tuple(parse_rational(c) for c in data["point"]),
                      [parse_rational(c) for c in result["lambda"]])
        else:
            record = RelativeDecomposition
            fields = ([poly_from_json(a, F.q) for a in result["a"]],)
        payload = record(*fields, form_from_json(witness["omega"], n),
                         [form_from_json(e, n) for e in witness["eta"]])
        ok = verify_decomposition(omega, payload, F, B)
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise ParseError(f"malformed witness payload: {exc}")
    if not ok:
        return fail("identity or degree bounds do not hold")
    print("verification: PASS")
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fibera",
        description="Exact cohomology of polynomial map fibres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="problem file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=lambda args: _run(func, args))
        return p

    add("check", cmd_check, help="complete-intersection-at-infinity verdict")
    add("milnor", cmd_milnor, help="Milnor number of the fibre at infinity")
    add("basis", cmd_basis, help="cohomology basis of the fibre at infinity")

    p = add("class", cmd_class, help="fibre cohomology coordinates of a form")
    p.add_argument("--form", required=True, help="form name or expression")
    p.add_argument("--point", required=True, help="point name or r1,...,rq")
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--witness", action="store_true",
                   help="include the exactness witness")

    p = add("decompose", cmd_decompose, help="relative decomposition of a form")
    p.add_argument("--form", required=True, help="form name or expression")
    p.add_argument("--degree-bound", type=int, default=None)

    p = add("subalgebra", cmd_subalgebra,
            help="membership of a polynomial in C[F]")
    p.add_argument("--poly", required=True, help="polynomial name or expression")

    p = sub.add_parser("verify", help="recheck an emitted JSON witness")
    p.add_argument("file", help="witness JSON file")
    p.set_defaults(func=cmd_verify)
    return parser


# Options whose value may start with one "-" (a negative point coordinate,
# a negated form), which argparse would take for an option of its own.
_DASH_VALUE_OPTIONS = ("--form", "--point", "--poly")


def _join_dash_values(argv):
    """argv with each `OPT -VALUE` as `OPT=-VALUE`, where OPT is one of
    _DASH_VALUE_OPTIONS or an abbreviation of one; a following `--name`
    stays an option."""
    out = []
    for a in argv:
        opt = out[-1] if out else ""
        if (a.startswith("-") and not a.startswith("--") and len(opt) > 2
                and any(o.startswith(opt) for o in _DASH_VALUE_OPTIONS)):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except RuntimeError as exc:
        msg = str(exc).removeprefix("internal: ")
        print(f"internal error: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
