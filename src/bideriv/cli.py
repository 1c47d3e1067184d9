"""Command-line interface: the `bideriv` executable.

Every subcommand reads polynomial expressions (and, for matrix inputs,
JSON of the form ``{"n": N, "entries": [["a/b", ...], ...]}`` on stdin),
computes exactly, and prints either human-readable text or, with
``--json``, a single-line machine result::

    {"status": "ok" | "error", "payload": ..., "diagnostics": [...]}

Exit codes: 0 success / positive verdict; 1 negative verdict or
out-of-domain input; 2 expression or JSON parse error; 3 precondition
violation (wrong characteristic, dimension or field mismatch, degree
guard, ``-n`` above ``MAX_CELL_DIMENSION``).  A library error exits with
its class's ``exit_code``.  Output is byte-deterministic for identical
invocations.

A call builds only its own subcommand's parser and imports only the modules
its handler needs; help and usage errors go through :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (BiderivError, CoercionError, DimensionMismatchError, ParseError,
                     PreconditionError)
from .fields import Field, field_from_name, scalar_to_str
from .poly import (MAX_CELL_DIMENSION, Polynomial, VectorField, associator, circ, gradient,
                   jacobiator, lie_bracket)
from .textio import ParseContext, format_polynomial, parse_polynomial

__all__ = ["build_parser", "main"]

_EXIT_OK = 0
_EXIT_NEGATIVE = 1


# ----------------------------------------------------------------------
# payload builders (JSON round-trips losslessly: coefficients as strings)
# ----------------------------------------------------------------------


def polynomial_payload(f: Polynomial) -> dict:
    return {
        "type": "polynomial",
        "n": f.n,
        "field": f.field.name,
        "terms": [
            {"exponents": list(u), "coefficient": scalar_to_str(c)}
            for u, c in f.sorted_terms()
        ],
    }


def polynomial_from_payload(obj: dict) -> Polynomial:
    fld = field_from_name(obj["field"])
    terms = {tuple(t["exponents"]): fld(t["coefficient"]) for t in obj["terms"]}
    return Polynomial(obj["n"], terms, fld)


def vector_field_payload(v: VectorField) -> dict:
    return {
        "type": "vector_field",
        "n": v.n,
        "field": v.field.name,
        "components": [polynomial_payload(c) for c in v.components],
    }


def matrix_payload(m) -> dict:
    return {
        "type": "matrix",
        "n": m.n,
        "field": m.field.name,
        "entries": [[scalar_to_str(v) for v in row] for row in m.entries],
    }


def matrix_from_json(text: str, fld: Field, symmetric: bool = False):
    import json

    from .matrices import SquareMatrix, SymMatrix
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad matrix JSON: {exc.msg}", exc.pos) from exc
    except RecursionError:
        raise ParseError("bad matrix JSON: nested too deeply", 0) from None
    except ValueError:  # a number above the interpreter's int-from-str digit limit
        raise ParseError("bad matrix JSON: a number has too many digits", 0) from None
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ParseError('matrix JSON must be {"n": N, "entries": [[...], ...]}', 0)
    n = obj.get("n", len(entries))
    if len(entries) != n or any(len(row) != n for row in entries):
        raise DimensionMismatchError("matrix entries do not form an n x n grid")
    try:
        rows = [[fld(v) for v in row] for row in entries]
    except CoercionError as exc:
        raise ParseError(f"bad matrix entry: {exc}", 0) from exc
    return SymMatrix(rows, fld) if symmetric else SquareMatrix(rows, fld)


def decomposition_payload(d) -> dict:
    return {
        "type": "weight_decomposition",
        "n": d.n,
        "field": d.field.name,
        "parts": [
            {"weight": list(w.exponents), "part": polynomial_payload(p)}
            for w, p in d
        ],
    }


def scalar_payload(c, fld: Field) -> dict:
    return {"type": "scalar", "field": fld.name, "value": scalar_to_str(c)}


def closure_payload(s) -> dict:
    return {
        "type": "closure",
        "n": s.n,
        "k": s.k,
        "dimension": s.dimension,
        "full_dimension": s.full_dimension,
        "basis": [polynomial_payload(p) for p in s.basis],
    }


def report_payload(r) -> dict:
    return {
        "type": "simplicity_report",
        "n": r.n,
        "k": r.k,
        "ok": r.ok,
        "expected_dimension": r.expected_dimension,
        "seeds_checked": r.seeds_checked,
        "failures": [{"seed": s, "dimension": d} for s, d in r.failures],
    }


# ----------------------------------------------------------------------
# text renderings
# ----------------------------------------------------------------------


def _vector_field_text(v: VectorField) -> str:
    return "\n".join(
        f"d/dx{i}: {format_polynomial(c)}" for i, c in enumerate(v.components, start=1)
    )


def _matrix_text(m) -> str:
    return "\n".join(" ".join(scalar_to_str(v) for v in row) for row in m.entries)


def _weight_text(w) -> str:
    return "(" + ",".join(str(e) for e in w.exponents) + ")"


def _decomposition_text(d) -> str:
    return "\n".join(f"{_weight_text(w)}: {format_polynomial(p)}" for w, p in d)


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _parse_all(args, *texts: str) -> list[Polynomial]:
    ctx = ParseContext(n=args.n, field=field_from_name(args.field), max_degree=args.max_degree)
    return [parse_polynomial(t, ctx) for t in texts]


def _poly_result(f: Polynomial) -> tuple[dict, str, int]:
    return polynomial_payload(f), format_polynomial(f), _EXIT_OK


def _automorphism_result(v) -> tuple[dict, str, int]:
    witness = v.witness
    if witness is not None and not isinstance(witness, (str, int, list, dict)):
        witness = str(witness)
    payload = {"type": "verdict", "ok": v.ok, "detail": v.detail, "witness": witness}
    text = f"automorphism: {'yes' if v.ok else 'no'}"
    if v.detail:
        text += f" ({v.detail})"
    if not v.ok and v.witness is not None:
        text += f"\nwitness: {v.witness}"
    return payload, text, _EXIT_OK if v.ok else _EXIT_NEGATIVE


# ----------------------------------------------------------------------
# subcommand handlers: each returns (payload, text, exit code)
# ----------------------------------------------------------------------


def _cmd_circ(args):
    f, g = _parse_all(args, args.f, args.g)
    return _poly_result(circ(f, g))


def _cmd_grad(args):
    (f,) = _parse_all(args, args.f)
    v = gradient(f)
    return vector_field_payload(v), _vector_field_text(v), _EXIT_OK


def _cmd_bracket(args):
    f, g = _parse_all(args, args.f, args.g)
    v = lie_bracket(gradient(f), gradient(g))
    return vector_field_payload(v), _vector_field_text(v), _EXIT_OK


def _cmd_assoc(args):
    f, g, h = _parse_all(args, args.f, args.g, args.h)
    return _poly_result(associator(f, g, h))


def _cmd_jacobi(args):
    f, g, h = _parse_all(args, args.f, args.g, args.h)
    return _poly_result(jacobiator(f, g, h))


def _cmd_xi(args):
    from .jordan import quadratic_to_matrix
    (q,) = _parse_all(args, args.q)
    m = quadratic_to_matrix(q)
    return matrix_payload(m), _matrix_text(m), _EXIT_OK


def _cmd_xi_inv(args):
    from .jordan import matrix_to_quadratic
    fld = field_from_name(args.field)
    m = matrix_from_json(sys.stdin.read(), fld, symmetric=True)
    if m.n != args.n:
        raise DimensionMismatchError(f"matrix is {m.n}x{m.n}, expected n={args.n}")
    return _poly_result(matrix_to_quadratic(m))


def _cmd_jordan_defect(args):
    from .jordan import jordan_identity_defect
    x, y = _parse_all(args, args.x, args.y)
    return _poly_result(jordan_identity_defect(x, y))


def _cmd_bimodule_defect(args):
    from .jordan import bimodule_defects
    x, y, m = _parse_all(args, args.x, args.y, args.m)
    r1, r2, r3 = bimodule_defects(x, y, m)
    payload = {
        "type": "bimodule_defects",
        "r1": polynomial_payload(r1),
        "r2": polynomial_payload(r2),
        "r3": polynomial_payload(r3),
    }
    text = "\n".join(
        f"{name}: {format_polynomial(p)}" for name, p in (("r1", r1), ("r2", r2), ("r3", r3))
    )
    return payload, text, _EXIT_OK


def _cmd_decompose(args):
    from .weights import decompose
    (f,) = _parse_all(args, args.f)
    d = decompose(f)
    return decomposition_payload(d), _decomposition_text(d), _EXIT_OK


def _cmd_peirce(args):
    from .simplicity import guarded_cell_dimension
    from .weights import peirce_decomposition
    guarded_cell_dimension(args.n, 2)  # the quadratics: C(n+1, 2) monomials
    d = peirce_decomposition(args.n, field_from_name(args.field))
    return decomposition_payload(d), _decomposition_text(d), _EXIT_OK


def _cmd_reduce(args):
    from .simplicity import ideal_reduce
    (f,) = _parse_all(args, args.f)
    witness = ideal_reduce(f)
    payload = scalar_payload(witness, f.field)
    return payload, scalar_to_str(witness), _EXIT_OK


def _cmd_closure(args):
    from .simplicity import bimodule_closure
    (seed,) = _parse_all(args, args.seed)
    space = bimodule_closure(seed, args.n, args.k)
    text_lines = [f"dimension: {space.dimension} of {space.full_dimension}"]
    text_lines.extend(format_polynomial(p) for p in space.basis)
    return closure_payload(space), "\n".join(text_lines), _EXIT_OK


def _cmd_simple(args):
    from .simplicity import is_simple_bimodule
    report = is_simple_bimodule(args.n, args.k, random_seeds=args.seeds,
                                rng_seed=args.seed,
                                field=field_from_name(args.field))
    lines = [
        f"simple: {'yes' if report.ok else 'no'}",
        f"dimension: {report.expected_dimension}",
        f"seeds checked: {report.seeds_checked}",
    ]
    for seed_text, dim in report.failures:
        lines.append(f"stuck at {dim}: {seed_text}")
    code = _EXIT_OK if report.ok else _EXIT_NEGATIVE
    return report_payload(report), "\n".join(lines), code


def _cmd_aut_check(args):
    from .automorphisms import check_automorphism, is_orthogonal
    fld = field_from_name(args.field)
    m = matrix_from_json(sys.stdin.read(), fld)
    if m.n != args.n:
        raise DimensionMismatchError(f"matrix is {m.n}x{m.n}, expected n={args.n}")
    verdict = check_automorphism(m, rng_seed=args.seed)
    payload, text, code = _automorphism_result(verdict)
    payload["orthogonal"] = is_orthogonal(m)
    return payload, text, code


def _cmd_aut1(args):
    from .automorphisms import aut_dim1
    fld = field_from_name(args.field)
    verdict = aut_dim1(fld(args.lam), fld(args.mu), fld)
    return _automorphism_result(verdict)


# ----------------------------------------------------------------------
# parser assembly: one table; a call builds only its own subcommand's parser
# ----------------------------------------------------------------------

_DEGREE = ("-k", "homogeneous degree", {"type": int, "required": True})
# name -> (handler, help, arguments after the common options: (name, help[, options]))
_COMMANDS = {
    "circ": (_cmd_circ, "gradient product of two polynomials",
             [("f", "first polynomial"), ("g", "second polynomial")]),
    "grad": (_cmd_grad, "gradient vector field", [("f", "polynomial")]),
    "bracket": (_cmd_bracket, "Lie bracket of two gradient fields",
                [("f", "first polynomial"), ("g", "second polynomial")]),
    "assoc": (_cmd_assoc, "associator (f o g) o h - f o (g o h)",
              [("f", "first"), ("g", "second"), ("h", "third")]),
    "jacobi": (_cmd_jacobi, "cyclic Jacobi sum of three polynomials",
               [("f", "first"), ("g", "second"), ("h", "third")]),
    "xi": (_cmd_xi, "symmetric matrix 4A of a quadratic form q_A",
           [("q", "homogeneous quadratic")]),
    "xi-inv": (_cmd_xi_inv, "quadratic form of a matrix (JSON on stdin)", []),
    "jordan-defect": (_cmd_jordan_defect, "Jordan identity residual",
                      [("x", "first polynomial"), ("y", "second polynomial")]),
    "bimodule-defect": (_cmd_bimodule_defect, "three Jordan-bimodule residuals",
                        [("x", "quadratic action"), ("y", "quadratic action"),
                         ("m", "module element")]),
    "decompose": (_cmd_decompose, "weight-space decomposition", [("f", "polynomial")]),
    "peirce": (_cmd_peirce, "Peirce basis of the quadratics", []),
    "reduce": (_cmd_reduce, "factorial ideal-reduction witness", [("f", "nonzero polynomial")]),
    "closure": (_cmd_closure, "bimodule closure of a seed",
                [("seed", "homogeneous seed polynomial"), _DEGREE]),
    "simple": (_cmd_simple, "simplicity sweep over one component",
               [_DEGREE, ("--seeds", "extra random seeds", {"type": int, "default": 3})]),
    "aut-check": (_cmd_aut_check, "check a matrix candidate (JSON on stdin)", []),
    "aut1": (_cmd_aut1, "check x -> lam*x + mu on one variable",
             [("lam", "scalar multiplier"), ("mu", "scalar shift")]),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str):
    handler, _, arguments = _COMMANDS[command]
    if command != "aut1":  # aut1 acts on the one-variable algebra
        parser.add_argument("-n", type=int, required=True, help="number of variables")
    parser.add_argument("--field", default="q", help="coefficient field: q or fp:P (odd prime)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--max-degree", type=int, default=16,
                        help="refuse expressions above this degree (default 16)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    for name, help_text, *options in arguments:
        parser.add_argument(name, help=help_text, **dict(*options))
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bideriv",
        description="Exact polynomial algebra with the gradient product f o g = grad f . grad g",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


class _OneCommandParser(argparse.ArgumentParser):
    """One subcommand's parser, without -h; it leaves every error to the full parser."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        parser = _OneCommandParser(prog=f"bideriv {argv[0]}", add_help=False)
        _add_arguments(parser, argv[0])
        try:
            return parser.parse_args(argv[1:])
        except argparse.ArgumentError:
            pass  # the full parser prints the help or usage error bytes and exits
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        # One bound on n for every subcommand: some of them (bracket) are quadratic in it.
        if getattr(args, "n", 0) > MAX_CELL_DIMENSION:
            raise PreconditionError(
                f"-n {args.n} is above the configured bound {MAX_CELL_DIMENSION}")
        payload, text, code = args.handler(args)
        status, diagnostics = "ok", []
    except BiderivError as exc:
        text, code = None, exc.exit_code
        status, diagnostics = "error", [str(exc)]
        payload = {"type": "error", "error": type(exc).__name__, "message": str(exc)}
        offset = getattr(exc, "offset", None)
        if offset is not None:
            payload["offset"] = offset
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
    if args.json:
        import json
        print(json.dumps({"status": status, "payload": payload, "diagnostics": diagnostics},
                         sort_keys=True))
    elif text:
        print(text)
    return code
