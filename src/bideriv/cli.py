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
"""

from __future__ import annotations

import argparse
import json
import sys

from .automorphisms import aut_dim1, check_automorphism, is_orthogonal
from .errors import (BiderivError, CoercionError, DimensionMismatchError, ParseError,
                     PreconditionError)
from .fields import Field, field_from_name, scalar_to_str
from .jordan import (
    bimodule_defects,
    jordan_identity_defect,
    matrix_to_quadratic,
    quadratic_to_matrix,
)
from .matrices import SquareMatrix, SymMatrix
from .poly import Polynomial, VectorField, associator, circ, gradient, jacobiator, lie_bracket
from .simplicity import (MAX_CELL_DIMENSION, Subspace, bimodule_closure,
                         guarded_cell_dimension, ideal_reduce, is_simple_bimodule)
from .textio import ParseContext, format_polynomial, parse_polynomial
from .verdicts import SimplicityReport, Verdict
from .weights import WeightDecomposition, decompose, peirce_decomposition

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


def matrix_payload(m: SquareMatrix) -> dict:
    return {
        "type": "matrix",
        "n": m.n,
        "field": m.field.name,
        "entries": [[scalar_to_str(v) for v in row] for row in m.entries],
    }


def matrix_from_json(text: str, fld: Field, symmetric: bool = False) -> SquareMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad matrix JSON: {exc.msg}", exc.pos) from exc
    except RecursionError:
        raise ParseError("bad matrix JSON: nested too deeply", 0) from None
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


def decomposition_payload(d: WeightDecomposition) -> dict:
    return {
        "type": "weight_decomposition",
        "n": d.n,
        "field": d.field.name,
        "parts": [
            {"weight": list(w.exponents), "part": polynomial_payload(p)}
            for w, p in d
        ],
    }


def verdict_payload(v: Verdict) -> dict:
    witness = v.witness
    if witness is not None and not isinstance(witness, (str, int, list, dict)):
        witness = str(witness)
    return {"type": "verdict", "ok": v.ok, "detail": v.detail, "witness": witness}


def scalar_payload(c, fld: Field) -> dict:
    return {"type": "scalar", "field": fld.name, "value": scalar_to_str(c)}


def closure_payload(s: Subspace) -> dict:
    return {
        "type": "closure",
        "n": s.n,
        "k": s.k,
        "dimension": s.dimension,
        "full_dimension": s.full_dimension,
        "basis": [polynomial_payload(p) for p in s.basis],
    }


def report_payload(r: SimplicityReport) -> dict:
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


def _matrix_text(m: SquareMatrix) -> str:
    return "\n".join(" ".join(scalar_to_str(v) for v in row) for row in m.entries)


def _weight_text(w) -> str:
    return "(" + ",".join(str(e) for e in w.exponents) + ")"


def _decomposition_text(d: WeightDecomposition) -> str:
    return "\n".join(f"{_weight_text(w)}: {format_polynomial(p)}" for w, p in d)


def _verdict_text(v: Verdict, positive: str, negative: str) -> str:
    head = positive if v.ok else negative
    out = f"{head} ({v.detail})" if v.detail else head
    if not v.ok and v.witness is not None:
        out += f"\nwitness: {v.witness}"
    return out


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _context(args) -> ParseContext:
    return ParseContext(n=args.n, field=field_from_name(args.field),
                        max_degree=args.max_degree)


def _parse_all(args, *texts: str) -> list[Polynomial]:
    ctx = _context(args)
    return [parse_polynomial(t, ctx) for t in texts]


def _poly_result(f: Polynomial) -> tuple[dict, str, int]:
    return polynomial_payload(f), format_polynomial(f), _EXIT_OK


def _verdict_result(v: Verdict, positive: str, negative: str) -> tuple[dict, str, int]:
    code = _EXIT_OK if v.ok else _EXIT_NEGATIVE
    return verdict_payload(v), _verdict_text(v, positive, negative), code


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
    (q,) = _parse_all(args, args.q)
    m = quadratic_to_matrix(q)
    return matrix_payload(m), _matrix_text(m), _EXIT_OK


def _cmd_xi_inv(args):
    fld = field_from_name(args.field)
    m = matrix_from_json(sys.stdin.read(), fld, symmetric=True)
    if m.n != args.n:
        raise DimensionMismatchError(f"matrix is {m.n}x{m.n}, expected n={args.n}")
    return _poly_result(matrix_to_quadratic(m))


def _cmd_jordan_defect(args):
    x, y = _parse_all(args, args.x, args.y)
    return _poly_result(jordan_identity_defect(x, y))


def _cmd_bimodule_defect(args):
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
    (f,) = _parse_all(args, args.f)
    d = decompose(f)
    return decomposition_payload(d), _decomposition_text(d), _EXIT_OK


def _cmd_peirce(args):
    guarded_cell_dimension(args.n, 2)  # the quadratics: C(n+1, 2) monomials
    d = peirce_decomposition(args.n, field_from_name(args.field))
    return decomposition_payload(d), _decomposition_text(d), _EXIT_OK


def _cmd_reduce(args):
    (f,) = _parse_all(args, args.f)
    witness = ideal_reduce(f)
    payload = scalar_payload(witness, f.field)
    return payload, scalar_to_str(witness), _EXIT_OK


def _cmd_closure(args):
    (seed,) = _parse_all(args, args.seed)
    space = bimodule_closure(seed, args.n, args.k)
    text_lines = [f"dimension: {space.dimension} of {space.full_dimension}"]
    text_lines.extend(format_polynomial(p) for p in space.basis)
    return closure_payload(space), "\n".join(text_lines), _EXIT_OK


def _cmd_simple(args):
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
    fld = field_from_name(args.field)
    m = matrix_from_json(sys.stdin.read(), fld)
    if m.n != args.n:
        raise DimensionMismatchError(f"matrix is {m.n}x{m.n}, expected n={args.n}")
    verdict = check_automorphism(m, rng_seed=args.seed)
    payload, text, code = _verdict_result(verdict, "automorphism: yes", "automorphism: no")
    payload["orthogonal"] = is_orthogonal(m)
    return payload, text, code


def _cmd_aut1(args):
    fld = field_from_name(args.field)
    verdict = aut_dim1(fld(args.lam), fld(args.mu), fld)
    return _verdict_result(verdict, "automorphism: yes", "automorphism: no")


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------


def _add_common(sub, n_flag: bool = True):
    if n_flag:
        sub.add_argument("-n", type=int, required=True, help="number of variables")
    sub.add_argument("--field", default="q", help="coefficient field: q or fp:P (odd prime)")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--max-degree", type=int, default=16,
                     help="refuse expressions above this degree (default 16)")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bideriv",
        description="Exact polynomial algebra with the gradient product f o g = grad f . grad g",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, positionals, n_flag=True):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, n_flag=n_flag)
        for arg_name, arg_help in positionals:
            p.add_argument(arg_name, help=arg_help)
        p.set_defaults(handler=handler)
        return p

    cmd("circ", _cmd_circ, "gradient product of two polynomials",
        [("f", "first polynomial"), ("g", "second polynomial")])
    cmd("grad", _cmd_grad, "gradient vector field", [("f", "polynomial")])
    cmd("bracket", _cmd_bracket, "Lie bracket of two gradient fields",
        [("f", "first polynomial"), ("g", "second polynomial")])
    cmd("assoc", _cmd_assoc, "associator (f o g) o h - f o (g o h)",
        [("f", "first"), ("g", "second"), ("h", "third")])
    cmd("jacobi", _cmd_jacobi, "cyclic Jacobi sum of three polynomials",
        [("f", "first"), ("g", "second"), ("h", "third")])
    cmd("xi", _cmd_xi, "symmetric matrix 4A of a quadratic form q_A",
        [("q", "homogeneous quadratic")])
    cmd("xi-inv", _cmd_xi_inv, "quadratic form of a matrix (JSON on stdin)", [])
    cmd("jordan-defect", _cmd_jordan_defect, "Jordan identity residual",
        [("x", "first polynomial"), ("y", "second polynomial")])
    cmd("bimodule-defect", _cmd_bimodule_defect, "three Jordan-bimodule residuals",
        [("x", "quadratic action"), ("y", "quadratic action"), ("m", "module element")])
    cmd("decompose", _cmd_decompose, "weight-space decomposition",
        [("f", "polynomial")])
    cmd("peirce", _cmd_peirce, "Peirce basis of the quadratics", [])
    cmd("reduce", _cmd_reduce, "factorial ideal-reduction witness",
        [("f", "nonzero polynomial")])
    closure = cmd("closure", _cmd_closure, "bimodule closure of a seed",
                  [("seed", "homogeneous seed polynomial")])
    closure.add_argument("-k", type=int, required=True, help="homogeneous degree")
    simple = cmd("simple", _cmd_simple, "simplicity sweep over one component", [])
    simple.add_argument("-k", type=int, required=True, help="homogeneous degree")
    simple.add_argument("--seeds", type=int, default=3, help="extra random seeds")
    cmd("aut-check", _cmd_aut_check, "check a matrix candidate (JSON on stdin)", [])
    cmd("aut1", _cmd_aut1, "check x -> lam*x + mu on one variable",
        [("lam", "scalar multiplier"), ("mu", "scalar shift")], n_flag=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        print(json.dumps({"status": status, "payload": payload, "diagnostics": diagnostics},
                         sort_keys=True))
    elif text:
        print(text)
    return code
