"""Cross-check a sample of benchmark task outputs, and the benchmark's own
witnesses, against sympy.

usage (from the root of a checkout):
    python3 perfbench/oracle.py [--seed N]

This is a self-test of the benchmark's checks, run outside the timed runs.
It takes the first round of the `identities` workload for seed N and
recomputes with sympy the outputs of `circ`, `gradient`, `lie_bracket`
(through ``[grad f, grad(f o f)]``), substitution and
`quadratic_to_matrix`.  Each is compared with both the library's output
and the witness the benchmark checks it against, so a wrong witness shows
up even when the library agrees with it.  The witnesses are computed here
in exact rational arithmetic; the timed runs use the same `ref.py` code
modulo a prime.  Exits 0 when everything agrees or
sympy cannot be imported (reported as skipped), 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        import sympy
    except ImportError:
        print(json.dumps({"oracle": "sympy", "skipped": "sympy cannot be imported"}))
        return 0
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bideriv", "__init__.py")):
        print("oracle: no src/bideriv here; run from the root of a bideriv checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import bideriv as bd
    import gen
    import workloads
    from ref import Ref

    ref = Ref()

    def sym(term_map: dict, xs):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[x**e for x, e in zip(xs, u)])
                    for u, c in term_map.items()), sympy.Integer(0))

    def same(*exprs) -> bool:
        return all(sympy.expand(e - exprs[0]) == 0 for e in exprs[1:])

    checked, mismatches = 0, []

    def record(ok: bool, what: str):
        nonlocal checked
        checked += 1
        if not ok:
            mismatches.append(what)

    drawn = [call for batch in workloads.identity_inputs(args.seed, 0) for call in batch]
    for j, (kind, n, data) in enumerate(drawn):
        task = workloads._identity_task(bd, kind, n, ref, data)
        xs = sympy.symbols(f"x1:{n + 1}")
        where = f"call {j} ({kind}, n={n})"
        if kind == "circ":
            f, g = sym(data["f"], xs), sym(data["g"], xs)
            want = sum(sympy.diff(f, x) * sympy.diff(g, x) for x in xs)
            out = task.run()
            witness = ref.circ(ref.norm(data["f"]), ref.norm(data["g"]), n)
            record(same(want, sym(ref.of(out), xs), sym(witness, xs)), where)
        elif kind == "bracket_square":
            f = sym(data["f"], xs)
            grad = [sympy.diff(f, x) for x in xs]
            square = sympy.expand(sum(d * d for d in grad))
            grad_sq = [sympy.diff(square, x) for x in xs]
            want = [sum(grad[i] * sympy.diff(grad_sq[k], xs[i])
                        - grad_sq[i] * sympy.diff(grad[k], xs[i]) for i in range(n))
                    for k in range(n)]
            poly = bd.Polynomial(n, data["f"])
            lib_grad = bd.gradient(poly).components
            record(all(same(w, sym(ref.of(c), xs)) for w, c in zip(grad, lib_grad)),
                   where + " gradient")
            witness = bd.lie_bracket(bd.gradient(poly), bd.gradient(bd.circ(poly, poly)))
            out = task.run()
            record(all(same(w, sym(ref.of(a), xs), sym(ref.of(b), xs))
                       for w, a, b in zip(want, witness.components, out.components)),
                   where + " lie_bracket")
        elif kind == "substitute":
            a = gen.orthogonal_matrix(data["a"])
            images = {xs[j]: sum(sympy.Rational(a[k][j].numerator, a[k][j].denominator)
                                 * xs[k] for k in range(n)) for j in range(n)}
            want = sym(data["f"], xs).subs(images, simultaneous=True)
            images_ref = [ref.norm({tuple(int(i == k) for i in range(n)): a[k][j]
                                    for k in range(n)}) for j in range(n)]
            witness = ref.substitute(ref.norm(data["f"]), images_ref, n)
            record(same(want, sym(ref.of(task.run()), xs), sym(witness, xs)), where)
        elif kind == "xi":
            q = sym(gen.quadratic_of(data["a"]), xs)
            want = 2 * sympy.hessian(q, xs)
            out = task.run()
            lib = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                                for row in out.entries])
            witness = sympy.Matrix([[sympy.Rational(4 * Fraction(c)) for c in row]
                                    for row in data["a"]])
            record(want == lib == witness, where)
    print(f"sympy {sympy.__version__}: {checked} comparisons, {len(mismatches)} mismatches")
    for what in mismatches:
        print(f"mismatch: {what}")
    print(json.dumps({"oracle": f"sympy {sympy.__version__}", "seed": args.seed,
                      "checked": checked, "mismatches": len(mismatches)}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
