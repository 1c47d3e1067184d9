"""The three benchmark workloads: seeded task rounds plus their checks.

A workload is an unbounded sequence of rounds.  Round i is drawn from the
seed and i alone, so a run never repeats an input, however many rounds it
gets through, and two commits see the same inputs in round i.  Every round
holds the same mix of task shapes (variable counts, degrees, term counts,
commands, cost tiers of cells); the seed draws exponents, coefficients,
matrices, cells within a tier and the order inside a round.  The timed
loop only stops at a round boundary, so every run measures the same mix
whatever its length.

A task is a timed call (`run`) and a check of its output (`check`, run
after its round, off the clock, returning None when the output is right).
Checks use closed forms from the paper, a second route through the
library, or the benchmark's own reference arithmetic in `ref.py`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from math import comb, factorial, prod
from typing import Any, Callable

import gen
from ref import Ref

P_CHECK = 2**61 - 1  # a Mersenne prime; identity witnesses are computed modulo it
PREBUILT_ROUNDS = 2  # rounds built during set-up; later rounds are built off the clock


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    name: str
    build: Callable[[int], tuple[list, list[Task]]]  # round index -> (inputs, tasks)
    size: str             # the stated input size
    trace_rounds: int     # rounds run by the traced pass
    limit_s: float        # wall limit of one task
    launcher: "Launcher | None" = None
    inputs: list = field(default_factory=list)  # stdlib inputs of the prebuilt rounds, for the digest
    prebuilt: dict = field(default_factory=dict)

    def prebuild(self):
        for i in range(PREBUILT_ROUNDS):
            inputs, tasks = self.build(i)
            self.inputs.append(inputs)
            self.prebuilt[i] = tasks

    def round(self, i: int) -> list[Task]:
        return self.prebuilt.pop(i) if i in self.prebuilt else self.build(i)[1]


def round_rng(stream: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{stream}:{seed}:{i}")


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


# ----------------------------------------------------------------------
# sweep: simplicity sweeps and closures (QQ)
# ----------------------------------------------------------------------

# One round: tiers of (slots, candidate tasks); the seed picks a candidate for
# every slot.  "simple" is is_simple_bimodule on the cell (n, k); "dense" is a
# closure from a seed with every monomial; "sparse" from a 3-term seed (dense
# seeds of dimension 56 and 84 take seconds each at the seed commit).  The
# candidates of a tier cost about the same at the seed commit and the tiers do
# not overlap: the median task lands in the middle of the second tier and the
# tail percentile (ten samples beyond it) inside the costliest, so a run's
# p50 and tail hardly depend on which candidates the seed picked.
SWEEP_TIERS = [
    (4, [("simple", 2, 6), ("simple", 2, 7), ("simple", 2, 8), ("simple", 2, 9),
         ("simple", 2, 10), ("simple", 3, 3), ("simple", 2, 11), ("dense", 3, 4),
         ("dense", 5, 2), ("dense", 4, 3), ("dense", 3, 5), ("sparse", 3, 6),
         ("sparse", 3, 7), ("sparse", 7, 2), ("sparse", 5, 3)]),
    (8, [("dense", 3, 6), ("sparse", 9, 2), ("sparse", 5, 4)]),
    (3, [("dense", 7, 2), ("simple", 5, 2), ("sparse", 10, 2), ("dense", 4, 4),
         ("sparse", 4, 6)]),
    (3, [("simple", 3, 5), ("simple", 4, 3)]),
]
SWEEP_RANDOM_SEEDS = 2


def build_sweep(bd, seed: int) -> Workload:
    def build(i):
        rng = round_rng("sweep", seed, i)
        specs = []
        for slots, candidates in SWEEP_TIERS:
            for _ in range(slots):
                kind, n, k = rng.choice(candidates)
                if kind == "simple":
                    specs.append((kind, n, k, rng.randrange(2**31)))
                elif kind == "dense":
                    specs.append((kind, n, k, gen.dense_homogeneous(rng, n, k)))
                else:
                    specs.append((kind, n, k, gen.homogeneous(rng, n, k, 3)))
        rng.shuffle(specs)
        return specs, [_sweep_task(bd, *spec) for spec in specs]

    def dims(kinds):
        found = [comb(n + k - 1, n - 1) for _, candidates in SWEEP_TIERS
                 for kind, n, k in candidates if kind in kinds]
        return f"{min(found)}-{max(found)}"

    size = (f"{sum(slots for slots, _ in SWEEP_TIERS)} tasks per round: is_simple_bimodule "
            f"on cells of dimension {dims({'simple'})} with {SWEEP_RANDOM_SEEDS} random seeds, "
            f"bimodule_closure on dimensions {dims({'dense', 'sparse'})}")
    return Workload("sweep", build, size, trace_rounds=1, limit_s=60.0)


def _sweep_task(bd, kind, n, k, arg) -> Task:
    dim = comb(n + k - 1, n - 1)
    if kind == "simple":
        def check(r):
            return _expect(r.ok and r.expected_dimension == dim
                           and r.seeds_checked == dim + SWEEP_RANDOM_SEEDS,
                           f"sweep ({n},{k}): {r}")
        return Task(f"simple_{n}_{k}", lambda: bd.is_simple_bimodule(
            n, k, random_seeds=SWEEP_RANDOM_SEEDS, rng_seed=arg), check)
    seed_poly = bd.Polynomial(n, arg)
    # Keep only the dimension; the check needs nothing else from the echelon rows.
    return Task(f"{kind}_{n}_{k}", lambda: bd.bimodule_closure(seed_poly, n, k).dimension,
                lambda d: _expect(d == dim, f"closure ({n},{k}) reached {d}, expected {dim}"))


# ----------------------------------------------------------------------
# identities: biderivation identities on random polynomials (QQ)
# ----------------------------------------------------------------------

IDENTITY_KINDS = ["circ", "leibniz", "associator", "jacobiator", "bracket_square", "jordan",
                  "bimodule", "bimodule_power", "matrix_residual", "xi", "reduce",
                  "aut_yes", "aut_no", "substitute"]
# The variable counts of a round's batches.  n = 4 comes three times, so the
# median task is an n = 4 batch and its estimate rests on most of the run's
# batches; the tail percentile falls among the n = 6 batches.
IDENTITY_NS = (2, 3, 4, 4, 4, 5, 6)
IDENTITY_REPEATS = 2     # calls of each kind in one batch


def _draw_identity(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "circ":
        return {"f": gen.terms(rng, n, 6, 6), "g": gen.terms(rng, n, 6, 6)}
    if kind == "leibniz":
        return {"f": gen.terms(rng, n, 6, 5), "g": gen.terms(rng, n, 3, 4),
                "h": gen.terms(rng, n, 3, 4)}
    if kind in ("associator", "jacobiator"):
        return {k: gen.terms(rng, n, 6, 4) for k in "fgh"}
    if kind in ("bracket_square", "reduce"):
        return {"f": gen.terms(rng, n, 6, 5)}
    if kind == "jordan":
        return {"x": gen.terms(rng, n, 2, 5), "y": gen.terms(rng, n, 2, 5)}
    if kind == "bimodule":
        return {"x": gen.homogeneous(rng, n, 2, 4), "y": gen.homogeneous(rng, n, 2, 4),
                "m": gen.terms(rng, n, 2, 4)}
    if kind == "bimodule_power":
        return {"i": rng.randint(3, 6)}
    if kind == "matrix_residual":
        return {"a": gen.sym_matrix(rng, n), "b": gen.sym_matrix(rng, n)}
    if kind == "xi":
        return {"a": gen.sym_matrix(rng, n)}
    if kind in ("aut_yes", "aut_no"):
        return {"a": gen.orthogonal_spec(rng, n)}
    if kind == "substitute":
        return {"a": gen.orthogonal_spec(rng, n), "f": gen.terms(rng, n, 6, 4)}
    raise ValueError(kind)


def identity_inputs(seed: int, i: int) -> list[list[tuple]]:
    """Round i's draws, one list of (kind, n, data) per batch."""
    rng = round_rng("identities", seed, i)
    return [[(kind, n, _draw_identity(rng, kind, n)) for kind in IDENTITY_KINDS * IDENTITY_REPEATS]
            for n in IDENTITY_NS]


def build_identities(bd, seed: int) -> Workload:
    witness = Ref(P_CHECK)

    def build(i):
        drawn = identity_inputs(seed, i)
        return drawn, [_batch(f"batch_n{batch[0][1]}",
                              [_identity_task(bd, kind, n, witness, data)
                               for kind, n, data in batch])
                       for batch in drawn]

    size = (f"{len(IDENTITY_NS)} tasks per round over QQ, one per n in {IDENTITY_NS}; "
            f"a task is a batch of {IDENTITY_REPEATS * len(IDENTITY_KINDS)} identity calls "
            f"({IDENTITY_REPEATS} of each kind) on inputs of degree <= 6")
    return Workload("identities", build, size, trace_rounds=4, limit_s=30.0)


def _batch(kind: str, calls: list[Task]) -> Task:
    """One task that makes several calls in turn; it fails if any call's check fails."""
    def check(outs):
        for call, out in zip(calls, outs):
            message = call.check(out)
            if message:
                return f"{kind}: {call.kind}: {message}"
        return None
    return Task(kind, lambda: [call.run() for call in calls], check)


def _identity_task(bd, kind: str, n: int, w: Ref, data: dict) -> Task:
    """One identity call over QQ; `w` is the arithmetic the witnesses are computed in.

    The workload passes GF(P_CHECK) arithmetic: a witness is then the image
    of the exact result modulo a 61-bit prime, and an output passes only if
    every coefficient agrees with it there, at a fraction of the cost of
    recomputing it in Fractions.
    """
    def tm(key):  # term map in the witness arithmetic
        return w.norm({u: w.coerce(c) for u, c in data[key].items()})

    def poly(key):
        return bd.Polynomial(n, data[key])

    def sym(key):
        return bd.SymMatrix(data[key])

    if kind == "circ":
        f, g = poly("f"), poly("g")
        return Task(kind, lambda: bd.circ(f, g),
                    lambda out: _expect(w.of(out) == w.circ(tm("f"), tm("g"), n), "circ"))
    if kind == "leibniz":
        f, g, h = poly("f"), poly("g"), poly("h")
        return Task(kind, lambda: bd.circ(f, g * h), lambda out: _expect(
            out == bd.circ(f, g) * h + g * bd.circ(f, h), "Leibniz rule"))
    if kind in ("associator", "jacobiator"):
        f, g, h = poly("f"), poly("g"), poly("h")
        tf, tg, th = tm("f"), tm("g"), tm("h")

        def c(a, b):
            return w.circ(a, b, n)
        if kind == "associator":
            return Task(kind, lambda: bd.associator(f, g, h), lambda out: _expect(
                w.of(out) == w.add(c(c(tf, tg), th), c(tf, c(tg, th)), -1), kind))
        return Task(kind, lambda: bd.jacobiator(f, g, h), lambda out: _expect(
            w.of(out) == w.add(w.add(c(c(tf, tg), th), c(c(tg, th), tf)), c(c(th, tf), tg)),
            kind))
    if kind == "bracket_square":
        f = poly("f")
        return Task(kind, lambda: bd.bracket_with_square(f), lambda out: _expect(
            out == bd.lie_bracket(bd.gradient(f), bd.gradient(bd.circ(f, f))),
            "[grad f, grad(f o f)] closed form"))
    if kind == "jordan":
        x, y = poly("x"), poly("y")
        return Task(kind, lambda: bd.jordan_identity_defect(x, y),
                    lambda out: _expect(out.is_zero, "Jordan residual on degree <= 2"))
    if kind == "bimodule":
        x, y, m = poly("x"), poly("y"), poly("m")
        return Task(kind, lambda: bd.bimodule_defects(x, y, m), lambda out: _expect(
            all(res.is_zero for res in out), "bimodule residuals on quadratics"))
    if kind == "bimodule_power":
        i = data["i"]
        x = bd.Polynomial.monomial(n, (2,) + (0,) * (n - 1))
        m = bd.Polynomial.monomial(n, (i,) + (0,) * (n - 1))
        want = w.norm({(i,) + (0,) * (n - 1): w.coerce(16 * i * (i - 1) * (i - 2))})
        return Task(kind, lambda: bd.bimodule_defects(x, x, m), lambda out: _expect(
            out[0].is_zero and out[1].is_zero and w.of(out[2]) == want,
            f"r3(x1^2, x1^2, x1^{i}) != 16 i(i-1)(i-2) x1^i"))
    if kind == "matrix_residual":
        a, b = sym("a"), sym("b")
        return Task(kind, lambda: bd.matrix_correspondence_residual(a, b),
                    lambda out: _expect(out.is_zero, "q_A o q_B - 4 q_(A o B)"))
    if kind == "xi":
        q = bd.Polynomial(n, gen.quadratic_of(data["a"]))
        want = [[4 * c for c in row] for row in data["a"]]
        return Task(kind, lambda: bd.quadratic_to_matrix(q), lambda out: _expect(
            [list(row) for row in out.entries] == want, "quadratic_to_matrix(q_A) != 4A"))
    if kind == "reduce":
        f = poly("f")
        u = max(data["f"], key=lambda e: (sum(e), e))
        want = prod(factorial(e) for e in u) * data["f"][u]
        return Task(kind, lambda: bd.ideal_reduce(f),
                    lambda out: _expect(out == want, "ideal_reduce != u1!...un! a"))
    if kind in ("aut_yes", "aut_no"):
        rows = gen.orthogonal_matrix(data["a"])
        if kind == "aut_no":  # doubling column 1 makes h1 o h1 = 4
            for row in rows:
                row[0] *= 2
        mat = bd.SquareMatrix(rows)
        # The default spot-check seed: the spot polynomials come from the library's
        # own sampler, and their cost varies about tenfold from one seed to another.
        return Task(kind, lambda: bd.check_automorphism(mat),
                    lambda out: _expect(out.ok == (kind == "aut_yes"), f"{kind} verdict"))
    if kind == "substitute":
        f = poly("f")
        a = gen.orthogonal_matrix(data["a"])
        sub = bd.induced_map(bd.SquareMatrix(a))
        images = [w.norm({tuple(int(i == k) for i in range(n)): w.coerce(a[k][j])
                          for k in range(n)}) for j in range(n)]
        return Task(kind, lambda: sub.apply(f), lambda out: _expect(
            w.of(out) == w.substitute(tm("f"), images, n), "substitution"))
    raise ValueError(kind)


# ----------------------------------------------------------------------
# cli: one-shot `python -m bideriv` invocations
# ----------------------------------------------------------------------

CLI_P = 10007


class Launcher:
    """Spawns one CLI child at a time; traced children go through cli_shim.py."""

    def __init__(self, root: str, limit_s: float):
        self.root = root
        self.limit_s = limit_s
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        here = os.path.dirname(os.path.abspath(__file__))
        self.shim = os.path.join(here, "cli_shim.py")
        self.out_dir = os.path.join(here, "out")
        self.tracer = None  # set for the traced pass
        self.child_stats: list[dict] = []

    def run(self, args: list[str], stdin: bytes | None):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bideriv", *args]
        else:
            os.makedirs(self.out_dir, exist_ok=True)
            trace_path = os.path.join(self.out_dir, f"shim-{os.getpid()}.json")
            cmd = [sys.executable, self.shim, trace_path, str(self.tracer.task), *args]
        code, out, err = self.spawn(cmd, stdin)
        if self.tracer is not None:
            with open(trace_path) as fh:
                child = json.load(fh)
            os.remove(trace_path)
            self.tracer.merge(child["trace"])
            self.child_stats.append(child["timings"])
        return code, out, err

    def spawn(self, cmd: list[str], stdin: bytes | None = None):
        """Run one child to completion; (exit code, stdout, stderr).

        A timer thread enforces the wall limit, so the wait itself blocks
        instead of polling (subprocess's timeout polls with sleeps of up to
        50 ms, which would land in the measured time).
        """
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=self.root)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(self.limit_s, kill)
        timer.start()
        try:
            out, err = proc.communicate(stdin or b"")
        finally:
            timer.cancel()
        if expired.is_set():
            raise TimeoutError(f"child exceeded {self.limit_s} s: {cmd[1:]}")
        return proc.returncode, out.decode(), err.decode()


def build_cli(bd, seed: int, root: str) -> Workload:
    import compileall

    import bideriv.cli as cli

    # Users do not pay for compilation on every call: write the bytecode caches first.
    compileall.compile_dir(os.path.join(root, "src", "bideriv"), quiet=1)
    compileall.compile_file(os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py"),
                            quiet=1)
    launcher = Launcher(root, limit_s=30.0)

    def build(i):
        specs = _cli_specs(round_rng("cli", seed, i))
        return ([(kind, args, stdin) for kind, args, stdin, _ in specs],
                [_cli_task(bd, cli, launcher, *spec) for spec in specs])

    specs = _cli_specs(round_rng("cli", seed, 0))
    share = sum(1 for spec in specs if spec[0].startswith("bad_")) / len(specs)
    size = (f"{len(specs)} invocations per round, {share:.0%} malformed "
            f"(documented exit codes 2 and 3)")
    return Workload("cli", build, size, trace_rounds=1, limit_s=30.0, launcher=launcher)


def _cli_specs(rng: random.Random) -> list:
    """One round, shuffled: (kind, argv, stdin bytes, expectation) for each invocation."""
    def small(n, deg=3, count=3):
        return gen.terms(rng, n, deg, count)

    def fp(d):
        return gen.to_residues(d, CLI_P)

    def common(n, field="q", json_mode=False):
        out = ["-n", str(n)]
        if field != "q":
            out += ["--field", field]
        return out + (["--json"] if json_mode else [])

    specs = []
    n = rng.randint(2, 3)
    f, g = small(n), small(n)
    specs.append(("circ", ["circ", *common(n), gen.expression(f), gen.expression(g)], None,
                  ("circ", "q", f, g)))
    f, g = fp(small(n)), fp(small(n))
    specs.append(("circ", ["circ", *common(n, f"fp:{CLI_P}", True), gen.expression(f),
                           gen.expression(g)], None, ("circ", f"fp:{CLI_P}", f, g)))
    n = rng.randint(2, 4)
    f = fp(small(n))
    specs.append(("grad", ["grad", *common(n, f"fp:{CLI_P}"), gen.expression(f)], None,
                  ("grad", f"fp:{CLI_P}", f)))
    f = small(n)
    specs.append(("grad", ["grad", *common(n, json_mode=True), gen.expression(f)], None,
                  ("grad", "q", f)))
    n = rng.randint(2, 3)
    f, g = small(n), small(n)
    specs.append(("bracket", ["bracket", *common(n), gen.expression(f), gen.expression(g)], None,
                  ("bracket", "q", f, g)))
    f, g = fp(small(n)), fp(small(n))
    specs.append(("bracket", ["bracket", *common(n, f"fp:{CLI_P}", True), gen.expression(f),
                              gen.expression(g)], None, ("bracket", f"fp:{CLI_P}", f, g)))
    n = rng.randint(2, 4)
    a = gen.sym_matrix(rng, n)
    specs.append(("xi", ["xi", *common(n), gen.expression(gen.quadratic_of(a))], None, ("xi", a)))
    a = gen.sym_matrix(rng, n)
    specs.append(("xi-inv", ["xi-inv", *common(n, json_mode=True)], _matrix_json(a),
                  ("xi-inv", a)))
    n = rng.randint(2, 3)
    a = gen.orthogonal_matrix(gen.orthogonal_spec(rng, n))
    specs.append(("aut-check", ["aut-check", *common(n)], _matrix_json(a), ("aut", True)))
    a = [[c * (2 if j == 0 else 1) for j, c in enumerate(row)]
         for row in gen.orthogonal_matrix(gen.orthogonal_spec(rng, n))]
    specs.append(("aut-check", ["aut-check", *common(n, json_mode=True)], _matrix_json(a),
                  ("aut", False)))
    f = small(n)
    specs.append(("decompose", ["decompose", *common(n, json_mode=True), gen.expression(f)], None,
                  ("decompose", f)))
    n = rng.randint(2, 4)
    specs.append(("peirce", ["peirce", *common(n)], None, ("peirce", n)))
    f = small(n, deg=4)
    specs.append(("reduce", ["reduce", *common(n), gen.expression(f)], None, ("reduce", f)))
    n, k = rng.choice([(2, 3), (2, 4), (3, 2), (3, 3)])
    f = gen.homogeneous(rng, n, k, 2)
    specs.append(("closure", ["closure", *common(n, json_mode=True), "-k", str(k),
                              gen.expression(f)], None, ("closure", n, k)))
    n, k = rng.choice([(2, 2), (2, 3), (3, 2)])
    specs.append(("simple", ["simple", *common(n), "-k", str(k), "--seeds", "1",
                             "--seed", str(rng.randrange(1000))], None, ("simple", n, k, 1)))
    lam, mu = rng.choice((1, -1)), rng.randint(-5, 5)
    specs.append(("aut1", ["aut1", "--", str(lam), str(mu)], None, ("aut1", True)))
    lam, mu = rng.choice((2, 3, -2)), rng.randint(-5, 5)
    specs.append(("aut1", ["aut1", "--json", "--", str(lam), str(mu)], None, ("aut1", False)))
    n = rng.randint(2, 3)
    bad = gen.expression(small(n)) + rng.choice([" +* x1", " ^ x1", " * (x1", " x2"])
    specs.append(("bad_parse", ["circ", *common(n, json_mode=True), bad, "x1"], None,
                  ("error", 2, "ParseError")))
    deg = rng.randint(5, 9)
    specs.append(("bad_degree", ["circ", *common(n), "--max-degree", "4", f"x1^{deg}", "x2"],
                  None, ("error", 3, "DegreeGuardError")))
    specs.append(("bad_char", ["reduce", *common(n, f"fp:{CLI_P}", True),
                               gen.expression(fp(small(n)))], None,
                  ("error", 3, "CharacteristicError")))
    rng.shuffle(specs)
    return specs


def _matrix_json(a) -> bytes:
    return json.dumps({"n": len(a), "entries": [[str(c) for c in row] for row in a]}).encode()


def _cli_task(bd, cli, launcher: Launcher, kind, args, stdin, expect) -> Task:
    json_mode = "--json" in args
    code, check_out = _cli_expectation(bd, cli, expect)

    def check(result):
        got_code, out, err = result
        if got_code != code:
            return f"{kind}: exit {got_code}, expected {code}; stderr: {err[-200:]!r}"
        if json_mode:
            if out.count("\n") != 1 or not out.endswith("\n"):
                return f"{kind}: --json printed {out.count(chr(10))} lines"
            return check_out(json.loads(out), None)
        return check_out(None, out)

    return Task(kind, lambda: launcher.run(args, stdin), check)


def _cli_expectation(bd, cli, expect):
    """Exit code and output check, computed in process from the generated inputs."""
    tag = expect[0]

    def poly_check(want):
        def check(obj, text):
            if obj is not None:
                return _expect(obj["status"] == "ok"
                               and cli.polynomial_from_payload(obj["payload"]) == want, "payload")
            return _expect(text == bd.format_polynomial(want) + "\n", "text")
        return check

    def vector_check(want):
        def check(obj, text):
            if obj is not None:
                comps = [cli.polynomial_from_payload(c) for c in obj["payload"]["components"]]
                return _expect(comps == list(want.components), "payload")
            lines = [f"d/dx{i}: {bd.format_polynomial(c)}"
                     for i, c in enumerate(want.components, start=1)]
            return _expect(text == "\n".join(lines) + "\n", "text")
        return check

    if tag in ("circ", "bracket", "grad"):
        fld = bd.field_from_name(expect[1])
        polys = [bd.Polynomial(len(next(iter(t))), t, fld) for t in expect[2:]]
        if tag == "circ":
            return 0, poly_check(bd.circ(*polys))
        if tag == "grad":
            return 0, vector_check(bd.gradient(polys[0]))
        return 0, vector_check(bd.lie_bracket(bd.gradient(polys[0]), bd.gradient(polys[1])))
    if tag == "xi":
        rows = [[str(4 * c) for c in row] for row in expect[1]]

        def check(obj, text):
            return _expect(text == "\n".join(" ".join(r) for r in rows) + "\n", "matrix text")
        return 0, check
    if tag == "xi-inv":
        return 0, poly_check(bd.matrix_to_quadratic(bd.SymMatrix(expect[1])))
    if tag in ("aut", "aut1"):
        ok = expect[1]

        def check(obj, text):
            if obj is not None:
                p = obj["payload"]
                return _expect(p["ok"] == ok and p.get("orthogonal", ok) == ok, "verdict payload")
            head = "automorphism: yes" if ok else "automorphism: no"
            return _expect(text.startswith(head), "verdict text")
        return (0 if ok else 1), check
    if tag == "decompose":
        terms = expect[1]
        n = len(next(iter(terms)))

        def check(obj, text):
            parts = {tuple(p["weight"]): cli.polynomial_from_payload(p["part"])
                     for p in obj["payload"]["parts"]}
            want = {u: bd.Polynomial.monomial(n, u, c) for u, c in terms.items()}
            return _expect(parts == want, "weight parts")
        return 0, check
    if tag == "peirce":
        n = expect[1]
        lines = ["(" + ",".join(map(str, u)) + "): " + "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(u, start=1) if e)
            for u in gen.monomials(n, 2)]
        return 0, lambda obj, text: _expect(text == "\n".join(lines) + "\n", "Peirce basis")
    if tag == "reduce":
        terms = expect[1]
        u = max(terms, key=lambda e: (sum(e), e))
        want = prod(factorial(e) for e in u) * terms[u]
        return 0, lambda obj, text: _expect(text == f"{want}\n", "u1!...un! a")
    if tag == "closure":
        _, n, k = expect
        dim = comb(n + k - 1, n - 1)

        def check(obj, text):
            p = obj["payload"]
            basis = [cli.polynomial_from_payload(b) for b in p["basis"]]
            want = [bd.Polynomial.monomial(n, u) for u in gen.monomials(n, k)]
            return _expect(p["dimension"] == p["full_dimension"] == dim and basis == want,
                           "closure basis")
        return 0, check
    if tag == "simple":
        _, n, k, seeds = expect
        dim = comb(n + k - 1, n - 1)
        want = f"simple: yes\ndimension: {dim}\nseeds checked: {dim + seeds}\n"
        return 0, lambda obj, text: _expect(text == want, "sweep text")
    if tag == "error":
        _, code, error = expect

        def check(obj, text):
            if obj is not None:
                return _expect(obj["status"] == "error" and obj["payload"]["error"] == error,
                               f"error payload {obj['payload']}")
            return _expect(text == "", "error text on stdout")
        return code, check
    raise ValueError(tag)


# A known defect (reproducible today): malformed matrix JSON ends in a TypeError
# traceback (exit 1) instead of the documented parse-error exit 2.  It is probed
# once per cli run, outside the timed mix, so the fix shows as a changed probe.
KNOWN_DEFECT = (["aut-check", "-n", "1"], b'{"entries": 5}', 2)

BUILDERS = {
    "sweep": lambda bd, seed, root: build_sweep(bd, seed),
    "identities": lambda bd, seed, root: build_identities(bd, seed),
    "cli": build_cli,
}
