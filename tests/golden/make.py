"""CLI golden corpus: exit code, stdout and stderr of fixed `bideriv` invocations.

    PYTHONPATH=src python tests/golden/make.py          # rewrite cli.json
    PYTHONPATH=src python tests/golden/make.py --check  # replay it, report mismatches

Each case runs in-process through ``bideriv.cli.main`` with ``COLUMNS=80``,
so argparse wraps help and usage text the same way on every terminal.  An
output longer than ``FULL_TEXT`` characters is stored as its sha256.  A
change that alters CLI bytes on purpose regenerates the file and lists
every changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli.json")
FULL_TEXT = 4096

COMMANDS = ["circ", "grad", "bracket", "assoc", "jacobi", "xi", "xi-inv", "jordan-defect",
            "bimodule-defect", "decompose", "peirce", "reduce", "closure", "simple",
            "aut-check", "aut1"]
ROTATION = '{"n": 2, "entries": [["3/5", "-4/5"], ["4/5", "3/5"]]}'
STRETCH = '{"n": 2, "entries": [["2", "0"], ["0", "1"]]}'
SYMMETRIC = '{"n": 2, "entries": [["1", "1/2"], ["1/2", "-3"]]}'

# One success per subcommand: (argv after the command, stdin).
SUCCESSES = {
    "circ": (["-n", "2", "x1^2 + x2^2", "x1*x2"], None),
    "grad": (["-n", "3", "x1^2*x2 - 1/3*x3"], None),
    "bracket": (["-n", "2", "x1^2", "x1*x2"], None),
    "assoc": (["-n", "2", "x1^3", "x1*x2", "x2^2"], None),
    "jacobi": (["-n", "2", "x1^2", "x2^2 + x1", "x1*x2"], None),
    "xi": (["-n", "2", "x1^2 + 3*x1*x2 - x2^2"], None),
    "xi-inv": (["-n", "2"], SYMMETRIC),
    "jordan-defect": (["-n", "2", "x1^3 + x2", "x1*x2"], None),
    "bimodule-defect": (["-n", "2", "x1^2", "x1*x2", "x2^3"], None),
    "decompose": (["-n", "3", "x1*x2*x3 + 2*x1^3 - 1/2*x3"], None),
    "peirce": (["-n", "3"], None),
    "reduce": (["-n", "2", "5*x1^2*x2 + x1"], None),
    "closure": (["-n", "3", "-k", "2", "x1*x2 - x3^2"], None),
    "simple": (["-n", "2", "-k", "3", "--seeds", "2", "--seed", "7"], None),
    "aut-check": (["-n", "2"], ROTATION),
    "aut1": (["--", "-1", "5"], None),
}


def cases() -> list[tuple[list[str], str | None]]:
    out = [(["-h"], None), (["--help"], None), ([], None), (["nope"], None),
           (["--json", "circ", "-n", "2", "x1", "x2"], None)]
    out += [([command, "-h"], None) for command in COMMANDS]
    out += [(["circ", "--he"], None), (["closure", "-n", "2", "-k", "2", "--help", "x1^2"], None)]
    for command in COMMANDS:
        argv, stdin = SUCCESSES[command]
        out.append(([command, *argv], stdin))
        out.append(([command, "--json", *argv], stdin))
    out += [
        # usage errors (argparse, exit 2)
        (["circ", "x1", "x2"], None),
        (["circ", "-n", "x", "x1", "x2"], None),
        (["circ", "-n", "2", "x1"], None),
        (["circ", "-n", "2", "x1", "x2", "x3"], None),
        (["closure", "-n", "2", "x1^2"], None),
        (["closure", "-n", "2", "-k"], None),
        (["simple", "-n", "2", "-k", "2", "--seeds", "many"], None),
        (["aut1", "1"], None),
        (["aut1", "-n", "2", "1", "0"], None),
        (["peirce", "-n", "2", "--bogus"], None),
        # abbreviations, `--` and options after positionals
        (["circ", "-n", "2", "--js", "x1", "x2"], None),
        (["circ", "x1^2", "x1*x2", "-n", "2", "--field", "fp:7"], None),
        (["circ", "-n", "2", "--", "-h", "x1"], None),
        (["aut1", "--field", "fp:7", "--", "3", "-2"], None),
        # exit 1: negative verdicts and out-of-domain input
        (["aut-check", "-n", "2"], STRETCH),
        (["aut-check", "-n", "2", "--json"], STRETCH),
        (["aut1", "2", "0"], None),
        (["xi", "-n", "2", "x1^3"], None),
        (["xi", "-n", "2", "--json", "x1^3"], None),
        (["reduce", "-n", "2", "0"], None),
        # exit 2: expression and JSON parse errors
        (["circ", "-n", "2", "x1 +* x2", "x1"], None),
        (["circ", "-n", "2", "--json", "x3", "x1"], None),
        (["xi-inv", "-n", "2"], "{oops"),
        (["aut-check", "-n", "1", "--json"], '{"n": 1, "entries": [["1/0"]]}'),
        # exit 3: violated preconditions
        (["circ", "-n", "2", "--max-degree", "4", "x1^5", "x2"], None),
        (["reduce", "-n", "2", "--field", "fp:7", "--json", "x1^7"], None),
        (["circ", "-n", "2", "--field", "fp:2", "x1", "x2"], None),
        (["circ", "-n", "2", "--field", "r", "x1", "x2"], None),
        (["grad", "-n", "1025", "x1"], None),
        (["closure", "-n", "6", "-k", "9", "x1^9"], None),
        (["xi-inv", "-n", "3"], SYMMETRIC),
        # bounds on numeric input and output (exit 2 under matrix JSON, else 3)
        (["aut1", "--", "1e999999999", "0"], None),
        (["aut1", "--", "1e4300", "0"], None),
        (["aut1", "--", "-3e-2", "5E+1"], None),
        (["xi-inv", "-n", "1"], '{"n":1,"entries":[["1e20000000"]]}'),
        (["xi-inv", "-n", "1"], '{"n":1,"entries":[[' + "7" * 5000 + "]]}"),
        (["reduce", "-n", "1", "--max-degree", "1700", "x1^1700"], None),
        (["circ", "-n", "1", "--json", "--max-degree", "6000", "(9*x1)^5000", "x1"], None),
        # other fields
        (["circ", "-n", "2", "--field", "fp:7", "x1^3 + 5*x2", "x1*x2^2"], None),
        (["decompose", "-n", "2", "--field", "fp:10007", "--json", "1/2*x1^2 + x2"], None),
        (["peirce", "-n", "2", "--field", "fp:7"], None),
        # aut-check pairing tables: off-diagonal, zero-column and fractional
        # failures, GF(7) verdicts and a non-default spot-check seed
        (["aut-check", "-n", "2"], '{"n": 2, "entries": [["1", "1"], ["0", "1"]]}'),
        (["aut-check", "-n", "3", "--json"],
         '{"n": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]}'),
        (["aut-check", "-n", "2"], '{"n": 2, "entries": [["3/5", "4/5"], ["4/5", "1/2"]]}'),
        (["aut-check", "-n", "2", "--json"], '{"n": 2, "entries": [["1/3", "0"], ["0", "1"]]}'),
        (["aut-check", "-n", "2"], '{"n": 2, "entries": [["1", "-1/2"], ["0", "1"]]}'),
        (["aut-check", "-n", "2", "--field", "fp:7"], '{"n": 2, "entries": [[2, -2], [2, 2]]}'),
        (["aut-check", "-n", "2", "--field", "fp:7", "--json"],
         '{"n": 2, "entries": [[3, 0], [0, 1]]}'),
        (["aut-check", "-n", "2", "--field", "fp:7"], '{"n": 2, "entries": [[1, 3], [0, 1]]}'),
        (["aut-check", "-n", "2", "--seed", "12345"], ROTATION),
        (["aut-check", "-n", "3", "--seed", "7", "--json"],
         '{"n": 3, "entries": [["0", "-1", "0"], ["3/5", "0", "4/5"], ["4/5", "0", "-3/5"]]}'),
    ]
    return out


def run(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from bideriv.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_columns = sys.stdin, os.environ.get("COLUMNS")
    sys.stdin, os.environ["COLUMNS"] = io.StringIO(stdin or ""), "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse: help, usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns
    return code, out.getvalue(), err.getvalue()


def _stored(text: str) -> str:
    if len(text) <= FULL_TEXT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str], stdin: str | None) -> dict:
    code, out, err = run(argv, stdin)
    return {"argv": argv, "stdin": stdin, "exit": code,
            "stdout": _stored(out), "stderr": _stored(err)}


def load() -> list[dict]:
    with open(CORPUS) as fh:
        return json.load(fh)


def mismatches(corpus: list[dict]) -> list[str]:
    """One line per case whose replay differs from its stored record."""
    bad = []
    for case in corpus:
        got = record(case["argv"], case["stdin"])
        if got != case:
            keys = [k for k in ("exit", "stdout", "stderr") if got[k] != case[k]]
            bad.append(f"{case['argv']}: {', '.join(keys)} differ")
    return bad


def main() -> int:
    if sys.argv[1:] == ["--check"]:
        corpus = load()
        bad = mismatches(corpus)
        print(f"{len(corpus) - len(bad)} of {len(corpus)} cases match", *bad, sep="\n")
        return 1 if bad else 0
    corpus = [record(argv, stdin) for argv, stdin in cases()]
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
