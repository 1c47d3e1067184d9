import contextlib
import io
import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from bideriv import Polynomial, errors
from bideriv.cli import _parse_args, build_parser, main, polynomial_from_payload, polynomial_payload
from conftest import F5, var


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_stdin(capsys, monkeypatch, stdin_text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return run_cli(capsys, *argv)


# ----------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------


def test_circ_text(capsys):
    code, out, err = run_cli(capsys, "circ", "-n", "2", "x1^2+x2^2", "x1*x2")
    assert code == 0 and out == "4*x1*x2\n" and err == ""


def test_circ_json_payload_round_trips(capsys):
    code, out, _ = run_cli(capsys, "circ", "-n", "2", "--json", "x1^2+x2^2", "x1*x2")
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "ok" and result["diagnostics"] == []
    f = polynomial_from_payload(result["payload"])
    assert f == 4 * var(2, 1) * var(2, 2)


def test_grad_lists_components(capsys):
    code, out, _ = run_cli(capsys, "grad", "-n", "2", "x1^2*x2")
    assert code == 0
    assert out == "d/dx1: 2*x1*x2\nd/dx2: x1^2\n"


def test_bracket_command(capsys):
    code, out, _ = run_cli(capsys, "bracket", "-n", "2", "x1^2", "x1*x2")
    assert code == 0
    assert out == "d/dx1: -2*x2\nd/dx2: 2*x1\n"


def test_assoc_and_jacobi(capsys):
    code, out, _ = run_cli(capsys, "assoc", "-n", "1", "x1^3", "x1^2", "x1")
    assert code == 0 and out == "12*x1^2\n"
    code, out, _ = run_cli(capsys, "jacobi", "-n", "1", "x1^2", "x1^2", "x1^2")
    assert code == 0 and out == "48*x1^2\n"


def test_xi_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "xi", "-n", "2", "x1^2")
    assert code == 0 and out == "4 0\n0 0\n"


def test_xi_inv_reads_stdin(capsys, monkeypatch):
    matrix = json.dumps({"n": 2, "entries": [["1", "0"], ["0", "1"]]})
    code, out, _ = run_cli_stdin(capsys, monkeypatch, matrix, "xi-inv", "-n", "2")
    assert code == 0 and out == "1/4*x1^2 + 1/4*x2^2\n"


def test_jordan_defect_command(capsys):
    code, out, _ = run_cli(capsys, "jordan-defect", "-n", "1", "x1^3", "x1")
    assert code == 0 and out == "108*x1^4\n"


def test_bimodule_defect_three_lines(capsys):
    code, out, _ = run_cli(capsys, "bimodule-defect", "-n", "1", "x1^2", "x1^2", "x1^3")
    assert code == 0
    assert out == "r1: 0\nr2: 0\nr3: 96*x1^3\n"


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-n", "2", "x1^2 + x1*x2 + 3")
    assert code == 0
    assert out == "(2,0): x1^2\n(1,1): x1*x2\n(0,0): 3\n"


def test_peirce_command(capsys):
    code, out, _ = run_cli(capsys, "peirce", "-n", "2")
    assert code == 0
    assert out == "(2,0): x1^2\n(1,1): x1*x2\n(0,2): x2^2\n"


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "-n", "2", "5*x1^2*x2 + x1")
    assert code == 0 and out == "10\n"


def test_closure_command(capsys):
    code, out, _ = run_cli(capsys, "closure", "-n", "2", "-k", "2", "x1*x2")
    assert code == 0
    assert out == "dimension: 3 of 3\nx1^2\nx1*x2\nx2^2\n"


def test_simple_command(capsys):
    code, out, _ = run_cli(capsys, "simple", "-n", "2", "-k", "3", "--seeds", "2")
    assert code == 0
    assert out.startswith("simple: yes\ndimension: 4\n")


def test_aut_check_positive(capsys, monkeypatch):
    matrix = json.dumps({"n": 2, "entries": [["3/5", "-4/5"], ["4/5", "3/5"]]})
    code, out, _ = run_cli_stdin(capsys, monkeypatch, matrix, "aut-check", "-n", "2")
    assert code == 0 and out.startswith("automorphism: yes")


def test_aut_check_negative_exit_one(capsys, monkeypatch):
    matrix = json.dumps({"n": 2, "entries": [["2", "0"], ["0", "1"]]})
    code, out, _ = run_cli_stdin(capsys, monkeypatch, matrix, "aut-check", "-n", "2")
    assert code == 1 and out.startswith("automorphism: no")
    assert "witness" in out


def test_aut1_accepts_sign_flip(capsys):
    code, out, _ = run_cli(capsys, "aut1", "--", "-1", "5")
    assert code == 0 and out.startswith("automorphism: yes")
    code, out, _ = run_cli(capsys, "aut1", "2", "0")
    assert code == 1 and out.startswith("automorphism: no")


def test_field_flag(capsys):
    code, out, _ = run_cli(capsys, "circ", "-n", "1", "--field", "fp:5", "x1^3", "x1^4")
    # 3x^2 * 4x^3 = 12 x^5 = 2 x^5 mod 5
    assert code == 0 and out == "2*x1^5\n"


# ----------------------------------------------------------------------
# errors and exit codes
# ----------------------------------------------------------------------


def test_parse_error_exit_two(capsys):
    code, out, err = run_cli(capsys, "circ", "-n", "2", "2x1", "x2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_parse_error_json_mode(capsys):
    code, out, _ = run_cli(capsys, "circ", "-n", "2", "--json", "2x1", "x2")
    assert code == 2
    result = json.loads(out)
    assert result["status"] == "error"
    assert result["payload"]["error"] == "ParseError"
    assert result["payload"]["offset"] == 1


def test_char_p_reduce_exit_three(capsys):
    code, _, err = run_cli(capsys, "reduce", "-n", "1", "--field", "fp:5", "x1")
    assert code == 3 and "characteristic 0" in err


def test_degree_guard_exit_three(capsys):
    code, _, err = run_cli(capsys, "circ", "-n", "2", "(x1+x2)^20", "x1")
    assert code == 3 and "guard" in err


def test_domain_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "xi", "-n", "2", "x1^3")
    assert code == 1 and "degree 2" in err


def test_bad_matrix_json_exit_two(capsys, monkeypatch):
    code, _, err = run_cli_stdin(capsys, monkeypatch, "{oops", "aut-check", "-n", "2")
    assert code == 2


def test_malformed_matrix_entries_exit_two(capsys, monkeypatch):
    for text in ('{"entries": 5}', '{"entries": [5]}', '{"n": 1}', "[1]", "[" * 100000):
        for command in ("aut-check", "xi-inv"):
            code, _, err = run_cli_stdin(capsys, monkeypatch, text, command, "-n", "1")
            assert code == 2 and "matrix JSON" in err, (text[:20], command)


def test_closure_refuses_cells_above_the_bound(capsys):
    code, out, err = run_cli(capsys, "closure", "-n", "8", "-k", "16", "x1^16")
    assert code == 3 and out == ""
    assert err == ("error: cell (n=8, k=16) has dimension 245157, above the "
                   "configured bound 1024\n")


def test_peirce_refuses_cells_above_the_bound(capsys):
    for n in ("45", "3000"):  # C(46, 2) = 1035 and C(3001, 2) quadratics
        code, _, err = run_cli(capsys, "peirce", "-n", n)
        assert code == 3 and "above the configured bound 1024" in err
    code, out, _ = run_cli(capsys, "peirce", "-n", "44")  # C(45, 2) = 990
    assert code == 0 and len(out.splitlines()) == 990


def test_variable_count_above_the_bound_exits_three(capsys):
    for argv in (["bracket", "-n", "1025", "x1^2", "x2^2"], ["circ", "-n", "6000", "x1", "x1"],
                 ["xi-inv", "-n", "2000"], ["simple", "-n", "1025", "-k", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: -n {argv[2]} is above the configured bound 1024\n"
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out)["payload"] == {
            "type": "error", "error": "PreconditionError",
            "message": f"-n {argv[2]} is above the configured bound 1024"}
    code, out, _ = run_cli(capsys, "bracket", "-n", "1024", "x1^2", "x1*x2")
    assert code == 0 and out.splitlines()[:3] == ["d/dx1: -2*x2", "d/dx2: 2*x1", "d/dx3: 0"]
    assert len(out.splitlines()) == 1024


def test_exponents_at_the_packed_bound_exit_three(capsys):
    argv = ["circ", "-n", "1", "--max-degree", "5000000000"]
    code, out, _ = run_cli(capsys, *argv, "x1^4294967295", "x1^2")
    assert code == 0 and out == "8589934590*x1^4294967295\n"
    code, out, err = run_cli(capsys, *argv, "x1^4294967296", "x1")
    assert code == 3 and out == ""
    assert err == "error: exponent 4294967296 is at or above the packed-exponent bound 2**32\n"


def test_matrix_dimension_mismatch_exit_three(capsys, monkeypatch):
    matrix = json.dumps({"n": 3, "entries": [[str(v) for v in row] for row in
                                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]})
    code, _, err = run_cli_stdin(capsys, monkeypatch, matrix, "aut-check", "-n", "2")
    assert code == 3


def test_unbounded_simple_inputs_exit_three():
    for argv in (["-n", "1", "-k", "100000000"], ["-n", "2", "-k", "2", "--seeds", "100000000"]):
        proc = subprocess.run([sys.executable, "-m", "bideriv", "simple", *argv],
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: cell (n=")
        assert proc.stderr.endswith("is above the configured bound 1024\n")


def test_error_classes_carry_the_documented_exit_codes():
    # The module docstring's table: 1 out-of-domain input, 2 parse error,
    # 3 precondition violation.
    expected = {
        "BiderivError": 1, "DomainError": 1, "SeparationError": 1,
        "ParseError": 2,
        "CharacteristicError": 3, "CoercionError": 3, "DegreeGuardError": 3,
        "DimensionMismatchError": 3, "FieldMismatchError": 3, "PreconditionError": 3,
    }
    assert {name: getattr(errors, name).exit_code for name in errors.__all__} == expected


# ----------------------------------------------------------------------
# determinism and the module entry point
# ----------------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "decompose", "-n", "3", "--json",
                               "x1*x2*x3 + 2*x1^3 - 1/2*x3")
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "simple", "-n", "2", "-k", "2", "--json")
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bideriv", "circ", "-n", "2", "x1", "x1+x2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_payload_round_trip_includes_field():
    f = Polynomial(2, {(1, 0): 1, (0, 1): -1}, F5)
    assert polynomial_from_payload(polynomial_payload(f)) == f
    g = Polynomial(3, {(2, 1, 0): "3/4"})
    assert polynomial_from_payload(polynomial_payload(g)) == g


# ----------------------------------------------------------------------
# fuzzed argv and stdin
# ----------------------------------------------------------------------

POSITIONALS = {"circ": 2, "grad": 1, "bracket": 2, "assoc": 3, "jacobi": 3, "xi": 1,
               "xi-inv": 0, "jordan-defect": 2, "bimodule-defect": 3, "decompose": 1,
               "peirce": 0, "reduce": 1, "closure": 1, "simple": 0, "aut-check": 0, "aut1": 2}
TOKENS = ["x1", "x2", "x3", "x5", "x0", "1/2", "-3", "0", "7", "^", "^2", "^17", "*", "+", "-",
          "(", ")", " ", "1/0", "y", "**", "2.5", "-n", "--json", "nope", ""]
WELL_FORMED = st.sampled_from(["x1", "x1^2 + x2^2", "x1*x2", "x1^3", "1/2*x1^2 - 3*x2", "0",
                               "5", "-1", "x2^2 - x1*x2", "x1^2*x3 + 2/3", "x1^4 - x2^4"])
# Short inputs with long outputs, and scalars in exponent notation or with many digits.
LARGE = st.sampled_from(["x1^1700", "(9*x1)^5000", "(x1 + 2*x2)^30", "1e999999999", "-3e-2",
                         "1e4300", "7" * 5000])
EXPRESSIONS = st.one_of(WELL_FORMED, WELL_FORMED, WELL_FORMED, LARGE,
                        st.lists(st.sampled_from(TOKENS), max_size=8).map("".join))
FLAGS = st.one_of(
    st.tuples(st.just("--field"),
              st.sampled_from(["q", "q", "fp:3", "fp:7", "fp:7", "fp:9", "fp:2", "r"])),
    st.tuples(st.just("--max-degree"), st.sampled_from(["0", "2", "16", "40", "1700", "6000"])),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "5", "x"])),
    st.tuples(st.just("--json")))
MATRICES = ['{"n": 2, "entries": [["3/5", "-4/5"], ["4/5", "3/5"]]}',
            '{"n": 2, "entries": [[1, 2], [2, 1]]}', '{"n": 1, "entries": [["-1"]]}',
            '{"n": 3, "entries": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}']
LARGE_ENTRIES = ["1e20000000", '"1e20000000"', '"1e-999999"', "1e400", '"-2e-3"', "7" * 5000,
                 '"%s"' % ("7" * 5000), "-" + "9" * 4300]
STDIN = st.one_of(st.sampled_from(MATRICES), st.lists(st.sampled_from(
    ["{", "}", "[", "]", ",", ":", '"n"', '"entries"', '"1/2"', "0", "1", "null"]),
    max_size=12).map("".join),
    st.sampled_from(LARGE_ENTRIES).map('{"n": 1, "entries": [[%s]]}'.__mod__))


@st.composite
def invocations(draw):
    """Mostly well-formed argv: a subcommand, usually -n, flags and about the
    right number of positionals; sometimes a list of loose tokens."""
    if not draw(st.integers(0, 7)):
        return draw(st.lists(st.sampled_from(TOKENS + sorted(POSITIONALS)), max_size=8))
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    argv = [command]
    # Small sizes only: `simple` and `closure` accept cells that take seconds to sweep.
    if command != "aut1" and draw(st.sampled_from([True] * 9 + [False])):
        argv += ["-n", draw(st.sampled_from(["-1", "0", "1", "2", "2", "3", "4", "1025"]))]
    if command in ("closure", "simple"):
        argv += ["-k", draw(st.sampled_from(["-1", "0", "1", "2", "3", "5"]))]
    if command == "simple":
        argv += ["--seeds", draw(st.sampled_from(["0", "1", "3", "-2"]))]
    argv += [word for flag in draw(st.lists(FLAGS, max_size=3)) for word in flag]
    count = max(0, POSITIONALS[command] + draw(st.sampled_from([0] * 6 + [1, -1])))
    return argv + draw(st.lists(EXPRESSIONS, min_size=count, max_size=count))


@settings(max_examples=200)
@given(invocations(), STDIN)
def test_fuzzed_invocations_end_with_a_documented_exit_code(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                parsed = True
            except SystemExit as exc:  # argparse usage errors
                code, parsed = exc.code, False
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if parsed and "--json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] in ("ok", "error")


@settings(max_examples=300)
@given(invocations())
def test_one_subcommand_parser_agrees_with_the_full_parser(argv):
    """The fast path parses like build_parser(), or hands argv to it unchanged."""
    results = []
    for parse in (build_parser().parse_args, _parse_args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                namespace = vars(parse(argv))
                namespace.pop("command", None)
            except SystemExit as exc:
                namespace = exc.code
        results.append((namespace, out.getvalue(), err.getvalue()))
    assert results[0] == results[1]
