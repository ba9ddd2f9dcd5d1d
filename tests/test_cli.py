"""Command-line contract: outputs, exit codes, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from krallm1.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- usage errors ----------------------------------------------------------------

M1 = ["--beta", "1", "--M", "-1"]
SCAN = ["limit-scan", *M1, "--n-max", "1"]


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["verify-m1", "--beta", "1"],
    ["moments", *M1, "--n-max", "-1"],
    SCAN + ["--precision", "20"],
    ["moments", "--beta", "one", "--M", "-1"],
], ids=" ".join)
def test_usage_error_exits_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (SCAN + ["--eps-list", "abc"], "--eps-list"),
    (SCAN + ["--eps-list", ","], "--eps-list"),
    (SCAN + ["--eps-list", "1e-2,1e-2"], "--eps-list"),
    (SCAN + ["--eps-list", "1e-2,-1e-3"], "--eps-list"),
    (SCAN + ["--tol", "abc"], "--tol"),
    (SCAN + ["--tol", "inf"], "--tol"),
    (SCAN + ["--tol", "-1e-3"], "--tol"),
    (["matrix-verify", "--beta", "1"], "--M"),
    (["matrix-verify", "--M", "-1"], "--beta"),
    (["gen", "--family", "m1", *M1, "--q", "2"], "--q"),
    (["gen", "--family", "m1", *M1, "--b", "3"], "--b"),
    (["gen", "--family", "m1", *M1, "--j", "3"], "--j"),
    (["gen", "--family", "q", "--q", "2", "--b", "3", "--M", "1/7",
      "--beta", "1"], "--beta"),
    (["verify-m1", *M1, "--precision", "80"], "--precision"),
], ids=" ".join)
def test_bad_input_exits_two_without_traceback(argv, flag, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage error
        code = exc.code
        assert flag in capsys.readouterr().err
    else:
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError"
        assert flag in error["message"]
    assert code == 2


def test_negative_eps_list_parses_without_equals(capsys):
    code, out = run_cli(SCAN + ["--eps-list", "-1e-2,-1e-3"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# -- tables ----------------------------------------------------------------------

def test_moments_csv(capsys):
    code, out = run_cli(["moments", "--beta", "1", "--M", "-1",
                         "--n-max", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,value", "0,3/2", "1,1/2", "2,1/2",
                                "3,1/3", "4,1/3"]


def test_moments_json(capsys):
    code, out = run_cli(["moments", "--beta", "1", "--M", "-1",
                         "--n-max", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["moments"] == ["3/2", "1/2", "1/2"]
    assert doc["params"] == {"beta": "1", "M": "-1"}


def test_gen_families(capsys):
    code, out = run_cli(["gen", "--family", "m1", "--beta", "1", "--M", "-1",
                         "--n-max", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = {(r["n"], r["degree"]): r["coefficient"] for r in doc["rows"]}
    assert rows[(2, 2)] == "1" and rows[(2, 1)] == "-1/2"
    code, out = run_cli(["gen", "--family", "q", "--q", "2", "--b", "3",
                         "--j", "2", "--M", "1/7", "--n-max", "2",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,degree,coefficient"
    assert "2,1,-75/323" in lines and "2,0,168/15181" in lines


def test_gen_missing_parameters(capsys):
    code, out = run_cli(["gen", "--family", "q", "--M", "1/7"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConfigError"


def test_gram_output(capsys):
    code, out = run_cli(["gram", "--beta", "1", "--M", "-1", "--n-max", "3"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_definite"] is True
    assert doc["hankel"][0] == "3/2"
    assert doc["gram"][0][1] == "0"


# -- verification sweeps ------------------------------------------------------------

def test_verify_m1_passes(capsys):
    code, out = run_cli(["verify-m1", "--beta", "1/2", "--M", "-1/4",
                         "--n-max", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    checks = {c["check"] for c in doc["checks"]}
    assert {"dual-operator", "eigen-m1", "orthogonality", "norm-identity",
            "explicit-solution", "explicit-eigenvalue",
            "btilde0-closed-form"} <= checks


def test_verify_m1_degenerate_exit_two(capsys):
    code, out = run_cli(["verify-m1", "--beta", "1", "--M", "1",
                         "--n-max", "5"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert doc["error"]["type"] == "GeronimusDegenerate"
    assert doc["error"]["n"] == 2


def test_verify_q_passes(capsys):
    code, out = run_cli(["verify-q", "--q", "2", "--b", "3", "--j", "2",
                         "--M", "1/7", "--n-max", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    checks = {c["check"] for c in doc["checks"]}
    assert {"representation-agreement", "eigen-q", "transformed-recurrence",
            "second-kind-seed", "second-kind-recurrence"} <= checks


def test_verify_q_degree_zero(capsys):
    code, out = run_cli(["verify-q", "--q", "2", "--b", "3", "--M", "1/7",
                         "--n-max", "0"], capsys)
    assert code == 0
    assert [(c["check"], c["n"]) for c in json.loads(out)["checks"]] == \
        [("representation-agreement", 0), ("eigen-q", 0)]


@pytest.mark.parametrize("n_max", ["0", "3"])
def test_verify_q_vanishing_phi0_factor_exits_two(n_max, capsys):
    # b = 1/q makes (bq;q)_2 of Phi_0 vanish.  At n-max 0 the family needs
    # no Phi, but the point is still degenerate.
    code, out = run_cli(["verify-q", "--q", "2", "--b", "1/2", "--M", "1",
                         "--n-max", n_max], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "factor (bq^1;q)_2 vanishes",
        "type": "DegenerateParameters"}


@pytest.mark.parametrize("b, factor", [("1/8", "(bq^2;q)_2"),
                                       ("1/16", "(bq^4;q)_1"),
                                       ("1/32", "(bq^5;q)_2")])
def test_verify_q_first_vanishing_phi_factor_is_named(b, factor, capsys):
    # At q = 2, b = 2^-k the first Phi_n to degenerate names the factor:
    # (bq^(n+1);q)_j at n = 1, then (bq^(n+j+1);q)_n at n = 1 and 2.
    code, out = run_cli(["verify-q", "--q", "2", "--b", b, "--M", "1",
                         "--n-max", "5"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": f"factor {factor} vanishes",
        "type": "DegenerateParameters"}


def test_limit_scan_small_grid_passes(capsys):
    code, out = run_cli(["limit-scan", "--beta", "1", "--M", "1",
                         "--n-max", "1", "--eps-list", "1e-2,1e-3"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_matrix_verify_auto_point(capsys):
    code, out = run_cli(["matrix-verify", "--n-max", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert {c["check"] for c in doc["checks"]} == \
        {"five-term", "matrix-structure", "matrix-recurrence"}


def test_matrix_verify_impossible_tolerance_fails(capsys):
    code, out = run_cli(["matrix-verify", "--n-max", "1", "--tol", "1e-99"],
                        capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["error"]["type"] == "ResidualExceeded"


def test_matrix_verify_default_tolerance_follows_precision(capsys):
    # The default bound is max(10^-(precision-20), 1e-40); a fixed 1e-40
    # lay below the residuals that 30 working digits reach.
    code, out = run_cli(["matrix-verify", "--n-max", "3", "--precision", "30"],
                        capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_report_csv_format(capsys):
    code, out = run_cli(["verify-m1", "--beta", "1", "--M", "-1",
                         "--n-max", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,params,n,status,lhs,rhs,residual"
    assert all(",fail," not in line for line in lines[1:])


# -- determinism ----------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    for command in (
        ["moments", "--beta", "1", "--M", "-1", "--n-max", "6"],
        ["verify-m1", "--beta", "1/2", "--M", "-1/4", "--n-max", "4"],
        ["limit-scan", "--beta", "1", "--M", "1", "--n-max", "1",
         "--eps-list", "1e-2,1e-3"],
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(command + ["--out", str(a)]) == \
            main(command + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["moments", *M1, "--out", str(target)])
    assert err.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not target.parent.exists()


def test_output_file_written(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["moments", "--beta", "1", "--M", "-1", "--n-max", "2",
                 "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["moments"][0] == "3/2"


# -- exit contract ------------------------------------------------------------------

# "-3" makes 3 + beta vanish, and "1/2" gives bq = 1 at q = 2, b = 1/2:
# those command lines end in a degenerate exit-2 payload.
GOOD_VALUES = ["2", "-1/4", "0", "-3", "1/2"]
BAD_VALUES = ["1/0", "abc"]
CSV_HEADERS = {"gen": "n,degree,coefficient", "moments": "n,value",
               "gram": "kind,i,j,value"}
REPORT_HEADER = "check,params,n,status,lhs,rhs,residual"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["gen", "verify-q", "verify-m1", "moments",
                                    "gram", "limit-scan", "matrix-verify"]))
    argv = [command]
    family = "q" if command == "verify-q" else "m1"
    if command == "gen":
        family = draw(st.sampled_from(["m1", "q"]))
        argv += ["--family", family]
    flags = ["--q", "--b", "--M"] if family == "q" else ["--beta", "--M"]
    values = [draw(st.sampled_from(GOOD_VALUES)) for _ in flags]
    # At most one flaw (a parameter flag left out or malformed, or a
    # negative --n-max), so that most command lines get past argparse.
    flaw = draw(st.booleans()) and draw(
        st.sampled_from(["missing", "malformed", "n-max"]))
    where = draw(st.integers(0, len(flags) - 1))
    if flaw == "missing":
        del flags[where], values[where]
    elif flaw == "malformed":
        values[where] = draw(st.sampled_from(BAD_VALUES))
    for flag, value in zip(flags, values):
        argv += [flag, value]
    argv += ["--n-max", "-1" if flaw == "n-max"
             else draw(st.sampled_from(["0", "1"]))]
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    if command in ("limit-scan", "matrix-verify"):
        if draw(st.booleans()):
            argv += ["--precision", draw(st.sampled_from(["30", "20"]))]
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(["0", "1e-30", "x"]))]
    return argv


@settings(max_examples=60, derandomize=True, deadline=None)
@given(command_lines())
def test_exit_contract(argv):
    """Every command line ends in a usage error (exit 2) or in exit
    0, 1 or 2 with a JSON payload, or a CSV report under --format csv."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1, 2)
    text = out.getvalue()
    if "csv" in argv and not text.startswith("{"):
        assert text.splitlines()[0] == CSV_HEADERS.get(argv[0], REPORT_HEADER)
    else:
        doc = json.loads(text)
        assert "error" in doc or "csv" not in argv


# -- eps-list contract --------------------------------------------------------------

EPS_SCAN = ["limit-scan", *M1, "--n-max", "0", "--eps-list"]


@pytest.mark.parametrize("eps", [
    "1e-3,abc", "nan", "inf",  # malformed
    "1e-3,-1e-4",  # mixed sign
    "1e-3,1e-3",  # repeated
    "1e-3,0", "-0", "0.0",  # zero entry: q = -1 itself
])
def test_eps_list_usage_error_exits_two(eps, capsys):
    with pytest.raises(SystemExit) as err:
        main(EPS_SCAN + [eps])
    assert err.value.code == 2
    assert "--eps-list" in capsys.readouterr().err


@pytest.mark.parametrize("eps,kept", [
    ("1e-3", ["1e-3"]),
    ("1e-70", ["1e-70"]),  # -e^eps still differs from -1 at 80 digits
    ("1e-3,,1e-4", ["1e-3", "1e-4"]),  # the empty entry is skipped
])
def test_eps_list_accepted(eps, kept, capsys):
    code, out = run_cli(EPS_SCAN + [eps], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert [c["params"]["eps"] for c in doc["checks"]
            if c["check"] == "limit-scan" and c["params"]["s"] == "0"] == kept


def test_eps_below_working_precision_is_degenerate(capsys):
    # -e^eps rounds to -1 at the 80 digits the default precision scans at.
    code, out = run_cli(EPS_SCAN + ["1e-100"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DegenerateParameters"
    assert error["message"] == "eps 1e-100: -e^eps rounds to -1 at 80 digits"
