import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shamsuddin
from shamsuddin import MultiPoly, UniPoly, analysis, cli, ode
from shamsuddin.cli import run


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


SIMPLE = "y1: a=x, b=1"
NONSIMPLE = "y1: a=1, b=x"


def test_simple_command():
    code, out, _ = _run(["simple", "--deriv", SIMPLE])
    assert code == 0
    assert out.splitlines()[0] == "simple: true"

    code, out, _ = _run(["simple", "--deriv", NONSIMPLE])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "simple: false"
    assert "witness k=(1)" in lines[1] and "z=" in lines[1]


def test_exit_status_flag():
    code, _, _ = _run(["simple", "--deriv", SIMPLE, "--exit-status"])
    assert code == 0
    code, _, _ = _run(["simple", "--deriv", NONSIMPLE, "--exit-status"])
    assert code == 1


def test_isotropy_witness_round_trips_through_commute():
    code, out, _ = _run(["isotropy", "--deriv", NONSIMPLE, "--witness"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trivial: false"
    witness = lines[1].removeprefix("witness: ")
    code, out2, _ = _run(["commute", "--deriv", NONSIMPLE, "--endo", witness])
    assert code == 0 and out2.strip() == "commutes: true"


def test_isotropy_trivial():
    code, out, _ = _run(["isotropy", "--deriv", SIMPLE, "--witness"])
    assert code == 0
    assert out.splitlines() == ["trivial: true", "witness: none (isotropy is trivial)"]


def test_json_output_is_stable():
    argv = ["mz", "--deriv", "y1: a=x, b=0 ; y2: a=-x, b=1", "--json"]
    _, out1, _ = _run(argv)
    _, out2, _ = _run(argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["command"] == "mz"
    assert payload["mz"] == "UNKNOWN"
    assert payload["gamma"] == [1, 1]


def test_mz_text_output():
    code, out, _ = _run(["mz", "--deriv", SIMPLE])
    assert code == 0
    assert out.startswith("mz: NOT_MZ (single coefficient a(x) with deg a >= 1)")


def test_describe_output_and_seed():
    code, out, _ = _run(["describe", "--deriv", "y1: a=1, b=0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case: a_constant"
    assert lines[1] == "shift: free parameter c"
    assert any(line.startswith("sample: ") for line in lines)
    _, out_again, _ = _run(["describe", "--deriv", "y1: a=1, b=0"])
    assert out == out_again  # default seed is fixed

    code, _, err = _run(["describe", "--deriv", "y1: a=1, b=0 ; y2: a=2, b=0"])
    assert code == 3 and "single-block" in err


def test_preimage_command():
    code, out, _ = _run(["preimage", "--deriv", SIMPLE, "--target", "y1"])
    assert code == 0
    assert out.strip() == "preimage: none within box (max_x_deg=8, max_y_deg=4)"

    code, out, _ = _run(["preimage", "--deriv", "y1: a=1, b=1", "--target", "y1"])
    assert code == 0
    assert out.strip() == "preimage: -1*x + y1"

    code, _, _ = _run(["preimage", "--deriv", SIMPLE, "--target", "y1", "--exit-status"])
    assert code == 1


def test_apply_command():
    code, out, _ = _run(["apply", "--deriv", SIMPLE, "--poly", "y1^2"])
    assert code == 0
    assert out.strip() == "result: 2*x*y1^2 + 2*y1"


def test_locally_finite_command():
    code, out, _ = _run(["locally-finite", "--deriv", "y1: a=1, b=0 ; y2: a=2, b=y1^2"])
    assert code == 0 and out.strip() == "locally_finite: true"
    code, out, _ = _run(["locally-finite", "--deriv", SIMPLE])
    assert code == 0 and out.strip() == "locally_finite: false"


def test_error_exit_codes():
    code, _, err = _run(["simple", "--deriv", "y1: a=), b=1"])
    assert code == 2 and "parse error" in err

    code, _, err = _run(["simple", "--deriv", "y1: a=y1, b=1"])
    assert code == 3

    code, _, err = _run(["simple", "--deriv", "y1: a=1, b=0 ; y2: a=2, b=y1^2"])
    assert code == 3 and "Shamsuddin" in err

    code, _, _ = _run(["simple"])  # no input source
    assert code == 3

    code, _, _ = _run(["simple", "--deriv", SIMPLE, "extra.txt"])  # two sources
    assert code == 3


@pytest.mark.parametrize(
    "argv, code, stream",
    [
        (["nosuch"], 2, "err"),
        ([], 2, "err"),
        (["simple", "--deriv", SIMPLE, "--bogus"], 2, "err"),
        (["preimage", "--deriv", SIMPLE, "--target", "y1", "--max-y-deg", "two"], 2, "err"),
        (["--help"], 0, "out"),
        (["mz", "--help"], 0, "out"),
    ],
)
def test_usage_text_goes_to_the_given_streams(capsys, argv, code, stream):
    # argparse's usage and error text reach run's own streams, never the
    # process's stdout or stderr; usage errors share exit 2 with parse errors
    got, out, err = _run(argv)
    assert got == code
    texts = {"out": out, "err": err}
    assert texts.pop(stream).startswith("usage: shamsuddin")
    assert texts.popitem()[1] == ""
    assert capsys.readouterr() == ("", "")


def test_file_and_stdin_inputs(tmp_path, monkeypatch):
    path = tmp_path / "d.txt"
    path.write_text(SIMPLE + "\n", encoding="utf-8")
    code, out, _ = _run(["simple", str(path)])
    assert code == 0 and out.splitlines()[0] == "simple: true"

    monkeypatch.setattr("sys.stdin", io.StringIO(SIMPLE))
    code, out, _ = _run(["simple", "-"])
    assert code == 0 and out.splitlines()[0] == "simple: true"


ENDO = "x -> x ; y1 -> 2*y1"


def test_commute_endo_file_flag(tmp_path, monkeypatch):
    path = tmp_path / "endo.txt"
    path.write_text(ENDO + "\n", encoding="utf-8")
    code, out, err = _run(["commute", "--deriv", "y1: a=1, b=0", "--endo-file", str(path)])
    assert (code, out, err) == (0, "commutes: true\n", "")

    monkeypatch.setattr("sys.stdin", io.StringIO(ENDO))
    code, out, err = _run(["commute", "--deriv", "y1: a=1, b=0", "--endo-file", "-"])
    assert (code, out, err) == (0, "commutes: true\n", "")


def test_commute_endo_file_errors(tmp_path, monkeypatch):
    code, out, err = _run(["commute", "--deriv", "y1: a=1, b=0", "--endo-file", str(tmp_path / "none.txt")])
    assert code == 3 and out == "" and "none.txt" in err

    monkeypatch.setattr("sys.stdin", io.StringIO("y1: a=1, b=0"))
    code, out, err = _run(["commute", "-", "--endo-file", "-"])
    assert code == 3 and out == "" and "cannot both be read from stdin" in err

    # one source only: both flags, or neither, is a usage error
    assert _run(["commute", "--deriv", "y1: a=1, b=0", "--endo", ENDO, "--endo-file", "-"])[0] == 2
    assert _run(["commute", "--deriv", "y1: a=1, b=0"])[0] == 2


def test_commute_inline_endo_prints_no_warning():
    code, out, err = _run(["commute", "--deriv", "y1: a=1, b=0", "--endo", ENDO])
    assert (code, out, err) == (0, "commutes: true\n", "")


def test_commute_endo_naming_a_file_is_map_text(tmp_path):
    # --endo is always inline text: the path of a file that holds a valid map
    # is parsed as map text, and the file is not read
    path = tmp_path / "endo.txt"
    path.write_text(ENDO + "\n", encoding="utf-8")
    code, out, err = _run(["commute", "--deriv", "y1: a=1, b=0", "--endo", str(path)])
    assert code == 2 and out == "" and err.startswith("parse error: ")


OVERLONG = "12345678901234567890^256"


@pytest.mark.parametrize(
    "argv, side",
    [
        (["apply", "--deriv", "y1: a=x, b=1", "--poly", f"{OVERLONG}*y1"], "numerator"),
        (["apply", "--deriv", "y1: a=x, b=1", "--poly", f"(1/{OVERLONG})*y1"], "denominator"),
        (
            ["preimage", "--deriv", "y1: a=x, b=1", "--target", f"{OVERLONG}*(x*y1+1)",
             "--max-x-deg", "1", "--max-y-deg", "1"],
            "numerator",
        ),
        (
            ["preimage", "--json", "--deriv", "y1: a=x, b=1", "--target", f"{OVERLONG}*(x*y1+1)",
             "--max-x-deg", "1", "--max-y-deg", "1"],
            "numerator",
        ),
    ],
    ids=["apply", "apply-denominator", "preimage", "preimage-json"],
)
def test_overlong_coefficient_exits_3_naming_the_cap(argv, side):
    code, out, err = _run(argv)
    assert code == 3 and out == ""
    assert err == f"error: coefficient {side} exceeds the output limit of 4300 digits\n"


def test_longest_printable_coefficient_prints():
    digits = "9" * 4300
    code, out, _ = _run(["apply", "--deriv", "y1: a=x, b=1", f"--poly=-{digits}*y1"])
    assert code == 0 and out == f"result: -{digits}*x*y1 - {digits}\n"


def test_missing_file_is_semantic_error():
    code, _, err = _run(["simple", "/no/such/file.txt"])
    assert code == 3


def test_deeply_nested_input_is_parse_error():
    code, _, err = _run(["apply", "--deriv", SIMPLE, "--poly", "(" * 3000 + "x" + ")" * 3000])
    assert code == 2 and "nested deeper" in err


@pytest.mark.parametrize(
    "argv, pos",
    [
        (["apply", "--deriv", "y1: a=x, b=1", "--poly", "x + " + "1" * 5000], 4),
        (["simple", "--deriv", "y1: a=x, b=1 ; y" + "2" * 5000 + ": a=1, b=x"], 15),
        (["commute", "--deriv", "y1: a=1, b=0", "--endo", "x -> x ; y" + "1" * 5000 + " -> y1"], 9),
    ],
    ids=["poly", "deriv", "endo"],
)
def test_overlong_number_is_parse_error(argv, pos):
    # int() itself refuses digit strings this long; the parser stops first
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err == f"parse error: 5000 digits exceed the parser limit 4300 (at position {pos})\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--deriv", "y1: a=x, b=1 ; y2: a=x, b=x", "--poly", "(y1+x+1)^256"],
        ["apply", "--deriv", "y1: a=x, b=1 ; y2: a=x, b=x", "--poly", "((x+y1+1)^16)^16"],
        ["simple", "--deriv", "y1: a=x, b=1 ; y2: a=x, b=(y1+x+1)^256"],
    ],
)
def test_parser_work_budget_exits_3(argv):
    code, out, err = _run(argv)
    assert code == 3 and out == "" and "parser limit" in err


def test_failed_preimage_check_exits_4(monkeypatch):
    monkeypatch.setattr(analysis, "apply_derivation", lambda d, f: MultiPoly.zero(d.arity))
    code, out, err = _run(["preimage", "--deriv", "y1: a=1, b=1", "--target", "y1"])
    assert code == 4 and out == "" and "verification failed" in err


def test_unverified_witness_exits_4(monkeypatch):
    monkeypatch.setattr(analysis, "affine_commutes", lambda rho, d: False)
    code, out, err = _run(["isotropy", "--deriv", NONSIMPLE, "--witness"])
    assert code == 4 and out == "" and "verification failed" in err


def test_singular_sample_exits_4(monkeypatch):
    # invertibility of a printed map is checked in the library, not the CLI
    monkeypatch.setattr(analysis, "affine_is_automorphism", lambda rho: False)
    code, out, err = _run(["describe", "--seed", "1", "--deriv", "y1: a=0, b=1"])
    assert code == 4 and out == "" and "verification failed" in err


def test_each_printed_map_is_checked_once(monkeypatch):
    calls = []

    def counting(check):
        def counted(rho, d):
            calls.append(rho)
            return check(rho, d)

        return counted

    # every binding of either commutation check, library and CLI
    monkeypatch.setattr(analysis, "affine_commutes", counting(analysis.affine_commutes))
    monkeypatch.setattr(cli, "commutes", counting(cli.commutes))
    for argv in [
        ["isotropy", "--witness", "--deriv", NONSIMPLE],
        ["describe", "--seed", "1", "--deriv", "y1: a=0, b=x ; y2: a=0, b=1"],
        ["describe", "--seed", "1", "--deriv", "y1: a=2, b=x^2+1 ; y2: a=2, b=x"],
    ]:
        calls.clear()
        code, out, _ = _run(argv)
        assert code == 0 and ("witness: " in out or "sample: x -> " in out), out
        assert len(calls) == 1, argv


def test_printed_maps_are_checked_without_substitution(monkeypatch):
    """Witnesses and samples are verified by univariate identities: no
    request that prints one substitutes into a MultiPoly or runs commutes."""
    calls = []
    original = MultiPoly.substitute
    monkeypatch.setattr(
        MultiPoly, "substitute", lambda f, images: calls.append("substitute") or original(f, images)
    )
    for module in [m for name, m in sys.modules.items() if name.startswith("shamsuddin")]:
        if hasattr(module, "commutes"):
            check = module.commutes
            monkeypatch.setattr(
                module, "commutes", lambda rho, d, check=check: calls.append("commutes") or check(rho, d)
            )
    # one block each with a = 0, constant a and deg a >= 1, none of them simple
    for deriv in [
        "y1: a=0, b=x ; y2: a=0, b=1",
        "y1: a=2, b=x^2+1 ; y2: a=2, b=x",
        "y1: a=x, b=-x ; y2: a=x, b=1",
    ]:
        for argv, printed in [(["isotropy", "--witness"], "witness: "), (["describe", "--seed", "1"], "sample: ")]:
            code, out, _ = _run([*argv, "--deriv", deriv])
            assert code == 0 and printed in out, (argv, deriv, out)
    assert calls == []


def test_parser_is_built_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("argparse parser rebuilt for a request")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    for _ in range(2):
        code, out, _ = _run(["locally-finite", "--deriv", SIMPLE])
        assert code == 0 and out == "locally_finite: false\n"


def test_unchecked_simplicity_witness_exits_4(monkeypatch):
    original = ode.reduce_linear_ode

    def perturbed(a, c):
        z, rem = original(a, c)
        return z + UniPoly.x(), rem

    monkeypatch.setattr(ode, "reduce_linear_ode", perturbed)
    code, out, err = _run(["simple", "--deriv", NONSIMPLE])
    assert code == 4 and out == "" and "verification failed" in err


def test_isotropy_witness_decides_simplicity_once(monkeypatch):
    calls = []
    original = analysis.is_simple
    monkeypatch.setattr(analysis, "is_simple", lambda d: calls.append(d) or original(d))
    for deriv, first in [(NONSIMPLE, "trivial: false"), (SIMPLE, "trivial: true")]:
        calls.clear()
        code, out, _ = _run(["isotropy", "--deriv", deriv, "--witness"])
        assert code == 0 and out.splitlines()[0] == first
        assert len(calls) == 1


def test_output_is_identical_across_hash_seeds():
    """The same request prints byte-identical output whatever PYTHONHASHSEED
    is, so no verdict, witness or sample depends on set or dict hash order."""
    requests = [
        ["simple", "--deriv", "y1: a=x, b=1 ; y2: a=1, b=x^2 ; y3: a=1, b=2*x^2+1"],
        ["isotropy", "--witness", "--deriv", "y1: a=x+1, b=x^3 ; y2: a=x+1, b=x^2-1 ; y3: a=0, b=x"],
        ["describe", "--seed", "1", "--deriv", "y1: a=2, b=x^2+1 ; y2: a=2, b=x ; y3: a=2, b=0"],
        ["mz", "--deriv", "y1: a=x, b=0 ; y2: a=-2*x, b=1 ; y3: a=x^2, b=x"],
    ]
    src = str(Path(shamsuddin.__file__).parent.parent)
    for argv in requests:
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "shamsuddin", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
