import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rot2
from orbit_isom import cli, lift_verify, verification
from orbit_isom.cli import main
from orbit_isom.isom_quotient import validate_report_schema

C5 = "fixtures/c5.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_c5_json(capsys):
    code, out, err = run(capsys, "analyze", "--input", C5)
    assert code == 0
    rep = json.loads(out)
    validate_report_schema(rep)
    assert [f["name"] for f in rep["compactFactors"]] == ["U(1)"]
    assert rep["kernel"]["finiteOrder"] == 5


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", "--input", C5, "--format", "text")
    assert code == 0
    assert "quotient isometry report" in out
    assert "U(1)" in out


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, "analyze", "--input", "missing.json")
    assert code == 1
    assert "error[parse]" in err


def test_analyze_ambiguous_spec_exit_2(capsys, tmp_path):
    theta = 2.0 * math.pi / 3.0
    doc = {
        "dimension": 2,
        "kind": "finite",
        "generators": [
            [[repr(float(v)) for v in row] for row in rot2(theta)],
            [[repr(float(v)) for v in row] for row in rot2(theta + 3e-8)],
        ],
    }
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--input", C5,
                       "--output", str(out_path))
    assert code == 0
    assert out == ""
    validate_report_schema(json.loads(out_path.read_text()))


def test_analyze_catalog_id(capsys):
    code, out, _ = run(capsys, "analyze", "--input", "catalog:hopf-u1-r4")
    assert code == 0
    rep = json.loads(out)
    assert rep["compactFactors"][0]["name"] == "U(2)/center"
    assert rep["kernel"]["circleDirections"] == 1


def test_metric_value(capsys):
    code, out, _ = run(capsys, "metric", "--input", C5, "1,0", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["distance"] - 2.0 * math.sin(math.pi / 20)) < 1e-9
    assert payload["groupOrder"] == 5


def test_metric_same_orbit(capsys):
    c, s = math.cos(2.0 * math.pi / 5), math.sin(2.0 * math.pi / 5)
    code, out, _ = run(capsys, "metric", "--input", C5,
                       "1,0", f"{c!r},{s!r}")
    assert code == 0
    assert json.loads(out)["distance"] < 1e-12


def test_metric_dimension_mismatch(capsys):
    code, _, err = run(capsys, "metric", "--input", C5, "1,0", "1,0,0")
    assert code == 1
    assert "dimension" in err


def test_metric_rejects_non_finite_coordinates(capsys):
    code, out, err = run(capsys, "metric", "--input", "catalog:hopf-u1-r4",
                         "nan,0,0,0", "1,0,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error") and err.count("\n") == 1


def test_analyze_rejects_a_nan_generator_entry(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dimension": 2, "generators": [[["nan", "0"], ["0", "1"]]]}))
    code, _, err = run(capsys, "analyze", "--input", str(path))
    assert code == 1
    assert "not finite" in err


def test_metric_text_format(capsys):
    code, out, _ = run(capsys, "metric", "--input", C5, "1,0", "0,1",
                       "--format", "text")
    assert code == 0
    assert out.startswith("distance = 0.312869")


def test_lift_command(capsys):
    code, out, _ = run(capsys, "lift", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-8
    lift = np.array(payload["lift"])
    assert np.max(np.abs(lift.T @ lift - np.eye(4))) < 1e-9


def test_a_failed_lift_check_exits_2(capsys, monkeypatch):
    # a rotation of the (x1, x3) plane added to the lifted algebra breaks
    # the lift's commutation with the circle
    broken = lift_verify.lifted_algebra() + lift_verify.lift_system()[0][1]
    monkeypatch.setattr(lift_verify, "lifted_algebra", lambda: broken)
    code, out, err = run(capsys, "lift", "--seed", "3")
    assert code == 2 and out == ""
    assert err == "error: constructed lift does not commute with the action\n"


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)
    assert [e["id"] for e in entries] == ["hopf-u1-r4", "so2-tensor-so3-r6", "so2xso3-r5"]
    assert all("note" not in e for e in entries)


def test_catalog_text_is_one_line_per_action(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "text")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "hopf-u1-r4", "so2-tensor-so3-r6", "so2xso3-r5"]


def test_a_failed_suite_prints_its_table_and_exits_1(capsys, monkeypatch):
    failing = verification.SuiteResult("5-broken", False, "details")
    monkeypatch.setattr(verification, "_SUITES", (("5-broken", lambda memo: failing),))
    code, out, err = run(capsys, "verify", "--format", "text")
    assert (code, out, err) == (1, "FAIL  5-broken  details\n0/1 suites passed\n", "")


def test_an_untyped_error_is_not_turned_into_an_exit_code(monkeypatch):
    def crash(source, *, seed):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "quotient_isometry_group", crash)
    with pytest.raises(RuntimeError, match="bug"):
        main(["analyze", "--input", C5])


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "trichotomy",
                       "--format", "text")
    assert code == 0
    assert "PASS  5-irreducible-trichotomy" in out
    assert "1/1 suites passed" in out


def test_verify_no_match(capsys):
    code, _, err = run(capsys, "verify", "--only", "zzz")
    assert code == 1
    assert "no suite id" in err


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--only", "trichotomy")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suiteId"] == "5-irreducible-trichotomy"
    assert payload[0]["passed"] is True


@pytest.mark.parametrize("value", ["17", "xyz"])
@pytest.mark.parametrize("argv", [
    ("analyze", "--input", C5),
    ("lift",),
    ("verify", "--only", "trichotomy", "--format", "text"),
])
def test_the_environment_sets_no_seed(capsys, monkeypatch, value, argv):
    _, want, _ = run(capsys, *argv, "--seed", "0")
    monkeypatch.setenv("ORBIT_ISOM_SEED", value)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("argv", [
    ("catalog", "--seed", "5"),
    ("catalog", "--samples", "7"),
    ("metric", "--input", C5, "1,0", "0,1", "--seed", "5"),
    ("metric", "--input", C5, "1,0", "0,1", "--samples", "7"),
    ("analyze", "--input", C5, "--samples", "7"),  # randomized checks use a constant
    ("lift", "--samples", "5"),
    ("verify", "--samples", "5"),
])
def test_catalog_and_metric_take_no_seed_or_samples(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_text_reports_survive_an_ascii_stdout(tmp_path):
    # Q8's report names Sp(1)/{±I}: stdout escapes the sign, a file keeps it.
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "orbit_isom", "analyze", "--input", "fixtures/q8.json",
            "--format", "text"]
    cwd = Path(__file__).parents[1]
    shown = subprocess.run(argv, env=env, cwd=cwd, capture_output=True)
    assert (shown.returncode, shown.stderr) == (0, b"")
    assert b"Sp(1)/{\\xb1I}" in shown.stdout
    out = tmp_path / "q8.txt"
    written = subprocess.run(argv + ["--output", str(out)], env=env, cwd=cwd,
                             capture_output=True)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert "Sp(1)/{±I}" in out.read_bytes().decode("utf-8")


def test_analyze_round_trip_schema(capsys, tmp_path):
    # analyze output re-read as JSON parses and validates
    for source in (C5, "fixtures/q8.json", "catalog:hopf-u1-r4"):
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "analyze", "--input", source,
                         "--output", str(out_path))
        assert code == 0
        validate_report_schema(json.loads(out_path.read_text()))


@pytest.mark.parametrize("argv", [
    ("analyze", "--input", C5, "--seed", "-1"),
    ("lift", "--seed", "-1"),
    ("analyze", "--input", C5, "--output", "/nonexistent/x.json"),
])
def test_bad_run_parameters_end_in_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_output_directory_is_rejected_before_the_run(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--input", C5, "--output", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: the output path {tmp_path} is a directory\n"


def _catalog_spec_file(tmp_path, **doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dimension": 4, "kind": "catalog:hopf-u1-r4", **doc}))
    return str(path)


def test_analyze_reads_a_catalog_kind_spec_file(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--input", _catalog_spec_file(tmp_path))
    assert code == 0, err
    rep = json.loads(out)
    assert [f["name"] for f in rep["compactFactors"]] == ["U(2)/center"]
    code, want, _ = run(capsys, "analyze", "--input", "catalog:hopf-u1-r4")
    assert out == want


def test_metric_reads_a_catalog_kind_spec_file(capsys, tmp_path):
    code, out, err = run(capsys, "metric", "--input", _catalog_spec_file(tmp_path),
                         "1,0,0,0", "0,1,0,0")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["action"] == "hopf-u1-r4"
    assert abs(payload["distance"]) <= 1e-12  # (0, 1) is i (1, 0) in C^2
    _, want, _ = run(capsys, "metric", "--input", "catalog:hopf-u1-r4", "1,0,0,0", "0,1,0,0")
    assert out == want


@pytest.mark.parametrize("command", [["analyze"], ["metric", "1,0,0,0", "0,1,0,0"]])
@pytest.mark.parametrize("doc", [{"dimension": 7}, {"generators": [np.eye(4).tolist()]}],
                         ids=["wrong-dimension", "generators"])
def test_a_catalog_kind_spec_file_that_misdescribes_its_action_exits_1(
        capsys, tmp_path, command, doc):
    path = _catalog_spec_file(tmp_path, **doc)
    code, out, err = run(capsys, command[0], "--input", path, *command[1:])
    assert code == 1
    assert not out
    assert "hopf-u1-r4" in err
