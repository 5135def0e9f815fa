"""Acceptance gate: one test per criterion, run at the stated tolerances.

Each criterion is exercised through its verification suite, so the CLI
``verify`` command and this gate check the same thing; ``pytest -v`` gives
the per-criterion pass/fail lines.
"""
import pytest

from orbit_isom.cli import main
from orbit_isom.verification import run_suites


def run_one(memo, prefix):
    results = run_suites(prefix, memo=memo)
    assert len(results) == 1, f"expected one suite for {prefix!r}"
    result = results[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.suite_id}: {status} ({result.details})")
    return result


def test_criterion_1_hopf_pipeline(memo):
    # U(2) with central-circle kernel, quotient SO(3), rank 1, within 30 s
    r = run_one(memo, "1-")
    assert r.passed, r.details


def test_criterion_2_hopf_metric(memo):
    # residual <= 1e-3 at m=4096 over 100 pairs, decreasing as m doubles
    r = run_one(memo, "2-")
    assert r.passed, r.details


def test_criterion_3_hopf_lifting(memo):
    # 50 lift witnesses within 1e-8; double-cover sign law on 20 pairs
    r = run_one(memo, "3-")
    assert r.passed, r.details


def test_criterion_4_sector_angles(memo):
    # pi/2 and pi/4 within 0.01 at 5000 samples, under 60 s each
    r = run_one(memo, "4-")
    assert r.passed, r.details


def test_criterion_5_irreducible_trichotomy(memo):
    # D4 -> finite-group rank 0, C5 -> U(1), Q8 -> SO(3), rank <= 1
    r = run_one(memo, "5-")
    assert r.passed, r.details


def test_criterion_6_kernel_center_laws(memo):
    # kernel = in-component center, confirmed by the orbit oracle (kernel
    # elements pass, -I blocks left out fail), no continuous directions
    r = run_one(memo, "6-")
    assert r.passed, r.details


def test_criterion_7_descend_property(memo):
    # >= 100 sampled equivariant isometries preserve the quotient metric
    # within 1e-8 on 100 pairs each
    r = run_one(memo, "7-")
    assert r.passed, r.details


def test_criterion_8_structural_validators(memo):
    # factor-structure validator, commutant-dimension identity, and
    # skew-dimension formulas on every source
    r = run_one(memo, "8-")
    assert r.passed, r.details


def test_criterion_9_determinism(memo, tmp_path, capsys):
    # repeated analyses emit byte-identical reports
    r = run_one(memo, "9-")
    assert r.passed, r.details
    # and the verify command itself is byte-stable at a fixed seed
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        code = main(["verify", "--only", "trichotomy", "--seed", "0",
                     "--format", "text", "--output", str(path)])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
