import json
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import rot2
from orbit_isom import _numerics as num
from orbit_isom import isom_quotient
from orbit_isom.errors import ValidationError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.isom_quotient import (
    center_of_group,
    classify_irreducible,
    quotient_isometry_group,
    report_json,
    validate_report_schema,
    verify_theorem_B,
)

# frozen expected reports: factors as (name, type, multiplicity), kernel as
# (finiteOrder, circleDirections, containsCenterOfG)
EXPECTED = {
    "c5": {
        "euclid": 0, "factors": [("U(1)", "Complex", 1)],
        "kernel": (5, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 1, "theoremC": "pass",
        "irreducible": "trivial-or-U1",
    },
    "d4": {
        "euclid": 0, "factors": [("SO(1)", "Real", 1)],
        "kernel": (1, 0, True), "boundary": True,
        "formula": "central-kernel-search", "rank": 0, "theoremC": "pass",
        "irreducible": "finite-group",
    },
    "q8": {
        "euclid": 0, "factors": [("Sp(1)/{±I}", "Quaternionic", 1)],
        "kernel": (2, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 1, "theoremC": "pass",
        "irreducible": "trivial-or-Sp1-or-SO3",
    },
    "pm1-r4": {
        "euclid": 0, "factors": [("SO(4)/{±I}", "Real", 4)],
        "kernel": (2, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 2, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "pm1-r3": {
        "euclid": 0, "factors": [("SO(3)", "Real", 3)],
        "kernel": (1, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 1, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "c3-fix": {
        "euclid": 1, "factors": [("U(1)", "Complex", 1)],
        "kernel": (3, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 1, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "trivial-r3": {
        "euclid": 3, "factors": [],
        "kernel": (1, 0, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 0, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "c3xd4-r4": {
        "euclid": 0, "factors": [("U(1)", "Complex", 1), ("SO(1)", "Real", 1)],
        "kernel": (3, 0, True), "boundary": True,
        "formula": "central-kernel-search", "rank": 1, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "catalog:hopf-u1-r4": {
        "euclid": 0, "factors": [("U(2)/center", "Complex", 2)],
        "kernel": (1, 1, True), "boundary": False,
        "formula": "proposition-4.1b", "rank": 1, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "catalog:so2xso3-r5": {
        "euclid": 0, "factors": [("U(1)/center", "Complex", 1), ("SO(1)", "Real", 1)],
        "kernel": (1, 1, True), "boundary": True,
        "formula": "central-kernel-search", "rank": 0, "theoremC": "n/a",
        "irreducible": "not-irreducible",
    },
    "catalog:so2-tensor-so3-r6": {
        "euclid": 0, "factors": [("U(1)/center", "Complex", 1)],
        "kernel": (1, 1, True), "boundary": True,
        "formula": "central-kernel-search", "rank": 0, "theoremC": "pass",
        "irreducible": "trivial-or-U1",
    },
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_report_matches_frozen_expectation(label, memo):
    want = EXPECTED[label]
    rep = memo.analysis(label).report
    assert rep["euclideanFactorDim"] == want["euclid"]
    got_factors = [(f["name"], f["type"], f["multiplicity"])
                   for f in rep["compactFactors"]]
    assert got_factors == want["factors"]
    k = rep["kernel"]
    assert (k["finiteOrder"], k["circleDirections"], k["containsCenterOfG"]) \
        == want["kernel"]
    assert rep["boundary"] is want["boundary"]
    assert rep["formulaApplied"] == want["formula"]
    assert rep["rank"] == want["rank"]
    assert rep["theoremB"] == "pass"
    assert rep["theoremC"] == want["theoremC"]
    assert classify_irreducible(rep) == want["irreducible"]


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_report_schema_valid(label, memo):
    validate_report_schema(memo.analysis(label).report)


def test_hopf_quotient_description(memo):
    notes = memo.analysis("catalog:hopf-u1-r4").report["notes"]
    assert "SO(3)" in notes["quotientDescription"]


def test_q8_quotient_description(memo):
    notes = memo.analysis("q8").report["notes"]
    assert "SO(3)" in notes["quotientDescription"]


def test_so2xso3_whole_factor_kernel(memo):
    notes = memo.analysis("catalog:so2xso3-r5").report["notes"]
    assert notes["kernelWholeFactors"] == ["U(1)"]


def test_catalog_reports_carry_discretization(memo):
    notes = memo.analysis("catalog:hopf-u1-r4").report["notes"]
    assert "catalogDiscretization" in notes


def test_notes_method_strings(memo):
    notes = memo.analysis("c5").report["notes"]
    assert notes["method"] == "commutant-center split"
    assert notes["rng"] == "numpy-pcg64"
    assert notes["sampleCount"] == 200


CENTER_SIZES = {"c5": 5, "d4": 2, "q8": 2, "c3xd4-r4": 6}


@pytest.mark.parametrize("name", sorted(CENTER_SIZES))
def test_center_sizes(name, finite_group):
    group = finite_group(name)
    assert len(center_of_group(group)) == CENTER_SIZES[name]


def test_kernel_finite_part_is_a_group(memo):
    kernel = memo.analysis("q8").kernel
    els = list(kernel.finite_part)
    assert len(els) == 2
    for a in els:
        for b in els:
            prod = a @ b
            assert any(num.max_abs(prod - e) < 1e-9 for e in els)


def test_kernel_elements_act_trivially_on_orbits(memo):
    result = memo.analysis("c5")
    ctx = result.context
    rng = np.random.default_rng(12)
    for z in result.kernel.finite_part:
        for _ in range(10):
            x = rng.standard_normal(2)
            moved = np.linalg.norm((z @ x)[None, :] - ctx.elements @ x, axis=1)
            assert moved.min() < 1e-9


def test_schema_rejects_missing_field(memo):
    rep = dict(memo.analysis("c5").report)
    del rep["rank"]
    with pytest.raises(ValidationError):
        validate_report_schema(rep)


def test_schema_rejects_wrong_type(memo):
    rep = dict(memo.analysis("c5").report)
    rep["rank"] = "one"
    with pytest.raises(ValidationError):
        validate_report_schema(rep)


def test_theorem_b_rejects_nonclassical_factor(memo):
    rep = json.loads(report_json(memo.analysis("c5").report))
    rep["compactFactors"][0]["name"] = "E(8)"
    assert verify_theorem_B(rep) == "fail"


def test_theorem_b_rejects_noncentral_annotation(memo):
    rep = json.loads(report_json(memo.analysis("q8").report))
    rep["compactFactors"][0]["name"] = "Sp(1)/weird"
    assert verify_theorem_B(rep) == "fail"


def test_report_json_round_trip(memo):
    rep = memo.analysis("q8").report
    text = report_json(rep)
    assert json.loads(text) == json.loads(report_json(rep))
    validate_report_schema(json.loads(text))


def test_seed_changes_recorded_not_results(memo):
    base = memo.analysis("q8").report
    other = quotient_isometry_group(fixture_document("q8"), seed=99)
    assert other.report["seed"] == 99
    for key in ("compactFactors", "kernel", "rank", "boundary", "formulaApplied"):
        assert other.report[key] == base[key]


def test_factor_order_is_the_same_at_every_seed():
    doc = fixture_document("c3xd4-r4")
    orders = {
        tuple(f["name"] for f in quotient_isometry_group(doc, seed=seed).report["compactFactors"])
        for seed in range(12)
    }
    assert orders == {("U(1)", "SO(1)")}


def test_finite_analyses_never_consult_the_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("a finite analysis ran an orbit equivalence test")

    monkeypatch.setattr(isom_quotient, "orbit_equivalence_test", oracle)
    for name in FIXTURE_NAMES:
        rep = quotient_isometry_group(fixture_document(name)).report
        assert rep["kernel"]["finiteOrder"] == EXPECTED[name]["kernel"][0]
        assert [f["name"] for f in rep["compactFactors"]] \
            == [f[0] for f in EXPECTED[name]["factors"]]
        assert "exactly" in rep["notes"]["kernelMethod"]

    # C_360 on C^3 with weights 1, 2, 3: all 360 elements are central.
    gen = scipy.linalg.block_diag(*(rot2(2.0 * math.pi * w / 360) for w in (1, 2, 3)))
    doc = {"dimension": 6, "kind": "finite",
           "generators": [[[repr(float(v)) for v in row] for row in gen]]}
    rep = quotient_isometry_group(doc).report
    assert rep["kernel"]["finiteOrder"] == 360
    assert [f["name"] for f in rep["compactFactors"]] == ["U(1)"] * 3


def test_unknown_catalog_id_rejected():
    with pytest.raises(ValidationError):
        quotient_isometry_group("catalog:no-such-action")
