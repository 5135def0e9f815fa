import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import orbit_isom
from conftest import (
    cyclic_weights,
    in_random_basis,
    random_orthogonal,
    rot2,
    signed_permutations,
    spec_of,
    stall_newton_ascent,
    with_kernel_edit,
)
from orbit_isom import _numerics as num
from orbit_isom import isom_quotient
from orbit_isom.catalog import (
    CATALOG,
    ActionMetadata,
    CatalogAction,
    ParamAxis,
    get_action,
    trivial_action,
)
from orbit_isom.errors import (AmbiguityError, InternalCheckError, KernelAmbiguityError,
                               ValidationError)
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document, fixture_spec
from orbit_isom.isom_quotient import (
    center_of_group,
    classify_irreducible,
    quotient_isometry_group,
    report_json,
    validate_report_schema,
    verify_theorem_B,
)
from orbit_isom.orbit_geometry import orbit_equivalence_test, sample_generic_point
from orbit_isom.repr_model import FiniteGroupData, enumerate_group, parse_spec
from test_golden_reports import _golden_blocks

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
        "kernel": (1, 0, False), "boundary": True,
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
        "kernel": (1, 0, False), "boundary": False,
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
        "kernel": (3, 0, False), "boundary": True,
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


@pytest.mark.parametrize("name", sorted(CENTER_SIZES))
def test_contains_center_of_g_compares_the_kernel_with_the_center(name, memo):
    # D4 and C3 x D4 keep central elements outside the identity component
    kernel = memo.analysis(name).report["kernel"]
    assert kernel["containsCenterOfG"] is (kernel["finiteOrder"] == CENTER_SIZES[name])
    assert kernel["containsCenterOfG"] is (name in ("c5", "q8"))


def _all_elements_center(group):
    """Every element tested against every generator, the mask combined."""
    mask = np.ones(group.order, dtype=bool)
    for g in group.generators:
        comm = group.elements @ g - g @ group.elements
        mask &= np.abs(comm).max(axis=(1, 2)) <= 1e-9
    return group.elements[mask]


CENTER_CASES = {
    **{name: parse_spec(fixture_document(name)).generators for name in FIXTURE_NAMES},
    **{f"{name}@random-basis": in_random_basis(
        parse_spec(fixture_document(name)).generators, 7) for name in FIXTURE_NAMES},
    "B4@random-basis": in_random_basis(signed_permutations(4), 3),
    "B5@random-basis": in_random_basis(signed_permutations(5), 4),
    "C24@random-basis": in_random_basis([cyclic_weights(24, (1, 2, 3))], 5),
    # abelian: every element is central, so every one must pass the screen
    "C120@random-basis": in_random_basis([cyclic_weights(120, (1, 2, 3))], 6),
}


@pytest.mark.parametrize("name", sorted(CENTER_CASES))
def test_center_filter_keeps_the_all_elements_filter_order(name):
    generators = CENTER_CASES[name]
    group = enumerate_group(spec_of(generators, len(generators[0])))
    assert np.array_equal(center_of_group(group), _all_elements_center(group))


def test_a_commutator_in_the_guard_band_is_ambiguous():
    # The Klein group {±I, ±F} with a generator g = F R(1e-8) that is no
    # element: F g - g F = R(1e-8) - R(-1e-8) has max norm 2e-8, inside
    # (1e-9, DEDUP_GUARD * DEDUP_TOL / d] = (1e-9, 5e-8].
    f = np.diag([1.0, -1.0])
    group = FiniteGroupData.from_elements(
        [np.eye(2), -np.eye(2), f, -f], generators=[f @ rot2(1e-8)])
    with pytest.raises(KernelAmbiguityError, match=r"2\.000e-08"):
        center_of_group(group)


def test_a_commutator_aligned_with_the_screen_is_still_tested():
    # z = diag(1, -1, 1, -1) and a generator g = z + E with [z, g] = c
    # sign(W) wherever z's signs differ: ||[z, g]||_max = c lies in the
    # guard band (1e-9, 2.5e-8], yet <W, [z, g]> exceeds the band, so only
    # a screen that scales the band by ||W||_1 keeps z for the exact test
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    z = np.diag(signs)
    w = np.random.default_rng(isom_quotient._SCREEN_SEED).standard_normal((4, 4))
    w /= np.linalg.norm(w)
    gap = signs[:, None] - signs[None, :]
    c = 2e-8
    edit = np.divide(c * np.sign(w), gap, out=np.zeros((4, 4)), where=gap != 0)
    assert np.sum(w * (z @ edit - edit @ z)) > 2.5e-8
    group = FiniteGroupData.from_elements([np.eye(4), z], generators=[z + edit])
    with pytest.raises(KernelAmbiguityError, match=r"2\.000e-08"):
        center_of_group(group)


def test_a_central_element_that_is_not_scalar_on_a_component_is_an_internal_error(memo):
    with pytest.raises(InternalCheckError, match="±I on a Real component"):
        isom_quotient.center_in_component([np.diag([1.0, -1.0])], memo.analysis("d4").equiv)


@pytest.mark.parametrize("source", ["c5", "catalog:hopf-u1-r4"])
def test_a_negative_seed_is_rejected(source):
    if not source.startswith("catalog:"):
        source = fixture_spec(source)
    with pytest.raises(ValidationError) as err:
        quotient_isometry_group(source, seed=-1)
    assert err.value.stage == "parse"


@pytest.mark.parametrize("seed", [2.5, True])
@pytest.mark.parametrize("source", ["c5", "catalog:hopf-u1-r4"])
def test_a_non_integer_seed_is_rejected(source, seed):
    if not source.startswith("catalog:"):
        source = fixture_spec(source)
    with pytest.raises(ValidationError, match="must be an integer") as err:
        quotient_isometry_group(source, seed=seed)
    assert err.value.stage == "parse"


@pytest.mark.parametrize("source", ["c5", "catalog:hopf-u1-r4"])
def test_a_numpy_integer_seed_is_accepted(source):
    if not source.startswith("catalog:"):
        source = fixture_spec(source)
    want = quotient_isometry_group(source, seed=3).report
    got = quotient_isometry_group(source, seed=np.int64(3)).report
    assert got == want


HOPF_DOC = {"dimension": 4, "kind": "catalog:hopf-u1-r4"}


def _as_source(doc, form, tmp_path):
    """The spec document as a path, a dict or a parsed spec."""
    if form == "path":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return doc if form == "dict" else parse_spec(doc)


@pytest.mark.parametrize("form", ["path", "dict", "spec"])
def test_a_catalog_kind_spec_analyzes_as_its_action_in_every_form(form, tmp_path):
    result = quotient_isometry_group(_as_source(HOPF_DOC, form, tmp_path))
    assert result.source == "catalog:hopf-u1-r4"
    assert result.context is get_action("hopf-u1-r4")
    want = quotient_isometry_group("catalog:hopf-u1-r4").report
    assert report_json(result.report) == report_json(want)
    assert [f["name"] for f in result.report["compactFactors"]] == ["U(2)/center"]


@pytest.mark.parametrize("form", ["path", "dict", "spec"])
@pytest.mark.parametrize("doc, match", [
    ({"dimension": 7, "kind": "catalog:hopf-u1-r4"}, "acts on R\\^4"),
    ({**HOPF_DOC, "generators": [np.eye(4).tolist()]}, "takes no generators"),
], ids=["wrong-dimension", "generators"])
def test_a_catalog_kind_spec_must_describe_its_action(doc, match, form, tmp_path):
    with pytest.raises(ValidationError, match=match) as err:
        quotient_isometry_group(_as_source(doc, form, tmp_path))
    assert err.value.stage == "parse"


def test_an_orbit_test_over_no_samples_is_rejected(finite_group):
    group = finite_group("d4")
    with pytest.raises(ValidationError, match="sample count"):
        orbit_equivalence_test(group, -np.eye(2), 0, 0)


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


@pytest.mark.parametrize("where", ["top", "kernel", "factor"])
def test_schema_rejects_a_bool_for_an_int_everywhere(memo, where):
    rep = json.loads(report_json(memo.analysis("c5").report))
    if where == "top":
        rep["rank"] = True
    elif where == "kernel":
        rep["kernel"]["finiteOrder"] = True
    else:
        rep["compactFactors"][0]["multiplicity"] = True
    with pytest.raises(ValidationError, match="wrong type|invalid"):
        validate_report_schema(rep)


def test_theorem_b_rejects_nonclassical_factor(memo):
    rep = json.loads(report_json(memo.analysis("c5").report))
    rep["compactFactors"][0]["name"] = "E(8)"
    assert verify_theorem_B(rep) == "fail"


def test_theorem_b_rejects_noncentral_annotation(memo):
    rep = json.loads(report_json(memo.analysis("q8").report))
    rep["compactFactors"][0]["name"] = "Sp(1)/weird"
    assert verify_theorem_B(rep) == "fail"


def _with_factor(memo, name, schur_type, multiplicity):
    rep = json.loads(report_json(memo.analysis("c5").report))
    rep["compactFactors"] = [{"name": name, "type": schur_type, "multiplicity": multiplicity}]
    return rep


@pytest.mark.parametrize("name, schur_type, multiplicity", [
    ("U(3)", "Real", 5),               # another type's prefix and another n
    ("SO(3)/{±I}", "Real", 3),         # -I is not in SO(3)
    ("Sp(1)/center", "Quaternionic", 1),  # Sp(1) has no center circle
    ("U(2)/{±I}", "Complex", 2),       # -I lies on the circle of U(2)
    ("SO(2)/whole-factor", "Real", 2),  # SO(2) is its own circle
    ("SO(3)", "Octonionic", 3),
    ("SO(0)", "Real", 0),
    ("SO(3)/", "Real", 3),
])
def test_theorem_b_rejects_a_name_that_does_not_fit_its_factor(
        memo, name, schur_type, multiplicity):
    assert verify_theorem_B(_with_factor(memo, name, schur_type, multiplicity)) == "fail"


@pytest.mark.parametrize("name, schur_type, multiplicity", [
    ("SO(4)/{±I}", "Real", 4),
    ("Sp(2)/{±I}", "Quaternionic", 2),
    ("SO(2)/center", "Real", 2),
    ("U(3)/center", "Complex", 3),
    ("SO(3)/whole-factor", "Real", 3),
    ("Sp(1)/whole-factor", "Quaternionic", 1),
    ("SO(1)", "Real", 1),
])
def test_theorem_b_accepts_an_annotation_its_factor_has(memo, name, schur_type, multiplicity):
    assert verify_theorem_B(_with_factor(memo, name, schur_type, multiplicity)) == "pass"


def test_theorem_b_accepts_every_golden_report():
    blocks = _golden_blocks().values()
    assert len(blocks) == 22
    assert all(verify_theorem_B(json.loads(block)) == "pass" for block in blocks)


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


CATALOG_IDS = tuple(CATALOG)


def _without_seed(report):
    return report_json({k: v for k, v in report.items() if k != "seed"})


@pytest.mark.parametrize("action_id", CATALOG_IDS)
def test_catalog_reports_do_not_depend_on_the_seed(action_id):
    reports = {_without_seed(quotient_isometry_group(f"catalog:{action_id}", seed=seed).report)
               for seed in range(8)}
    assert len(reports) == 1


def _conjugated(action, q):
    """The action in the basis q: only its generators are conjugated."""
    return CatalogAction(
        id=f"{action.id}@conjugated",
        generators=tuple(q @ x @ q.T for x in action.generators),
        axes=action.axes,
        metadata=action.metadata,
    )


def _same_span(got, want):
    """Whether two Frobenius-orthonormal (r, d, d) stacks span one space."""
    got, want = got.reshape(len(got), -1), want.reshape(len(want), -1)
    return got.shape == want.shape and num.max_abs(got - got @ want.T @ want) <= 1e-12


@pytest.mark.parametrize("action_id", CATALOG_IDS)
@pytest.mark.parametrize("basis_seed", [1, 2])
@settings(max_examples=5, deadline=None)
@given(draw=st.integers(0, 2**32 - 1))
def test_catalog_report_does_not_depend_on_the_basis(action_id, basis_seed, draw, memo):
    # basis_seed splits the Haar-random bases into two independent streams.
    action = get_action(action_id)
    q = random_orthogonal(action.dimension, [basis_seed, draw])
    moved = _conjugated(action, q)
    got = quotient_isometry_group(moved).report
    assert report_json(got) == report_json(memo.analysis(f"catalog:{action_id}").report)
    for derived in ("algebra", "central_directions"):
        want = np.einsum("ij,kjl,ml->kim", q, getattr(action, derived)(), q)
        assert _same_span(getattr(moved, derived)(), want)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_direct_square_keeps_types_and_doubles_multiplicities(name, memo):
    # V + V, generated by diag(g, g), in the fixture's file basis.
    spec = fixture_spec(name)
    base = memo.analysis(name).report
    square = quotient_isometry_group(
        spec_of([scipy.linalg.block_diag(g, g) for g in spec.generators], 2 * spec.dimension),
        seed=memo.seed).report
    assert [(f["type"], f["multiplicity"]) for f in square["compactFactors"]] == \
        [(f["type"], 2 * f["multiplicity"]) for f in base["compactFactors"]]
    assert square["euclideanFactorDim"] == 2 * base["euclideanFactorDim"]
    # Every multiplicity is even, so every central element lies in H_0 (SO(2n)
    # holds -I) and the kernel is all of Z(G); on V alone it is smaller for
    # d4, pm1-r3 and c3xd4-r4.
    assert square["kernel"]["finiteOrder"] == len(center_of_group(enumerate_group(spec)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_trivial_summand_adds_to_the_euclidean_factor(name, k, seed):
    # V + R^k, generated by diag(g, I_k), in the fixture's file basis.
    spec = fixture_spec(name)
    base = quotient_isometry_group(spec, seed=seed).report
    plus = quotient_isometry_group(
        spec_of([scipy.linalg.block_diag(g, np.eye(k)) for g in spec.generators],
                spec.dimension + k), seed=seed).report
    assert plus["euclideanFactorDim"] == base["euclideanFactorDim"] + k
    assert plus["compactFactors"] == base["compactFactors"]


def test_analyses_form_no_group_average(monkeypatch):
    def average(*args, **kwargs):
        raise AssertionError("an analysis asked for the Haar quadrature")

    monkeypatch.setattr(CatalogAction, "fs_sample", average)
    for action_id in CATALOG_IDS:
        quotient_isometry_group(f"catalog:{action_id}")


def test_catalog_analyses_never_consult_the_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("a catalog analysis ran an orbit equivalence test")

    monkeypatch.setattr(isom_quotient, "orbit_equivalence_test", oracle)
    for action_id in CATALOG_IDS:
        rep = quotient_isometry_group(f"catalog:{action_id}").report
        want = EXPECTED[f"catalog:{action_id}"]
        assert [(f["name"], f["type"], f["multiplicity"]) for f in rep["compactFactors"]] \
            == want["factors"]
        k = rep["kernel"]
        assert (k["finiteOrder"], k["circleDirections"], k["containsCenterOfG"]) \
            == want["kernel"]


def test_hopf_kernel_algebra_is_the_diagonal_circle(memo):
    result = memo.analysis("catalog:hopf-u1-r4")
    null, complement = isom_quotient.kernel_algebra(result.equiv, result.context)
    assert null.shape == (4, 1) and complement.shape == (4, 3)
    (direction,) = np.tensordot(null.T, result.equiv.lie_basis, axes=1)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = scipy.linalg.block_diag(j, j) / 2.0
    assert min(num.max_abs(direction - want), num.max_abs(direction + want)) <= 1e-14


# The cohomogeneity of each catalog action, from its geometry: the Hopf
# circle's orbits are circles in R^4; SO(2) x SO(3) has circle times sphere
# orbits in R^2 + R^3 and 4-dimensional ones in R^2 (x) R^3.
CATALOG_COHOMOGENEITY = {"hopf-u1-r4": 3, "so2xso3-r5": 2, "so2-tensor-so3-r6": 2}


@pytest.mark.parametrize("action_id", CATALOG_IDS)
def test_generic_orbits_have_the_cohomogeneity_as_normal_dimension(action_id):
    # r5 and r6 reach SO(3) through Euler generators (L_z, L_y, L_z), which
    # span a plane; their orbits are 3- and 4-dimensional only with L_x.
    action = get_action(action_id)
    algebra = action.algebra()
    assert len(algebra) == {"hopf-u1-r4": 1}.get(action_id, 4)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = sample_generic_point(action, rng)
        normal = isom_quotient.orbit_normal_space(algebra, x)
        assert normal.shape == (action.dimension, CATALOG_COHOMOGENEITY[action_id])


def test_the_cohomogeneity_is_computed_from_the_orbit_rank():
    # the trivial action's orbits are points; unit quaternions act on H^k
    # with 3-sphere orbits
    actions = [get_action(a) for a in CATALOG_IDS] + [
        trivial_action(2), trivial_action(3),
        _left_unit_quaternions(1, has_boundary=True),
        _left_unit_quaternions(2, has_boundary=False)]
    assert [a.cohomogeneity for a in actions] == [
        CATALOG_COHOMOGENEITY[a] for a in CATALOG_IDS] + [2, 3, 1, 5]


def _left_unit_quaternions(copies, *, has_boundary):
    """Left multiplication by unit quaternions on H^copies = R^(4 copies),
    parametrized by Euler angles exp(a L_i) exp(b L_j) exp(c L_i): the
    generators miss L_k."""
    l_i = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    l_j = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    circle = ParamAxis(2.0 * math.pi, True, 1.0, 8)
    return CatalogAction(
        id=f"sp1-left-r{4 * copies}",
        generators=tuple(scipy.linalg.block_diag(*[x] * copies) for x in (l_i, l_j, l_i)),
        # the half-angle b in [0, pi/2] carries Haar density sin(2b)
        axes=(circle, ParamAxis(math.pi / 2.0, False, 0.5, 8), circle),
        metadata=ActionMetadata(has_boundary=has_boundary, expected_sector_angle=None),
    )


def test_a_whole_factor_outside_the_generators_span_is_found():
    # On R^4 = H every orbit is a 3-sphere, so the whole commutant Sp(1)
    # (right multiplication) maps every orbit to itself; V/G is a ray.
    action = _left_unit_quaternions(1, has_boundary=True)
    rep = quotient_isometry_group(action).report
    assert rep["compactFactors"] == [
        {"name": "Sp(1)/whole-factor", "type": "Quaternionic", "multiplicity": 1}]
    assert (rep["kernel"]["finiteOrder"], rep["kernel"]["circleDirections"]) == (1, 0)
    assert rep["rank"] == 0
    assert rep["notes"]["quotientDescription"] == "trivial"


def test_a_boundary_free_kernel_may_have_a_finite_center():
    # SU(2) on H^2 = R^8: V/G is the cone over the quaternionic projective
    # line S^4, with no boundary. The commutant is Sp(2) acting on the
    # right, and the kernel is the center {±I} of the image, so the
    # quotient group is Sp(2)/{±I} = SO(5) = Isom(S^4)_0.
    rep = quotient_isometry_group(_left_unit_quaternions(2, has_boundary=False)).report
    assert rep["compactFactors"] == [
        {"name": "Sp(2)/{±I}", "type": "Quaternionic", "multiplicity": 2}]
    assert (rep["kernel"]["finiteOrder"], rep["kernel"]["circleDirections"]) == (2, 0)
    assert rep["formulaApplied"] == "proposition-4.1b"
    assert rep["notes"]["quotientDescription"] == "Sp(2)/{±I}"


def test_an_unconverged_ascent_in_the_kernel_search_names_its_stage(monkeypatch):
    # SU(2) on H^2 decides its -I block by an orbit test, whose distances
    # run the Newton ascent; one that does not converge is refused.
    stall_newton_ascent(monkeypatch, converged=False)
    with pytest.raises(AmbiguityError, match="did not converge") as err:
        quotient_isometry_group(_left_unit_quaternions(2, has_boundary=False))
    assert err.value.stage == "kernel"


def test_a_circle_on_c3_quotients_u3_by_its_center():
    # The diagonal circle J + J + J on C^3 commutes with U(3) and is its
    # center circle, so the kernel is that circle: U(3)/center = PSU(3).
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    action = CatalogAction(
        id="u1-diagonal-c3", generators=(scipy.linalg.block_diag(j, j, j),),
        axes=(ParamAxis(2.0 * math.pi, True, 1.0, 16),),
        metadata=ActionMetadata(has_boundary=False, expected_sector_angle=None),
    )
    rep = quotient_isometry_group(action).report
    assert rep["compactFactors"] == [
        {"name": "U(3)/center", "type": "Complex", "multiplicity": 3}]
    assert (rep["kernel"]["finiteOrder"], rep["kernel"]["circleDirections"]) == (1, 1)
    assert rep["rank"] == 2
    assert rep["notes"]["quotientDescription"] == "PSU(3)"


def test_a_kernel_the_report_cannot_express_is_ambiguous():
    # T^2 on C^3 with weights (1, 0), (0, 1), (1, 1): three distinct
    # characters, so H = U(1)^3, and the kernel is the 2-dimensional image
    # of T^2, a diagonal subtorus that contains no factor's circle.
    j, z = np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))
    x1 = scipy.linalg.block_diag(j, z, j)
    x2 = scipy.linalg.block_diag(z, j, j)
    axis = ParamAxis(2.0 * math.pi, True, 1.0, 16)
    action = CatalogAction(
        id="t2-weights-c3", generators=(x1, x2), axes=(axis, axis),
        metadata=ActionMetadata(has_boundary=True, expected_sector_angle=None),
    )
    with pytest.raises(KernelAmbiguityError, match="beyond whole factors") as err:
        quotient_isometry_group(action)
    assert err.value.stage == "kernel"


def test_a_central_direction_outside_the_kernel_algebra_is_an_internal_error(monkeypatch):
    # diag(J, 0) lies in Lie H = u(2) of the Hopf action but moves orbits.
    hopf = get_action("hopf-u1-r4")
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    wrong = scipy.linalg.block_diag(j, np.zeros((2, 2)))[None] / math.sqrt(2.0)
    monkeypatch.setattr(CatalogAction, "central_directions", lambda self: wrong)
    with pytest.raises(InternalCheckError, match="outside the computed kernel algebra"):
        quotient_isometry_group(dataclasses.replace(hopf, id="hopf-wrong-center"))


@pytest.mark.parametrize("edit", [
    {"center_circle_index": 1},   # index 1 of U(2) lies in su(2), not the center
    {"parts": (isom_quotient.WHOLE,)},
])
def test_boundary_free_kernel_check_rejects_more_than_the_central_circles(edit, memo):
    result = memo.analysis("catalog:hopf-u1-r4")
    isom_quotient._assert_boundary_free_kernel(result.kernel, result.context, result.equiv)
    bad = with_kernel_edit(result, **edit)
    with pytest.raises(InternalCheckError):
        isom_quotient._assert_boundary_free_kernel(bad.kernel, bad.context, bad.equiv)


def _loaded_after(code, module):
    """Whether ``module`` is in sys.modules after ``code`` runs in a fresh
    interpreter."""
    src = str(Path(orbit_isom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}print({module!r} in sys.modules)\n"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip() == "True"


def test_analyses_without_refinement_leave_scipy_optimize_unloaded():
    assert not _loaded_after(
        "import orbit_isom\n"
        "from orbit_isom.fixtures import fixture_document\n"
        "from orbit_isom.isom_quotient import quotient_isometry_group\n"
        "quotient_isometry_group('catalog:so2-tensor-so3-r6')\n"
        "quotient_isometry_group(fixture_document('q8'))\n",
        "scipy.optimize")


def test_refinements_leave_scipy_unloaded():
    assert not _loaded_after(
        "import numpy as np\n"
        "from orbit_isom import lift_verify, orbit_geometry as og\n"
        "from orbit_isom.catalog import get_action\n"
        "r6 = get_action('so2-tensor-so3-r6')\n"
        "og.sector_angle_estimate(get_action('so2xso3-r5'), 50, 0)\n"
        "x, y = np.random.default_rng(0).standard_normal((2, 6))\n"
        "og.quotient_distance(og.QuotientPoint(x, r6), og.QuotientPoint(y, r6))\n"
        "lift = lift_verify.lift_rotation(np.diag([1.0, -1.0, -1.0])).lift\n"
        "lift_verify.descend_check(lift, get_action('hopf-u1-r4'), 3, 0)\n"
        "assert og.orbit_equivalence_test(r6, np.eye(6), 3, 0)\n",
        "scipy")


def test_catalog_action_with_invariant_vectors_names_its_stage():
    with pytest.raises(InternalCheckError) as err:
        quotient_isometry_group(trivial_action(3))
    assert err.value.stage == "trivial-split"


def test_unknown_catalog_id_rejected():
    with pytest.raises(ValidationError):
        quotient_isometry_group("catalog:no-such-action")
