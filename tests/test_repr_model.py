import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_weights, in_random_basis, rot2, signed_permutations, spec_of
from orbit_isom import _numerics as num
from orbit_isom.errors import DedupAmbiguityError, GroupSizeCapError, ValidationError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.repr_model import (
    DEDUP_TOL,
    FiniteGroupData,
    enumerate_group,
    fixed_subspace,
    load_spec,
    parse_spec,
    restrict_group,
)


EXPECTED_ORDERS = {
    "c5": 5, "d4": 8, "q8": 8, "pm1-r4": 2, "pm1-r3": 2,
    "c3-fix": 3, "trivial-r3": 1, "c3xd4-r4": 24,
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_orders(name):
    group = enumerate_group(parse_spec(fixture_document(name)))
    assert group.order == EXPECTED_ORDERS[name]
    # closure: every product of an element with a generator is in the group
    for g in group.generators:
        for e in group.elements:
            assert group.find(e @ g) is not None


def test_parse_rejects_unknown_fields():
    doc = fixture_document("c5")
    doc["extra"] = 1
    with pytest.raises(ValidationError):
        parse_spec(doc)


def test_parse_rejects_non_orthogonal():
    with pytest.raises(ValidationError, match="not orthogonal"):
        spec_of([np.array([[1.0, 1.0], [0.0, 1.0]])], 2)


def test_parse_rejects_bad_entry():
    doc = fixture_document("c5")
    doc["generators"][0][0][0] = "not-a-number"
    with pytest.raises(ValidationError, match="not a decimal"):
        parse_spec(doc)


def test_parse_rejects_malformed_json_text():
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_spec("{nope")


def test_load_spec_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        load_spec("/nonexistent/spec.json")


def test_entries_parse_to_full_precision():
    theta = 2.0 * math.pi / 7.0
    spec = spec_of([rot2(theta)], 2)
    assert np.array_equal(spec.generators[0], rot2(theta))


def test_group_size_cap():
    with pytest.raises(GroupSizeCapError):
        enumerate_group(spec_of([rot2(2.0 * math.pi / 64)], 2, groupSizeCap=32))


def test_dedup_ambiguity_band():
    # two generators that agree to 3e-8: inside (tol, 10*tol], neither
    # identifiable as equal nor safely distinct
    theta = 2.0 * math.pi / 3.0
    with pytest.raises(DedupAmbiguityError):
        enumerate_group(spec_of([rot2(theta), rot2(theta + 3e-8)], 2))


def test_dedup_ambiguity_between_a_product_and_a_stored_element():
    # g = R(2 pi / 3 + 1e-8): the product g^2 g = R(2 pi + 3e-8) lands 3e-8
    # from the stored identity, inside (tol, 10*tol]
    with pytest.raises(DedupAmbiguityError, match=r"3\.000e-08"):
        enumerate_group(spec_of([rot2(2.0 * math.pi / 3.0 + 1e-8)], 2))


@pytest.mark.parametrize("generators", [[rot2(2.0 * math.pi / 64)], signed_permutations(5)],
                         ids=["C64", "B5"])
def test_group_size_cap_admits_exactly_the_order(generators):
    order = enumerate_group(spec_of(generators, len(generators[0]))).order
    assert enumerate_group(spec_of(generators, len(generators[0]),
                                   groupSizeCap=order)).order == order
    with pytest.raises(GroupSizeCapError):
        enumerate_group(spec_of(generators, len(generators[0]), groupSizeCap=order - 1))


def test_from_elements_rejects_a_copy_across_a_rounding_boundary():
    # 7.47e-6 and 7.53e-6 round to different 1e-6 cells, yet sit 6e-8 apart:
    # inside the guard band, so neither equal nor safely distinct
    a = -np.eye(2)
    a[0, 1] = (7 + 0.47) * 1e-6
    copy = a.copy()
    copy[0, 1] += 6e-8
    with pytest.raises(DedupAmbiguityError):
        FiniteGroupData.from_elements([np.eye(2), a, copy])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1e-8, 1e-7), (1e-9, 1e-7 / 6), (1e-9, 1e-9)]))
def test_banded_row_max_decides_like_the_exact_max(seed, band):
    # rows whose entries straddle both bounds, in every proportion: the
    # banded value is exact inside (lo, hi] and on the exact max's side of
    # each bound elsewhere
    lo, hi = band
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((400, 36)) * 10.0 ** rng.uniform(-12, -5, (400, 1))
    rows *= rng.random((400, 36)) < rng.uniform(0.02, 1.0, (400, 1))
    exact = np.abs(rows).max(axis=1)
    got = num.banded_row_max(rows, lo, hi)
    inside = (exact > lo) & (exact <= hi)
    assert np.array_equal(got[inside], exact[inside])
    assert np.array_equal(got <= lo, exact <= lo)
    assert np.array_equal(got <= hi, exact <= hi)


def naive_closure(generators):
    """Sequential BFS; each product is compared with every stored element."""
    elements = [np.eye(len(generators[0]))]
    head = 0
    while head < len(elements):
        current = elements[head]
        head += 1
        for g in generators:
            prod = current @ g
            if np.abs(np.array(elements) - prod).max(axis=(1, 2)).min() > DEDUP_TOL:
                elements.append(prod)
    return np.array(elements)


CLOSURE_CASES = {
    **{name: parse_spec(fixture_document(name)).generators for name in FIXTURE_NAMES},
    **{f"C{n}": [cyclic_weights(n, (1, 2))] for n in (2, 5, 12, 24)},
    "B3": signed_permutations(3),
    "B4": signed_permutations(4),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_CASES)), st.integers(0, 2**32 - 1))
def test_enumeration_matches_a_naive_closure_in_a_random_basis(name, seed):
    generators = in_random_basis(CLOSURE_CASES[name], seed)
    group = enumerate_group(spec_of(generators, len(generators[0])))
    naive = naive_closure(spec_of(generators, len(generators[0])).generators)
    assert group.elements.shape == naive.shape
    assert np.abs(group.elements - naive).max() <= 4 * np.finfo(float).eps


def test_dedup_identifies_drifted_copy():
    theta = 2.0 * math.pi / 3.0
    group = enumerate_group(spec_of([rot2(theta), rot2(theta + 1e-12)], 2))
    assert group.order == 3


def test_fixed_subspace_splits_c3_fix():
    spec = parse_spec(fixture_document("c3-fix"))
    split = fixed_subspace(spec.generators, spec.dimension)
    assert split.fixed_dim == 1
    assert split.complement_dim == 2
    # fixed vector is the rotation axis e3
    v = split.fixed_basis[:, 0]
    assert abs(abs(v[2]) - 1.0) < 1e-12


def test_fixed_subspace_orthogonal_bases():
    spec = parse_spec(fixture_document("c3-fix"))
    split = fixed_subspace(spec.generators, spec.dimension)
    b = np.hstack([split.fixed_basis, split.complement_basis])
    assert np.allclose(b.T @ b, np.eye(3), atol=1e-12)


def test_restrict_group_preserves_order():
    spec = parse_spec(fixture_document("c3-fix"))
    group = enumerate_group(spec)
    split = fixed_subspace(spec.generators, spec.dimension)
    reduced = restrict_group(group, split)
    assert reduced.dimension == 2
    assert reduced.order == 3
    for g in reduced.elements:
        assert np.max(np.abs(g.T @ g - np.eye(2))) < 1e-10


def test_trivial_group_has_full_fixed_space():
    spec = parse_spec(fixture_document("trivial-r3"))
    split = fixed_subspace(spec.generators, spec.dimension)
    assert split.fixed_dim == 3
    assert split.complement_dim == 0


def test_fixture_documents_round_trip_json():
    for name in FIXTURE_NAMES:
        doc = fixture_document(name)
        again = json.loads(json.dumps(doc))
        spec_a = parse_spec(doc)
        spec_b = parse_spec(again)
        assert spec_a.dimension == spec_b.dimension
        for ga, gb in zip(spec_a.generators, spec_b.generators):
            assert np.array_equal(ga, gb)
