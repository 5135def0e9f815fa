import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_weights, in_random_basis, rot2, signed_permutations, spec_of
from orbit_isom import _numerics as num
from orbit_isom import repr_model
from orbit_isom.errors import DedupAmbiguityError, GroupSizeCapError, ValidationError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.isom_quotient import center_of_group
from orbit_isom.lift_verify import descend_check
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


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_entries(entry):
    # NaN compares false, so the orthogonality residual alone lets it
    # through, and the enumeration then asks for gigabytes.
    doc = {"dimension": 2, "generators": [[[entry, "0"], ["0", "1"]]]}
    with pytest.raises(ValidationError, match="not finite"):
        parse_spec(doc)


@pytest.mark.parametrize("tolerance", ["NaN", "Infinity"])
def test_parse_rejects_a_non_finite_tolerance(tolerance):
    text = json.dumps(fixture_document("c5"))[:-1] + f', "tolerance": {tolerance}}}'
    with pytest.raises(ValidationError, match="tolerance"):
        parse_spec(text)


def test_parse_rejects_a_seed_field():
    # The seed comes from the caller, never from the spec.
    doc = fixture_document("c5")
    doc["seed"] = 3
    with pytest.raises(ValidationError, match=r"unknown spec fields: \['seed'\]"):
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


def test_dedup_ambiguity_between_a_generator_and_a_coset_element():
    # D4 = <swap, flip> stores swap flip inside the coset {I, swap} flip,
    # and a head is never compared with the rest of its coset; a third
    # generator 3e-8 from swap flip is a head, looked up and ambiguous
    swap, flip = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([-1.0, 1.0])
    near = swap @ flip @ rot2(3e-8)
    with pytest.raises(DedupAmbiguityError, match=r"3\.000e-08"):
        enumerate_group(spec_of([swap, flip, near], 2))


def test_from_elements_rejects_a_repeated_element():
    a = np.diag([1.0, -1.0])
    with pytest.raises(DedupAmbiguityError, match="repeated element"):
        FiniteGroupData.from_elements([np.eye(2), a, a.copy()])


def test_from_elements_without_generators_is_generated_by_its_elements(finite_group):
    # With no generators listed, every element of D4 would pass as central.
    d4 = finite_group("d4")
    bare = FiniteGroupData.from_elements(d4.elements)
    assert len(bare.generators) == d4.order
    assert len(center_of_group(bare)) == len(center_of_group(d4)) == 2


@pytest.mark.parametrize("generators", [(), [rot2(0.3)], [np.eye(3)]],
                         ids=["empty", "not-an-element", "wrong-shape"])
def test_from_elements_rejects_generators_that_do_not_generate_it(finite_group, generators):
    # An empty list would leave every element of D4 central and let any
    # rotation pass as equivariant.
    with pytest.raises(ValidationError, match="generator"):
        FiniteGroupData.from_elements(finite_group("d4").elements, generators=generators)


def test_from_elements_without_generators_rejects_a_non_equivariant_rotation(finite_group):
    bare = FiniteGroupData.from_elements(finite_group("d4").elements)
    with pytest.raises(ValidationError, match="requires an equivariant isometry"):
        descend_check(rot2(0.3), bare, 100, 0)


def test_dedup_ambiguity_between_a_product_and_a_stored_element():
    # g = R(2 pi / 3 + 1e-8): the product g^2 g = R(2 pi + 3e-8) lands 3e-8
    # from the stored identity, inside (tol, 10*tol]
    with pytest.raises(DedupAmbiguityError, match=r"3\.000e-08"):
        enumerate_group(spec_of([rot2(2.0 * math.pi / 3.0 + 1e-8)], 2))


@pytest.mark.parametrize(
    "generators",
    [[rot2(2.0 * math.pi / n)] for n in (64, 127, 128, 129)] + [signed_permutations(5)],
    ids=["C64", "C127", "C128", "C129", "B5"])
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


def _member(elements, mat):
    """Whether mat matches a stored element, compared with every one."""
    return np.abs(np.array(elements) - mat).max(axis=(1, 2)).min() <= DEDUP_TOL


def naive_closure(generators):
    """Sequential BFS; each product is compared with every stored element."""
    elements = [np.eye(len(generators[0]))]
    head = 0
    while head < len(elements):
        current = elements[head]
        head += 1
        for g in generators:
            prod = current @ g
            if not _member(elements, prod):
                elements.append(prod)
    return np.array(elements)


def naive_coset_closure(generators):
    """Sequential Dimino closure forming the words of ``enumerate_group`` in
    its order; each one is compared with every stored element."""
    elements = [np.eye(len(generators[0]))]
    for i, g in enumerate(generators):
        if len(elements) == 1:
            # powers by doubling: the block P g^m, with g^m = g^(m-1) g
            known = False
            while not known:
                powers = list(elements)
                step = powers[-1] @ g
                for p in powers:
                    x = p @ step
                    known = _member(elements, x)
                    if known:
                        break
                    elements.append(x)
        else:
            subgroup = list(elements)
            reps = [subgroup[0]]
            for r in reps:  # grows while it is iterated: a FIFO queue
                for s in generators[:i + 1]:
                    x = r @ s
                    if not _member(elements, x):
                        elements.extend(h @ x for h in subgroup)
                        reps.append(x)
    return np.array(elements)


# The largest distance from a naive BFS element to its enumerated match was
# 22.5 eps over 1,900 random cases of CLOSURE_CASES and 300 of C128 and C129
# (the words differ, so their roundoff does).
BFS_MATCH_BOUND = 32 * np.finfo(float).eps


# Past this order the BFS closure, which compares every product with every
# stored element, takes seconds; closure under the generators stands in.
BFS_MAX_ORDER = 400


def assert_matches_the_naive_closures(group, generators):
    """Same words in the same order as the naive coset closure, and the same
    set as the naive BFS closure: each BFS element matches exactly one
    enumerated element. Past BFS_MAX_ORDER, the elements are closed under
    right multiplication by the generators instead: with the identity they
    then hold the group, and ``seal`` has checked that they are distinct."""
    naive = naive_coset_closure(generators)
    assert group.elements.shape == naive.shape
    assert np.abs(group.elements - naive).max() <= 4 * np.finfo(float).eps
    if group.order > BFS_MAX_ORDER:
        for g in generators:
            assert np.all(group.lookup(group.elements @ g) >= 0)
        return
    bfs = naive_closure(generators)
    assert len(bfs) == group.order
    dist = np.abs(bfs[:, None] - group.elements[None]).max(axis=(2, 3))
    assert np.all(np.count_nonzero(dist <= DEDUP_TOL, axis=1) == 1)
    assert dist.min(axis=1).max() <= BFS_MATCH_BOUND


CLOSURE_CASES = {
    **{name: parse_spec(fixture_document(name)).generators for name in FIXTURE_NAMES},
    **{f"C{n}": [cyclic_weights(n, (1, 2))] for n in (2, 5, 12, 24)},
    "B3": signed_permutations(3),
    "B4": signed_permutations(4),
    "B5": signed_permutations(5),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_CASES)), st.integers(0, 2**32 - 1))
def test_enumeration_matches_a_naive_closure_in_a_random_basis(name, seed):
    generators = in_random_basis(CLOSURE_CASES[name], seed)
    spec = spec_of(generators, len(generators[0]))
    assert_matches_the_naive_closures(enumerate_group(spec), spec.generators)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 127, 128, 129])
def test_cyclic_enumeration_matches_the_naive_closures(n):
    # the doubling stops inside a block (127, 129), at a block's end (128)
    # and at once for the identity generator (1)
    g = np.eye(4) if n == 1 else cyclic_weights(n, (1, 2))
    spec = spec_of(in_random_basis([g], n), 4)
    group = enumerate_group(spec)
    assert group.order == n
    assert_matches_the_naive_closures(group, spec.generators)


def test_candidates_of_one_batch_that_share_a_coset(monkeypatch):
    # B3 = <s, c, c^2, f>: in the last stage, the products of one batch of
    # representatives with s, c and the redundant c^2 include several heads
    # of one new coset, and only the first may bring it
    s, c, f = signed_permutations(3)
    generators = in_random_basis([s, c, c @ c, f], 8)
    dropped = []
    first_blocks = repr_model._KeyIndex.first_blocks

    def spy(self, *args):
        first = first_blocks(self, *args)
        dropped.append(np.count_nonzero(~first))
        return first

    monkeypatch.setattr(repr_model._KeyIndex, "first_blocks", spy)
    spec = spec_of(generators, 3)
    group = enumerate_group(spec)
    assert group.order == 48 and sum(dropped) > 0
    assert_matches_the_naive_closures(group, spec.generators)


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_enumeration_does_not_depend_on_the_batch_size(batch, monkeypatch):
    # small batches split the candidates of one batch of representatives
    # into several chunks, whose heads are then looked up again
    spec = spec_of(in_random_basis(signed_permutations(4), 9), 4)
    reference = enumerate_group(spec)
    monkeypatch.setattr(repr_model, "_BATCH", batch)
    group = enumerate_group(spec)
    assert group.elements.shape == reference.elements.shape
    assert np.abs(group.elements - reference.elements).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("redundant", ["power", "repeat", "identity"])
def test_redundant_generators_give_the_same_elements(redundant):
    g, h = in_random_basis([cyclic_weights(6, (1,)), np.diag([1.0, -1.0])], 3)
    generators = {"power": [g, g @ g, h], "repeat": [g, h, g],
                  "identity": [np.eye(2), g, np.eye(2), h]}[redundant]
    reference = enumerate_group(spec_of([g, h], 2))
    group = enumerate_group(spec_of(generators, 2))
    assert group.order == reference.order == 12
    assert np.array_equal(group.elements[0], np.eye(2))
    found = reference.lookup(group.elements)
    assert np.array_equal(np.sort(found), np.arange(12))


def test_an_infinite_order_rotation_reaches_the_cap():
    with pytest.raises(GroupSizeCapError):
        enumerate_group(spec_of([rot2(1.0)], 2))


@pytest.mark.parametrize("reserve", ["from the cap", "none"])
def test_enumeration_leaves_no_index_slack(reserve, monkeypatch):
    # the index reserves groupSizeCap rows, or grows from one row when the
    # reservation is over its byte budget; either way the elements end in a
    # buffer of exactly the group's order
    if reserve == "none":
        monkeypatch.setattr(repr_model, "_RESERVE_BYTES", 0)
    for spec in (spec_of(signed_permutations(5), 5, groupSizeCap=3840),
                 parse_spec(fixture_document("c3xd4-r4"))):
        group = enumerate_group(spec)
        assert group.elements.nbytes == group.order * 8 * spec.dimension**2
        assert group.elements.base.nbytes == group.elements.nbytes


def test_the_drift_of_an_involution_is_quoted():
    # g^T g - I has off-diagonal entries 5e-7: inside the spec's tolerance,
    # so g parses, but past DEDUP_TOL once enumerated
    g = np.array([[1.0, 5e-7], [0.0, -1.0]])
    with pytest.raises(ValidationError, match=r"drifted from orthogonality: 5\.000e-07"):
        enumerate_group(spec_of([g], 2, tolerance=1e-6))


def _exact_drift(elements):
    gram = np.matmul(elements.transpose(0, 2, 1), elements)
    return np.abs(gram - np.eye(elements.shape[1])).max()


def _skewed_b3(eps):
    """B3 in a random basis conjugated by the non-orthogonal P = I + eps N:
    still a group of order 48, whose elements drift by about 4 eps."""
    p = np.eye(3) + eps * np.random.default_rng(0).standard_normal((3, 3))
    return [p @ g @ np.linalg.inv(p) for g in in_random_basis(signed_permutations(3), 2)]


def _record_drift_blocks(monkeypatch):
    """The block size of every drift evaluation: heads and steps come one
    matrix to a block, the exact check of a coset all its matrices."""
    sizes = []
    drift = repr_model._drift

    def spy(blocks):
        sizes.append(blocks.shape[1])
        return drift(blocks)

    monkeypatch.setattr(repr_model, "_drift", spy)
    return sizes


def test_an_orthogonal_group_stays_under_the_drift_bound(monkeypatch):
    sizes = _record_drift_blocks(monkeypatch)
    assert enumerate_group(spec_of(_skewed_b3(0.0), 3)).order == 48
    assert max(sizes) == 1


def test_a_coset_over_the_drift_bound_gets_the_exact_check(monkeypatch):
    # every element drifts by about 4e-9, so a coset's bound, at least
    # (1 + d) times that, exceeds DEDUP_TOL while no element does
    spec = spec_of(_skewed_b3(1e-9), 3, tolerance=1e-6)
    assert _exact_drift(naive_coset_closure(spec.generators)) < DEDUP_TOL
    sizes = _record_drift_blocks(monkeypatch)
    assert enumerate_group(spec).order == 48
    assert max(sizes) > 1


def test_the_drift_check_quotes_the_largest_exact_drift():
    spec = spec_of(_skewed_b3(5e-9), 3, tolerance=1e-6)
    worst = _exact_drift(naive_coset_closure(spec.generators))
    with pytest.raises(ValidationError, match="drifted from orthogonality") as err:
        enumerate_group(spec)
    quoted = float(re.search(r"orthogonality: (\S+) >", str(err.value)).group(1))
    assert quoted == pytest.approx(worst, rel=1e-3)


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
