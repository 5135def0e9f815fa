import math

import numpy as np
import pytest
import scipy.linalg

from conftest import rot2
from orbit_isom import _numerics as num
from orbit_isom import commutant
from orbit_isom.catalog import CATALOG
from orbit_isom.commutant import (
    ComponentSubspace,
    classify_component,
    commutant_basis,
    commutant_center,
    isotypic_split,
    sample_equivariant_isometry,
)
from orbit_isom.errors import TypeInconsistencyError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.repr_model import enumerate_group, parse_spec
from orbit_isom.verification import indicator_sums

# dim of the commutant algebra on the full representation space,
# checked against sum n_i^2 t_i + (fixed dim)^2 by hand
COMMUTANT_DIMS = {
    "c5": 2, "d4": 1, "q8": 4, "pm1-r4": 16, "pm1-r3": 9,
    "c3-fix": 3, "trivial-r3": 9, "c3xd4-r4": 3,
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_commutant_dimension(name, finite_group):
    group = finite_group(name)
    basis = commutant_basis(group.generators)
    assert len(basis) == COMMUTANT_DIMS[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_commutant_elements_commute(name, finite_group):
    group = finite_group(name)
    for a in commutant_basis(group.generators):
        for g in group.elements:
            assert num.max_abs(a @ g - g @ a) < 1e-10


def test_commutant_basis_orthonormal(finite_group):
    basis = commutant_basis(finite_group("q8").generators)
    gram = np.einsum("aij,bij->ab", basis, basis)
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)


def test_commutant_center_of_q8_is_scalars():
    # commutant of Q8 left multiplication is the right-multiplication
    # quaternion algebra; its center is the scalars
    group = enumerate_group(parse_spec(fixture_document("q8")))
    basis = commutant_basis(group.generators)
    center = commutant_center(group.generators, basis)
    assert len(center) == 1
    c = center[0]
    assert num.max_abs(c - c[0, 0] * np.eye(4)) < 1e-10


# (component count, multiplicities) after splitting the commutant over
# the moving part of the representation
SPLIT_SHAPE = {
    "c5": (1, [1]), "d4": (1, [1]), "q8": (1, [1]),
    "pm1-r4": (1, [4]), "pm1-r3": (1, [3]), "c3-fix": (1, [1]),
    "c3xd4-r4": (2, [1, 1]),
}

# the group average (1/|G|) sum trace(P g^2 P) per component, normalized
# to n*nu (the raw sum is -2n for a quaternionic component)
FS_SUMS = {
    "c5": [0.0], "d4": [1.0], "q8": [-1.0],
    "pm1-r4": [4.0], "pm1-r3": [3.0], "c3-fix": [0.0],
    "c3xd4-r4": [0.0, 1.0],
}

SCHUR_TYPES = {
    "c5": ["Complex"], "d4": ["Real"], "q8": ["Quaternionic"],
    "pm1-r4": ["Real"], "pm1-r3": ["Real"], "c3-fix": ["Complex"],
    "c3xd4-r4": ["Complex", "Real"],
}


@pytest.mark.parametrize("name", sorted(SPLIT_SHAPE))
def test_isotypic_components(name, memo):
    result = memo.analysis(name)
    comps = result.equiv.components
    count, mults = SPLIT_SHAPE[name]
    assert len(comps) == count
    assert [c.multiplicity for c in comps] == mults
    assert [c.schur_type for c in comps] == SCHUR_TYPES[name]
    sums = indicator_sums(result)
    assert len(sums) == count
    for c, raw, want in zip(comps, sums, FS_SUMS[name]):
        scale = 2.0 if c.schur_type == "Quaternionic" else 1.0
        assert abs(raw / scale - want) < 1e-6


def test_two_isotypic_components_read_as_one_raise(finite_group):
    # The block algebra of the whole R^4 of c3xd4-r4 is R + C: c = 3 with one
    # skew element, so t = 1 reads Real n = 1, which needs c = 1.
    group = finite_group("c3xd4-r4")
    commutant = commutant_basis(group.generators)
    with pytest.raises(TypeInconsistencyError, match=r"dim 3 with 1 skew.*Real\(1\)"):
        classify_component(ComponentSubspace(basis=np.eye(4), circle=None), commutant)


@pytest.mark.parametrize("name, circle, match", [
    # c5 rotates R^2 by 2 pi / 5: Complex, its circle the rotation generator.
    ("c5", None, r"Complex\(1\).*no circle"),
    ("d4", np.array([[0.0, -1.0], [1.0, 0.0]]) / math.sqrt(2.0), r"Real\(1\).*a circle"),
], ids=["c5-without", "d4-with"])
def test_a_circle_on_exactly_the_complex_components(name, circle, match, finite_group):
    commutant = commutant_basis(finite_group(name).generators)
    with pytest.raises(TypeInconsistencyError, match=match):
        classify_component(ComponentSubspace(basis=np.eye(2), circle=circle), commutant)


@pytest.mark.parametrize("label", [n for n in FIXTURE_NAMES if n != "trivial-r3"]
                         + [f"catalog:{a}" for a in CATALOG])
def test_the_circle_of_a_complex_component_is_its_unit_complex_scalar(label, memo):
    # J is the unit complex scalar of W scaled to Frobenius norm 1, so that
    # J^2 = -P / dim W; every other component has no circle.
    result = memo.analysis(label)
    for comp in result.equiv.components:
        j = comp.circle
        if comp.schur_type != "Complex":
            assert j is None
            continue
        assert num.max_abs(j + j.T) <= 1e-12
        assert num.max_abs(j @ j + comp.projector / comp.dimension) <= 1e-12
        for g in result.context.generators:
            assert num.max_abs(j @ g - g @ j) <= 1e-12


def test_the_hopf_circle_is_the_diagonal_complex_structure(memo):
    (comp,) = memo.analysis("catalog:hopf-u1-r4").equiv.components
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.kron(np.eye(2), j2) / 2.0
    assert min(num.max_abs(comp.circle - want), num.max_abs(comp.circle + want)) <= 1e-14


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_QI = np.kron(np.eye(2), _J2)
_QJ = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
# K = R, C, H as real matrices: left multiplication by 1 (and i, j, k) on K.
_UNITS = {
    "Real": [np.eye(1)],
    "Complex": [np.eye(2), _J2],
    "Quaternionic": [np.eye(4), _QI, _QJ, _QI @ _QJ],
}


def _span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of a (k, N, N) stack."""
    flat = stack.reshape(len(stack), -1)
    _, s, vt = np.linalg.svd(flat, full_matrices=False)
    return vt[s > 1e-10].reshape((-1,) + stack.shape[1:])


def _null_space(columns: np.ndarray) -> np.ndarray:
    """Rows spanning the null space of a matrix with no more columns than
    rows."""
    _, s, vt = np.linalg.svd(columns, full_matrices=False)
    return vt[np.sum(s > 1e-10):]


def _brackets(skew: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Columns vec([S_a, x]) over the basis S_a."""
    return (skew @ x - x @ skew).reshape(len(skew), x.size).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["Real", "Complex", "Quaternionic"])
def test_the_schur_type_table_matches_the_explicit_algebra(name, n):
    # E = M_n(K) inside M_{n dim K}(R), spanned by E_ab (x) u over the units
    # u of K; its factor is the group exp Skew(E).
    kind = commutant.SCHUR_TYPES[name]
    cells = np.eye(n * n).reshape(n * n, n, n)
    e = _span(np.array([np.kron(cell, u) for cell in cells for u in _UNITS[name]]))
    skew = _span(e - e.transpose(0, 2, 1))
    c, k, size = len(e), len(skew), e.shape[1]
    assert kind.name == name
    assert c == kind.weight * n * n
    assert k == kind.dim(n)
    assert c - 2 * k == kind.indicator * n

    # The centralizer of a generic element of Skew(E) is a Cartan subalgebra.
    x = np.tensordot(np.random.default_rng([n, c]).standard_normal(k), skew, axes=1)
    assert len(_null_space(_brackets(skew, x))) == kind.rank(n)
    center = _null_space(np.concatenate([_brackets(skew, a) for a in skew])
                         if k else np.zeros((1, 0)))
    assert (len(center) > 0) == kind.has_circle(n)

    # -I lies in the factor when a generic x is invertible: exp(pi x / |x|)
    # turns every plane of x by pi. Otherwise size is odd, and the factor,
    # connected, lies in SO(size), which -I does not.
    minus_i = -np.eye(size)
    if np.linalg.svd(x, compute_uv=False).min() > 1e-8:
        w, v = np.linalg.eigh(-x @ x)
        y = np.pi * x @ (v / np.sqrt(w)) @ v.T
        assert num.max_abs(y - np.tensordot(np.einsum("kij,ij->k", skew, y), skew, axes=1)) < 1e-10
        assert num.max_abs(scipy.linalg.expm(y) - minus_i) < 1e-10
        contains = True
    else:
        assert size % 2 == 1
        contains = False
    assert contains == kind.contains_minus_i(n)

    # The center circle, where there is one, is exp(t J) with J^2 scalar,
    # and passes through -I at t = pi / |J|.
    on_circle = False
    if len(center):
        (coeff,) = center
        j = np.tensordot(coeff, skew, axes=1)
        w = np.linalg.eigvalsh(-j @ j)
        assert w.max() - w.min() < 1e-10
        assert num.max_abs(scipy.linalg.expm(np.pi * j / np.sqrt(w[0])) - minus_i) < 1e-10
        on_circle = True
    assert (contains and not on_circle) == kind.minus_i_discrete(n)


def test_isotypic_split_bases_span_space(finite_group):
    group = finite_group("c3xd4-r4")
    basis = commutant_basis(group.generators)
    parts = isotypic_split(basis, group.generators, seed=0)
    total = sum(p.dimension for p in parts)
    assert total == 4
    stacked = np.hstack([p.basis for p in parts])
    assert np.allclose(stacked.T @ stacked, np.eye(4), atol=1e-10)


def test_isotypic_projectors_commute_with_group(finite_group):
    group = finite_group("c3xd4-r4")
    basis = commutant_basis(group.generators)
    for part in isotypic_split(basis, group.generators, seed=0):
        proj = part.projector
        for g in group.elements:
            assert num.max_abs(proj @ g - g @ proj) < 1e-9


def test_expm_matches_rotation():
    theta = 0.7318
    gen = np.array([[0.0, -theta], [theta, 0.0]])
    assert num.max_abs(num.expm(gen) - rot2(theta)) < 1e-14


@pytest.mark.parametrize("weights", [(1.0, 2.0), (2.0 * np.pi, 1.0), (2.0 * np.pi, 0.0)])
def test_expm_matches_exact_rotation_blocks(weights):
    # Norms up to 14, and 2 pi, where exp(X) is the identity on a plane.
    w1, w2 = weights
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    for t in np.linspace(0.0, 14.0 / max(weights), 701):
        gen = np.zeros((5, 5))
        gen[:2, :2], gen[2:4, 2:4] = t * w1 * j, t * w2 * j
        want = np.eye(5)
        want[:2, :2], want[2:4, 2:4] = rot2(t * w1), rot2(t * w2)
        assert num.max_abs(num.expm(gen) - want) <= 1e-15


def test_expm_orthogonal_on_random_skew():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        s = a - a.T
        e = num.expm(s)
        assert num.orthogonality_residual(e) < 1e-12
        assert num.max_abs(e @ num.expm(-s) - np.eye(5)) < 1e-12


@pytest.mark.parametrize("name", ["c5", "q8", "pm1-r4", "c3xd4-r4"])
def test_sampled_isometry_is_equivariant(name, memo, finite_group):
    result = memo.analysis(name)
    x = sample_equivariant_isometry(result.equiv, 0.8, seed=11)
    assert num.orthogonality_residual(x) < 1e-9
    for g in result.context.generators:
        assert num.max_abs(x @ g - g @ x) < 1e-9


def test_sampled_isometry_deterministic(memo):
    equiv = memo.analysis("q8").equiv
    a = sample_equivariant_isometry(equiv, 0.5, seed=3)
    b = sample_equivariant_isometry(equiv, 0.5, seed=3)
    c = sample_equivariant_isometry(equiv, 0.5, seed=4)
    assert np.array_equal(a, b)
    assert num.max_abs(a - c) > 1e-3


def test_sampled_isometry_zero_time_is_identity(memo):
    equiv = memo.analysis("q8").equiv
    x = sample_equivariant_isometry(equiv, 0.0, seed=3)
    assert num.max_abs(x - np.eye(4)) < 1e-12


@pytest.mark.parametrize("name", ["c5", "d4", "q8", "c3xd4-r4"])
def test_lie_basis_skew_and_orthonormal(name, memo):
    equiv = memo.analysis(name).equiv
    basis = equiv.lie_basis
    assert basis.shape[0] == equiv.dimension
    for a in basis:
        assert num.max_abs(a + a.T) < 1e-12
    if len(basis):
        gram = np.einsum("aij,bij->ab", basis, basis)
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)
