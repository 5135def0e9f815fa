import math

import numpy as np
import pytest

from orbit_isom import _numerics as num
from orbit_isom import lift_verify
from orbit_isom.catalog import get_action
from orbit_isom.commutant import sample_equivariant_isometry
from orbit_isom.errors import InternalCheckError, ValidationError
from orbit_isom.fixtures import fixture_document
from orbit_isom.isom_quotient import quotient_isometry_group
from orbit_isom.lift_verify import (
    SO3_BASIS,
    descend_check,
    hopf_map,
    lift_rotation,
    lift_system,
    lifted_algebra,
    normalizer_check,
    rotation_log,
    verify_hopf_metric,
)
from orbit_isom.repr_model import parse_spec

# angles at both ends of the rotation log's two branches
EDGE_ANGLES = (0.0, 1e-14, 1e-10, 1e-6, math.pi / 2, math.pi - 1e-6, math.pi - 1e-10, math.pi)


def so3_exp(w):
    return num.expm(np.tensordot(w, SO3_BASIS, axes=1))


def quaternion_reference(q):
    """(r, R): right multiplication R x = x q on R^4 = H, x = x1 + x2 i +
    x3 j + x4 k, for a unit quaternion q, and the rotation r of the quotient
    sphere it induces, h(R x) = r h(x). r is v -> conj(q) v q on the
    imaginary quaternions, with h's axes in the order (k, j, i)."""
    a, b, c, d = q
    right = np.array([[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]])
    v = q[1:]
    hat = np.cross(v, np.eye(3)).T
    conjugation = (a * a - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) - 2.0 * a * hat
    return conjugation[::-1, ::-1], right


def test_hopf_map_norm_law():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(4)
        n = np.linalg.norm(hopf_map(x))
        assert abs(n - np.dot(x, x) / 2.0) < 1e-12


def test_hopf_map_circle_invariance():
    action = get_action("hopf-u1-r4")
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(4)
        t = rng.uniform(0.0, 2.0 * math.pi)
        y = action.element(np.array([t])) @ x
        assert num.max_abs(hopf_map(y) - hopf_map(x)) < 1e-12


def test_hopf_map_batch_matches_single():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((10, 4))
    batch = hopf_map(pts)
    for i, x in enumerate(pts):
        assert np.array_equal(batch[i], hopf_map(x))


def test_hopf_map_separates_orbits():
    # h is injective on orbits: distinct orbits map to distinct points
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.linalg.norm(hopf_map(a) - hopf_map(b)) > 0.5


@pytest.mark.parametrize("theta", EDGE_ANGLES)
def test_rotation_log_round_trips(theta):
    rng = np.random.default_rng(4)
    for axis in rng.standard_normal((20, 3)):
        w = theta * axis / np.linalg.norm(axis)
        r = so3_exp(w)
        got = rotation_log(r)
        assert np.linalg.norm(got) <= math.pi + 1e-15
        assert num.max_abs(so3_exp(got) - r) <= 1e-14
        if theta < math.pi - 1e-6:
            assert num.max_abs(got - w) <= 1e-14 * max(1.0, theta)


def test_lift_system_null_direction_is_the_reported_kernel_circle():
    # two routes to Lie(ker p): the skew matrices fixing every invariant
    # form, and the kernel circle of the analysis
    so4, system, _ = lift_system()
    s = np.linalg.svd(system, compute_uv=False)
    assert np.sum(s > 1e-12) == 5 and s[-1] <= 1e-14
    null, _ = num.nullspace(system)
    direction = np.tensordot(null[:, 0], so4, axes=1)
    result = quotient_isometry_group("catalog:hopf-u1-r4")
    (index,) = result.kernel.circle_indices(result.equiv.factors)
    circle = result.equiv.lie_basis[index]
    direction /= np.linalg.norm(direction)
    assert min(num.max_abs(direction - circle), num.max_abs(direction + circle)) <= 1e-12


def test_lifted_algebra_commutes_with_the_action_and_preserves_brackets():
    lifted = lifted_algebra()
    (j,) = get_action("hopf-u1-r4").generators
    for a in lifted:
        assert num.max_abs(a + a.T) == 0.0
        assert num.max_abs(a @ j - j @ a) <= 1e-14
    for p in range(3):
        for q in range(3):
            w = SO3_BASIS[p] @ SO3_BASIS[q] - SO3_BASIS[q] @ SO3_BASIS[p]
            bracket = lifted[p] @ lifted[q] - lifted[q] @ lifted[p]
            want = np.tensordot([w[2, 1], w[0, 2], w[1, 0]], lifted, axes=1)
            assert num.max_abs(bracket - want) <= 1e-14


def test_lift_is_right_multiplication_up_to_sign():
    rng = np.random.default_rng(7)
    quats = [num.random_unit_vector(rng, 4) for _ in range(182)]
    for theta in EDGE_ANGLES[:3] + EDGE_ANGLES[-3:]:
        for _ in range(3):
            axis = num.random_unit_vector(rng, 3)
            quats.append(np.concatenate([[math.cos(theta / 2)], math.sin(theta / 2) * axis]))
    for q in quats:
        r, right = quaternion_reference(q)
        x = rng.standard_normal(4)
        assert num.max_abs(hopf_map(right @ x) - r @ hopf_map(x)) <= 1e-14
        w = lift_rotation(r)
        assert w.residual <= 1e-14
        assert min(num.max_abs(w.lift - right), num.max_abs(w.lift + right)) <= 1e-13


def test_a_lift_off_the_commutant_is_an_internal_error(monkeypatch):
    # a rotation of the (x1, x3) plane does not commute with the circle
    so4, _, _ = lift_system()
    broken = lifted_algebra() + so4[1]
    monkeypatch.setattr(lift_verify, "lifted_algebra", lambda: broken)
    with pytest.raises(InternalCheckError, match="commute"):
        lift_rotation(so3_exp(np.array([0.3, -0.2, 0.5])))


@pytest.mark.parametrize("tamper, match", [
    # [M_0, A] is traceless, so no A reaches a target of nonzero trace
    (lambda so4, system, rhs: (so4, system, rhs + np.eye(48, 1, 0) + np.eye(48, 1, -5)),
     "residual"),
    # [M_2, A] = ... alone leaves both planes' rotations free
    (lambda so4, system, rhs: (so4, system[32:], rhs[32:]), "circle"),
], ids=["inconsistent", "null-space-too-large"])
def test_a_broken_lift_system_is_an_internal_error(monkeypatch, tamper, match):
    system = lift_system()
    monkeypatch.setattr(lift_verify, "lift_system", lambda: tamper(*system))
    with pytest.raises(InternalCheckError, match=match):
        lifted_algebra.__wrapped__()


def test_lift_residuals_small():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = lift_rotation(num.random_rotation(rng, 3), seed=0)
        assert w.residual <= 1e-8
        assert num.orthogonality_residual(w.lift) < 1e-9


def test_lift_residual_matches_a_per_sample_loop():
    # the batch reads the stream of sample_count single draws, in order
    rng = np.random.default_rng(15)
    for seed in (0, 1, 2):
        r = num.random_rotation(rng, 3)
        w = lift_rotation(r, seed=seed)
        draws = np.random.default_rng([seed])
        want = 0.0
        for _ in range(100):
            x = num.random_unit_vector(draws, 4)
            want = max(want, float(np.linalg.norm(hopf_map(w.lift @ x) - r @ hopf_map(x))))
        assert abs(w.residual - want) <= 1e-15


def test_lift_rejects_reflection():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationError, match="orientation-reversing"):
        lift_rotation(refl)


def test_lift_double_cover_sign():
    rng = np.random.default_rng(6)
    for _ in range(5):
        r1, r2 = num.random_rotation(rng, 3), num.random_rotation(rng, 3)
        l1 = lift_rotation(r1, seed=0).lift
        l2 = lift_rotation(r2, seed=0).lift
        l12 = lift_rotation(r1 @ r2, seed=0).lift
        gap = min(num.max_abs(l12 - l1 @ l2), num.max_abs(l12 + l1 @ l2))
        assert gap < 1e-8


def test_hopf_metric_residual_frozen():
    r2048 = verify_hopf_metric(100, 0, density=2048)
    r4096 = verify_hopf_metric(100, 0, density=4096)
    r8192 = verify_hopf_metric(100, 0, density=8192)
    assert r4096 <= 1e-3
    assert r2048 < 2e-5
    assert r8192 < r4096 < r2048


def test_descend_finite_rotation(memo):
    result = memo.analysis("c5")
    worst = descend_check(rot2_embedding(0.77), result.context, 50, seed=0)
    assert worst < 1e-12


def rot2_embedding(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_descend_sampled_isometry(memo):
    result = memo.analysis("q8")
    x = sample_equivariant_isometry(result.equiv, 0.9, seed=21)
    assert descend_check(x, result.context, 100, seed=1) < 1e-12


def test_descend_rejects_non_equivariant(memo):
    result = memo.analysis("q8")
    bad = np.eye(4)
    bad = bad[[1, 0, 2, 3]]  # a permutation that does not commute with Q8
    with pytest.raises(ValidationError):
        descend_check(bad, result.context, 10, seed=0)


def test_normalizer_check(finite_group):
    d4 = finite_group("d4")
    assert normalizer_check(d4, d4.elements[1])
    assert not normalizer_check(d4, rot2_embedding(0.3))
    c5 = finite_group("c5")
    # rotations commute, so any rotation normalizes C5
    assert normalizer_check(c5, rot2_embedding(0.3))


@pytest.mark.parametrize("f", [np.eye(3), np.eye(2, 3), np.ones(4)], ids=["3x3", "2x3", "vector"])
def test_normalizer_check_rejects_a_matrix_of_the_wrong_shape(finite_group, f):
    with pytest.raises(ValidationError, match="2x2"):
        normalizer_check(finite_group("c5"), f)


@pytest.mark.parametrize("density", [0, -5])
def test_verify_hopf_metric_rejects_a_density_below_1(density):
    with pytest.raises(ValidationError, match="density"):
        verify_hopf_metric(10, 0, density=density)


@pytest.mark.parametrize("sample_count, seed", [
    (0, 0), (10, -1), (2.5, 0), (10, 1.0), (True, 0), (10, True)])
def test_lift_rotation_rejects_bad_sampling(sample_count, seed):
    # no samples would report a residual of 0.0, a vacuous pass
    with pytest.raises(ValidationError):
        lift_rotation(np.eye(3), sample_count=sample_count, seed=seed)


@pytest.mark.parametrize("sample_count, seed", [
    (0, 0), (3, -1), (2.5, 0), (10, 1.0), (True, 0), (10, True)])
def test_descend_check_rejects_bad_sampling(sample_count, seed):
    with pytest.raises(ValidationError):
        descend_check(np.eye(4), get_action("hopf-u1-r4"), sample_count, seed)


@pytest.mark.parametrize("sample_count, seed", [
    (0, 0), (10, -1), (2.5, 0), (10, 1.0), (True, 0), (10, True)])
def test_verify_hopf_metric_rejects_bad_sampling(sample_count, seed):
    with pytest.raises(ValidationError):
        verify_hopf_metric(sample_count, seed)


def test_orthogonality_residual_is_infinite_off_the_finite_matrices():
    assert num.orthogonality_residual(np.full((3, 3), np.nan)) == math.inf
    assert num.orthogonality_residual(np.diag([1.0, np.inf])) == math.inf
    assert num.orthogonality_residual(np.eye(3)) == 0.0


def test_random_rotation_is_a_rotation():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 5):
        for _ in range(20):
            q = num.random_rotation(rng, dim)
            assert num.orthogonality_residual(q) <= 1e-14
            assert abs(np.linalg.det(q) - 1.0) <= 1e-14


def test_lift_rotation_rejects_nan():
    with pytest.raises(ValidationError, match="orthogonal"):
        lift_rotation(np.full((3, 3), np.nan))


def test_descend_check_rejects_a_wrong_context():
    spec = parse_spec(fixture_document("q8"))
    with pytest.raises(ValidationError, match="descend_check expects a finite group"):
        descend_check(np.eye(4), spec, 5, 0)


@pytest.mark.parametrize("x_iso", [np.eye(3), np.eye(5), np.eye(4)[:, :3]],
                         ids=["3x3", "5x5", "4x3"])
def test_descend_check_rejects_a_wrong_shape(x_iso):
    with pytest.raises(ValidationError, match="4x4"):
        descend_check(x_iso, get_action("hopf-u1-r4"), 5, 0)


@pytest.mark.parametrize("x_iso", [2.0 * np.eye(4), np.full((4, 4), np.nan)],
                         ids=["scaled", "nan"])
def test_descend_check_rejects_a_non_isometry(x_iso):
    # 2I commutes with the circle, so only the isometry check stops it
    with pytest.raises(ValidationError, match="orthogonal"):
        descend_check(x_iso, get_action("hopf-u1-r4"), 5, 0)
