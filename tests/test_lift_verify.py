import math

import numpy as np
import pytest

from orbit_isom import _numerics as num
from orbit_isom.catalog import get_action
from orbit_isom.commutant import sample_equivariant_isometry
from orbit_isom.errors import ValidationError
from orbit_isom.lift_verify import (
    descend_check,
    hopf_map,
    lift_rotation,
    non_lift_demo,
    normalizer_check,
    quat_mul,
    quat_to_rotation,
    rotation_to_quat,
    verify_hopf_metric,
)


def random_rotation(rng):
    return quat_to_rotation(num.random_unit_vector(rng, 4))


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


def test_quat_mul_norm_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        lhs = np.linalg.norm(quat_mul(p, q))
        rhs = np.linalg.norm(p) * np.linalg.norm(q)
        assert abs(lhs - rhs) < 1e-10


def test_quat_rotation_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        u = num.random_unit_vector(rng, 4)
        r = quat_to_rotation(u)
        assert num.orthogonality_residual(r) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        v = rotation_to_quat(r)
        assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-9


def test_rotation_to_quat_near_trace_minus_one():
    # rotation by pi has trace -1; the extraction branch must stay stable
    r = quat_to_rotation(np.array([0.0, 1.0, 0.0, 0.0]))
    v = rotation_to_quat(r)
    assert num.max_abs(quat_to_rotation(v) - r) < 1e-10


def test_lift_residuals_small():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = lift_rotation(random_rotation(rng), seed=0)
        assert w.residual <= 1e-8
        assert num.orthogonality_residual(w.lift) < 1e-9


def test_lift_residual_matches_a_per_sample_loop():
    # the batch reads the stream of sample_count single draws, in order
    rng = np.random.default_rng(15)
    for seed in (0, 1, 2):
        r = random_rotation(rng)
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
        r1, r2 = random_rotation(rng), random_rotation(rng)
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


def test_non_lift_demo_text():
    text = non_lift_demo("so2xso3-r5", sample_count=500, seed=0)
    assert "sector angle estimate" in text
    assert "1.570" in text
    with pytest.raises(ValidationError):
        non_lift_demo("hopf-u1-r4")


@pytest.mark.parametrize("sample_count, seed", [(0, 0), (10, -1)])
def test_lift_rotation_rejects_bad_sampling(sample_count, seed):
    # no samples would report a residual of 0.0, a vacuous pass
    with pytest.raises(ValidationError):
        lift_rotation(np.eye(3), sample_count=sample_count, seed=seed)


@pytest.mark.parametrize("sample_count, seed", [(0, 0), (3, -1)])
def test_descend_check_rejects_bad_sampling(sample_count, seed):
    with pytest.raises(ValidationError):
        descend_check(np.eye(4), get_action("hopf-u1-r4"), sample_count, seed)


@pytest.mark.parametrize("sample_count, seed", [(0, 0), (10, -1)])
def test_verify_hopf_metric_rejects_bad_sampling(sample_count, seed):
    with pytest.raises(ValidationError):
        verify_hopf_metric(sample_count, seed)


def test_orthogonality_residual_is_infinite_off_the_finite_matrices():
    assert num.orthogonality_residual(np.full((3, 3), np.nan)) == math.inf
    assert num.orthogonality_residual(np.diag([1.0, np.inf])) == math.inf
    assert num.orthogonality_residual(np.eye(3)) == 0.0


def test_lift_rotation_rejects_nan():
    with pytest.raises(ValidationError, match="orthogonal"):
        lift_rotation(np.full((3, 3), np.nan))


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
