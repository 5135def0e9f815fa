import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rot2, so3_zyz, stall_newton_ascent
from orbit_isom import _numerics as num
from orbit_isom import orbit_geometry
from orbit_isom.catalog import CatalogAction, ParamAxis, _block_diag, get_action, trivial_action
from orbit_isom.errors import KernelAmbiguityError, ValidationError
from orbit_isom.isom_quotient import quotient_isometry_group, report_json
from orbit_isom.orbit_geometry import QuotientPoint, quotient_distance

_J = np.array([[0.0, -1.0], [1.0, 0.0]])

# Each action's elements written out as explicit rotation matrices: rot2,
# Euler-angle rotations of R^3, block sums and Kronecker products.
REFERENCE = {
    "hopf-u1-r4": lambda p: _block_diag(rot2(p[0]), rot2(p[0])),
    "so2xso3-r5": lambda p: _block_diag(rot2(p[0]), so3_zyz(*p[1:])),
    "so2-tensor-so3-r6": lambda p: np.kron(rot2(p[0]), so3_zyz(*p[1:])),
    "trivial-r3": lambda p: np.eye(3),
}


def action_of(action_id):
    return trivial_action(3) if action_id == "trivial-r3" else get_action(action_id)


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def action_and_params(draw, rows=1):
    action_id = draw(st.sampled_from(sorted(REFERENCE)))
    k = len(action_of(action_id).axes)
    params = draw(st.lists(st.lists(angles, min_size=k, max_size=k),
                           min_size=rows, max_size=rows))
    return action_id, np.array(params)


@settings(max_examples=200, deadline=None)
@given(action_and_params())
def test_element_matches_the_explicit_formulas(case):
    action_id, params = case
    got = action_of(action_id).element(params[0])
    assert np.abs(got - REFERENCE[action_id](params[0])).max() <= 1e-14


@settings(max_examples=50, deadline=None)
@given(action_and_params(rows=7))
def test_batched_elements_equal_single_elements(case):
    action_id, params = case
    action = action_of(action_id)
    batch = action.elements(params)
    single = np.stack([action.element(p) for p in params])
    # np.sin/np.cos may round differently from math.sin/math.cos in the
    # last place; everything else is the same arithmetic.
    assert np.abs(batch - single).max() <= 4 * np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(action_and_params(), st.lists(st.floats(-2.0, 2.0, allow_nan=False),
                                     min_size=6, max_size=6))
def test_algebra_derivatives_match_central_differences(case, vec):
    # With a = e_i, phi(s) = a^T g exp(sum_j s_j A_j) v is entry i of
    # g exp(S) v. Differencing the gradient along A_j gives a^T g A_j A_i v,
    # whose symmetric part is the Hessian.
    action_id, params = case
    action = action_of(action_id)
    g = action.element(params[0])
    d = action.dimension
    v = np.array(vec[:d])
    vs = np.tile(v, (d, 1))
    alg = action.algebra()
    jets = orbit_geometry._dot_jets(alg, vs)

    def derivatives(g):
        # u = g^T a for the rows a = e_i is g itself, row by row.
        return orbit_geometry._dot_derivatives(g, vs, jets)

    gv, grad, hess = derivatives(g)
    assert np.abs(gv - g @ v).max() <= 1e-14
    assert np.array_equal(hess, hess.swapaxes(1, 2))
    h = 1e-5
    diffs = np.empty_like(hess)
    for j, x in enumerate(alg):
        up, down = g @ num.expm(h * x), g @ num.expm(-h * x)
        assert np.abs(grad[:, j] - (up @ v - down @ v) / (2 * h)).max() <= 1e-7
        diffs[:, :, j] = (derivatives(up)[1] - derivatives(down)[1]) / (2 * h)
    assert np.abs(hess - 0.5 * (diffs + diffs.swapaxes(1, 2))).max(initial=0.0) <= 1e-7


def test_grid_holds_the_identity_and_quadrature_weights_sum_to_one():
    for action_id in ("hopf-u1-r4", "so2xso3-r5", "so2-tensor-so3-r6"):
        action = get_action(action_id)
        params, elements = action.grid(256)
        assert not params[0].any()
        assert np.array_equal(elements[0], np.eye(action.dimension))
        haar, weights = action.fs_sample()
        assert len(haar) == len(weights) == math.prod(ax.haar_nodes for ax in action.axes)
        assert abs(weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("density", [0, -8, 0.5])
@pytest.mark.parametrize("method", ["grid", "grid_counts"])
def test_a_grid_density_below_1_is_rejected(method, density):
    with pytest.raises(ValidationError, match="density must be at least 1"):
        getattr(get_action("so2xso3-r5"), method)(density)


def test_actions_sharing_an_id_keep_their_own_grids(monkeypatch):
    # Grids and quadratures are cached per instance: a copy under the same
    # id with conjugated generators must not reuse the original's.
    hopf = get_action("hopf-u1-r4")
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    moved = dataclasses.replace(hopf, generators=tuple(q @ x @ q.T for x in hopf.generators))
    assert moved.id == hopf.id
    hopf_params, hopf_elements = hopf.grid()
    hopf_haar, _ = hopf.fs_sample()
    params, elements = moved.grid()
    assert np.array_equal(params, hopf_params)
    assert np.abs(elements - moved.elements(params)).max() <= 1e-15
    assert np.abs(elements - q @ hopf_elements @ q.T).max() <= 1e-13
    assert np.abs(moved.fs_sample()[0] - q @ hopf_haar @ q.T).max() <= 1e-13

    # With an ascent that ends where it starts, the distance is the grid
    # minimum alone.
    stall_newton_ascent(monkeypatch, converged=True)
    x = np.random.default_rng(6).standard_normal(4)
    y = moved.element(params[100]) @ x
    assert quotient_distance(QuotientPoint(x, moved), QuotientPoint(y, moved)) <= 1e-14
    # Contexts compare by identity, not by id.
    with pytest.raises(ValidationError):
        quotient_distance(QuotientPoint(x, hopf), QuotientPoint(y, moved))


def _one_axis_action(generator):
    return CatalogAction(
        id="test", generators=(generator,),
        axes=(ParamAxis(2.0 * math.pi, True, 1.0, 8),),
        metadata=trivial_action(2).metadata)


@pytest.mark.parametrize("generator", [
    np.array([[0.0, -2.0], [0.5, 0.0]]),           # not skew
    np.array([[0.0, -1.0], [1.0 + 1e-11, 0.0]]),   # skew only to 1e-11
    np.array([[0.0, -np.nan], [np.nan, 0.0]]),     # NaN compares false
], ids=["not-skew", "skew-to-1e-11", "nan"])
def test_non_skew_generator_is_rejected(generator):
    with pytest.raises(ValidationError, match="not skew"):
        _one_axis_action(generator)


def test_an_action_without_generators_is_rejected():
    with pytest.raises(ValidationError, match="at least one generator"):
        CatalogAction(id="test", generators=(), axes=(), metadata=trivial_action(2).metadata)


def test_unit_circle_generator_is_accepted():
    action = _one_axis_action(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.abs(action.element([0.4]) - rot2(0.4)).max() <= 1e-15


def test_weight_two_circle_generator_is_accepted():
    # Frequency 2: X^3 = -4X, not -X.
    action = _one_axis_action(2.0 * _J)
    for t in np.linspace(0.0, 7.0, 71):
        assert np.abs(action.element([t]) - rot2(2.0 * t)).max() <= 1e-15


def test_wrong_parameter_count_is_rejected():
    with pytest.raises(ValueError):
        get_action("so2xso3-r5").element([0.1, 0.2])


@pytest.fixture(scope="module")
def weight_12():
    """The circle acting on C^2 with weights 1 and 2: two frequencies in one
    generator."""
    return CatalogAction(
        id="weight-12-r4", generators=(_block_diag(_J, 2.0 * _J),),
        axes=(ParamAxis(2.0 * math.pi, True, 1.0, 64),),
        metadata=get_action("hopf-u1-r4").metadata)


def test_weight_12_circle_elements_match_the_rotation_blocks(weight_12):
    for t in np.linspace(0.0, 7.0, 701):
        want = _block_diag(rot2(t), rot2(2.0 * t))
        assert np.abs(weight_12.element([t]) - want).max() <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_weight_12_circle_distance_matches_a_dense_circle_search(weight_12, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    got = quotient_distance(QuotientPoint(x, weight_12), QuotientPoint(y, weight_12))
    t = np.linspace(0.0, 2.0 * math.pi, 400_001)
    h = t[1]
    gy = np.stack([np.cos(t) * y[0] - np.sin(t) * y[1], np.sin(t) * y[0] + np.cos(t) * y[1],
                   np.cos(2 * t) * y[2] - np.sin(2 * t) * y[3],
                   np.sin(2 * t) * y[2] + np.cos(2 * t) * y[3]], axis=1)
    search = np.linalg.norm(x - gy, axis=1).min()
    # |x - g(t) y|^2 has second derivative at most 8 |x| |y| (weights <= 2),
    # so the search overshoots its square by at most |x| |y| h^2 and the
    # distance by at most that over 2 |x - g y|.
    assert -1e-12 <= search - got <= np.linalg.norm(x) * np.linalg.norm(y) * h * h / (2 * got)


def test_weight_12_circle_kernel_is_a_subtorus_and_exits_2(weight_12):
    # The kernel is the (1, 2) subtorus of the center torus U(1) x U(1),
    # which the report cannot state yet.
    with pytest.raises(KernelAmbiguityError, match="beyond whole factors") as err:
        quotient_isometry_group(weight_12)
    assert err.value.stage == "kernel"


def test_hopf_circle_with_frequency_2pi_and_period_1_is_the_same_action():
    # exp(2 pi (J + J)) = I: the fixed space of exp(X) at unit parameter is
    # all of R^4, that of the generator {0}.
    hopf = get_action("hopf-u1-r4")
    scaled = dataclasses.replace(hopf, generators=(2.0 * math.pi * _block_diag(_J, _J),),
                                 axes=(ParamAxis(1.0, True, 1.0, 64),))
    assert (report_json(quotient_isometry_group(scaled).report)
            == report_json(quotient_isometry_group(hopf).report))
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        want = quotient_distance(QuotientPoint(x, hopf), QuotientPoint(y, hopf))
        got = quotient_distance(QuotientPoint(x, scaled), QuotientPoint(y, scaled))
        assert abs(got - want) <= 1e-15


def test_a_frequency_of_2pi_fixes_no_vector_of_a_moving_action():
    # T^2 on C + C, once with the first circle written as 2 pi J + 0 of
    # period 1. exp of that generator at unit parameter is the identity up
    # to roundoff, so a fixed space read off the unit-parameter elements
    # would find the first plane invariant; the generators' common null
    # space is {0} either way.
    z = np.zeros((2, 2))

    def torus(scale):
        return CatalogAction(
            id="t2-r4", generators=(_block_diag(scale * _J, z), _block_diag(z, _J)),
            axes=(ParamAxis(2.0 * math.pi / scale, True, 1.0, 8),
                  ParamAxis(2.0 * math.pi, True, 1.0, 8)),
            metadata=get_action("so2xso3-r5").metadata)

    scaled = quotient_isometry_group(torus(2.0 * math.pi))
    assert scaled.split.fixed_dim == 0
    assert report_json(scaled.report) == report_json(quotient_isometry_group(torus(1.0)).report)
