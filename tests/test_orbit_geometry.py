import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cyclic_weights, in_random_basis, rot2, signed_permutations, spec_of,
                      stall_newton_ascent)
from orbit_isom import _numerics as num
from orbit_isom import orbit_geometry
from orbit_isom.catalog import get_action, trivial_action
from orbit_isom.errors import AmbiguityError, KernelAmbiguityError, ValidationError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.orbit_geometry import (
    QuotientPoint,
    _grid_maxima,
    has_boundary,
    orbit_equivalence_test,
    quotient_distance,
    sample_generic_point,
    sector_angle_estimate,
    sphere_quotient_distance,
)
from orbit_isom.repr_model import enumerate_group, parse_spec


def cyclic_group(n):
    doc = {
        "dimension": 2,
        "kind": "finite",
        "generators": [[[repr(float(v)) for v in row]
                        for row in rot2(2.0 * math.pi / n)]],
    }
    return enumerate_group(parse_spec(doc))


def test_c4_distance_oracle():
    # nearest orbit image of b sits at angle pi/8 from a, chord 2 sin(pi/16)
    group = cyclic_group(4)
    a = QuotientPoint(np.array([1.0, 0.0]), group)
    b = QuotientPoint(np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)]), group)
    want = 2.0 * math.sin(math.pi / 16)
    assert abs(quotient_distance(a, b) - want) < 1e-12


def test_c5_distance_oracle():
    # images of (0,1) under C5 sit at 90 + 72k degrees; nearest gap is 18
    group = cyclic_group(5)
    a = QuotientPoint(np.array([1.0, 0.0]), group)
    b = QuotientPoint(np.array([0.0, 1.0]), group)
    want = 2.0 * math.sin(math.pi / 20)
    assert abs(quotient_distance(a, b) - want) < 1e-12


def test_same_orbit_distance_zero():
    group = cyclic_group(5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(2)
        g = group.elements[int(rng.integers(len(group.elements)))]
        d = quotient_distance(QuotientPoint(x, group), QuotientPoint(g @ x, group))
        assert d < 1e-12


def test_distance_symmetric(finite_group):
    group = finite_group("c3xd4-r4")
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = QuotientPoint(rng.standard_normal(4), group)
        b = QuotientPoint(rng.standard_normal(4), group)
        assert abs(quotient_distance(a, b) - quotient_distance(b, a)) < 1e-12


def test_triangle_inequality(finite_group):
    group = finite_group("q8")
    rng = np.random.default_rng(4)
    for _ in range(100):
        pts = [QuotientPoint(rng.standard_normal(4), group) for _ in range(3)]
        dab = quotient_distance(pts[0], pts[1])
        dbc = quotient_distance(pts[1], pts[2])
        dac = quotient_distance(pts[0], pts[2])
        assert dac <= dab + dbc + 1e-9


def test_context_mismatch_rejected(finite_group):
    ga = finite_group("q8")
    gb = finite_group("c5")
    with pytest.raises(ValidationError):
        quotient_distance(QuotientPoint(np.zeros(4), ga),
                          QuotientPoint(np.zeros(2), gb))


@pytest.mark.parametrize("action_id", ["hopf-u1-r4", "so2xso3-r5", "so2-tensor-so3-r6"])
def test_catalog_same_orbit_distance(action_id):
    action = get_action(action_id)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(action.dimension)
        params = np.array([axis.length * rng.random() for axis in action.axes])
        y = action.element(params) @ x
        d = quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
        assert d < 1e-9


def _hopf_distance(x, y):
    # R^4 = C^2 with the circle acting by e^{it}: |x - e^{it} y|^2 is
    # smallest when e^{it} <x, y>_C is real and positive.
    inner = complex(x[0], x[1]).conjugate() * complex(y[0], y[1]) \
        + complex(x[2], x[3]).conjugate() * complex(y[2], y[3])
    return math.sqrt(max(x @ x + y @ y - 2.0 * abs(inner), 0.0))


def _block_distance(x, y):
    # each block's orbit is the sphere through the point
    return math.hypot(np.linalg.norm(x[:2]) - np.linalg.norm(y[:2]),
                      np.linalg.norm(x[2:]) - np.linalg.norm(y[2:]))


def _tensor_distance(x, y):
    # R^2 (x) R^3 as 2 x 3 matrices, g X = A X B^T: the orbit of X is fixed
    # by its singular values, and max <X, A Y B^T> = sum sigma_i tau_i (the
    # free third axis of R^3 absorbs any determinant sign)
    sx = np.linalg.svd(x.reshape(2, 3), compute_uv=False)
    sy = np.linalg.svd(y.reshape(2, 3), compute_uv=False)
    return math.sqrt(max(x @ x + y @ y - 2.0 * float(sx @ sy), 0.0))


def _record_convergence(monkeypatch):
    """Log each Newton ascent's ``converged`` flags."""
    log = []
    ascend = orbit_geometry._newton_ascent

    def recording_ascent(*args, **kwargs):
        g, phi, converged = ascend(*args, **kwargs)
        log.extend(bool(c) for c in converged)
        return g, phi, converged

    monkeypatch.setattr(orbit_geometry, "_newton_ascent", recording_ascent)
    return log


def _singular_points(action_id, rng):
    """Points on every singular stratum: r5 with its R^2 or its R^3 block
    zero, r6 with a rank-1 or an equal-singular-value 2x3 coordinate
    matrix; for hopf, a point on one complex line of C^2."""
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    y = rng.standard_normal(5)
    return {
        "hopf-u1-r4": [np.concatenate([y[:2], np.zeros(2)]), np.concatenate([np.zeros(2), y[3:]])],
        "so2xso3-r5": [np.concatenate([np.zeros(2), y[2:]]), np.concatenate([y[:2], np.zeros(3)])],
        "so2-tensor-so3-r6": [(u @ np.diag([1.3, 0.0]) @ v.T).ravel(),
                              (u @ np.diag([0.7, 0.7]) @ v.T).ravel()],
    }[action_id]


@pytest.mark.parametrize("action_id,closed_form", [
    ("hopf-u1-r4", _hopf_distance),
    ("so2xso3-r5", _block_distance),
    ("so2-tensor-so3-r6", _tensor_distance),
])
def test_catalog_distance_matches_closed_form(action_id, closed_form, monkeypatch):
    # nonzero distances: an inexact gradient stops the refinement short of
    # the minimum and leaves the value too large. Singular points pair with
    # random ones and with each other; there the maximizer of a^T g b can be
    # a whole subgroup.
    action = get_action(action_id)
    log = _record_convergence(monkeypatch)
    rng = np.random.default_rng(12)
    pairs = list(rng.standard_normal((10, 2, action.dimension)))
    for _ in range(3):
        s, t = _singular_points(action_id, rng)
        pairs += [(s, rng.standard_normal(action.dimension)),
                  (rng.standard_normal(action.dimension), t), (s, 2.0 * t)]
    for x, y in pairs:
        d = quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
        want = closed_form(x, y)
        assert want > 0.1
        assert abs(d - want) < 1e-9
    # one Newton ascent per distance, and every one converged
    assert log == [True] * len(pairs)


def test_an_unconverged_ascent_is_ambiguous(monkeypatch):
    # There is no second refinement: a distance that the ascent did not
    # resolve is refused, not returned from the grid.
    stall_newton_ascent(monkeypatch, converged=False)
    action = get_action("hopf-u1-r4")
    x, y = np.random.default_rng(13).standard_normal((2, action.dimension))
    with pytest.raises(AmbiguityError, match="hopf-u1-r4: the Newton ascent from grid element"):
        quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
    with pytest.raises(AmbiguityError, match="did not converge"):
        sphere_quotient_distance(x / np.linalg.norm(x), y / np.linalg.norm(y), action)
    with pytest.raises(AmbiguityError, match="did not converge"):
        orbit_equivalence_test(action, np.eye(4)[[1, 0, 3, 2]], 3, 0)


def _sector_pair(index):
    """Pair ``index`` of the sector estimator's seed-0 stream on R^6."""
    pairs = num.random_unit_rows(np.random.default_rng([0]), (5000, 2, 6))
    return pairs[index, 0], pairs[index, 1]


def test_ascent_through_the_euler_pole_converges_in_few_steps():
    # The r6 sector's top screening pair: from the grid argmax
    # (pi/4, 3pi/4, 2pi/3, 0) the maximizer lies across the polar row
    # beta = pi, where the Euler chart is singular; an ascent in Euler
    # parameters stops 15 steps later about 4e-4 short.
    action = get_action("so2-tensor-so3-r6")
    a, b = _sector_pair(1654)
    params, els = action.grid()
    i = int(np.argmax((els @ b) @ a))
    assert np.allclose(params[i], [math.pi / 4, 3 * math.pi / 4, 2 * math.pi / 3, 0.0])
    results = [orbit_geometry._newton_ascent(action, a[None], b[None], els[i][None],
                                             gtol=1e-8, ftol=1e-12, maxiter=maxiter)
               for maxiter in (15, 150)]
    (g, phi, converged), (_, phi_long, _) = results
    assert converged[0]
    assert abs(phi[0] - phi_long[0]) <= 1e-12
    assert np.abs(g[0].T @ g[0] - np.eye(6)).max() <= 1e-13
    assert abs(a @ g[0] @ b - phi[0]) <= 1e-14


def test_a_row_refines_alike_alone_and_in_a_batch():
    # A batch of moves of one point with the acceptance bar as ``stop``,
    # every row started from one shared element, near some rows' maxima and
    # far from others'. The sector climb keeps the first row that gains,
    # and its estimate must be the refinement of that pair alone, so each
    # row's result has to ignore the others.
    action = get_action("so2-tensor-so3-r6")
    a, b = _sector_pair(1654)
    dot, g = orbit_geometry._refined_sphere_dots(action, a[None], b[None])
    bar = math.cos(math.acos(dot[0]) + 1e-5)
    cands = a + 0.1 * np.kron(np.eye(6), [[1.0], [-1.0]])
    cands /= np.linalg.norm(cands, axis=1, keepdims=True)
    others = np.broadcast_to(b, cands.shape)
    g0 = np.broadcast_to(g[0], (len(cands), 6, 6))
    options = dict(gtol=1e-8, ftol=1e-12, maxiter=150, stop=bar)
    els, phi, converged = orbit_geometry._newton_ascent(action, cands, others, g0, **options)
    assert converged.any() and (phi >= bar).any() and (phi < bar).any()
    for i in range(len(cands)):
        g_i, phi_i, converged_i = orbit_geometry._newton_ascent(
            action, cands[i:i + 1], others[i:i + 1], g0[i:i + 1], **options)
        assert converged_i[0] == converged[i]
        assert phi_i[0] == phi[i]
        assert np.array_equal(g_i[0], els[i])


@pytest.mark.parametrize("action_id", ["so2xso3-r5", "so2-tensor-so3-r6"])
@pytest.mark.parametrize("size", [1, 3, 7])
def test_a_pair_refines_alike_alone_and_in_a_batch(action_id, size):
    # The sector climb refines only the candidates no known element rules
    # out, so a pair's grid start and refinement must be bit for bit the
    # ones it has in the whole batch.
    action = get_action(action_id)
    pairs = num.random_unit_rows(np.random.default_rng(size), (7, 2, action.dimension))
    a_pts, b_pts = pairs[:, 0], pairs[:, 1]
    full, _ = orbit_geometry._refined_sphere_dots(action, a_pts, b_pts)
    for stop in (None, float(np.median(full))):
        dots, els = orbit_geometry._refined_sphere_dots(action, a_pts, b_pts, stop=stop)
        for start in range(0, 7, size):
            part = slice(start, start + size)
            got = orbit_geometry._refined_sphere_dots(action, a_pts[part], b_pts[part], stop=stop)
            assert np.array_equal(got[0], dots[part])
            assert np.array_equal(got[1], els[part])


@pytest.mark.parametrize("which", ["a", "b"])
def test_refined_max_dot_has_the_envelope_gradient(which):
    # Danskin: f(a, b) = max_g a^T g b has the derivative <g* b, v> along v
    # in a and <g*^T a, w> along w in b, where the maximizer g* is unique.
    # The sector climb descends along these, so check them against central
    # differences of the refined maximum along a tangent of each sphere.
    action = get_action("so2-tensor-so3-r6")
    a, b = _sector_pair(1654)
    point = a if which == "a" else b
    v = np.random.default_rng(5).standard_normal(6)
    v -= (v @ point) * point
    v /= np.linalg.norm(v)

    def f(t):
        moved = point + t * v
        pair = (moved, b) if which == "a" else (a, moved)
        return orbit_geometry._refined_sphere_dots(action, pair[0][None], pair[1][None])

    _, g = f(0.0)
    grad = g[0] @ b if which == "a" else g[0].T @ a
    # In b the maximizer moves hundreds of times faster than the point, so
    # the difference needs a small step; the refined dots resolve to ~1e-15.
    h = 3e-7
    difference = (f(h)[0][0] - f(-h)[0][0]) / (2.0 * h)
    assert abs(difference - grad @ v) <= 1e-6


def _count_newton_steps(monkeypatch):
    """Count ``num.skew_spectrum`` calls: one per Newton step of a batch."""
    count = [0]
    spectrum = num.skew_spectrum

    def counting(s):
        count[0] += 1
        return spectrum(s)

    monkeypatch.setattr(num, "skew_spectrum", counting)
    return count


def test_a_hopf_distance_takes_one_newton_step(monkeypatch):
    # On the circle phi(t) is a sinusoid: one Newton step from the grid
    # start leaves an error whose next step could not move the gap.
    action = get_action("hopf-u1-r4")
    steps = _count_newton_steps(monkeypatch)
    for x, y in np.random.default_rng(17).standard_normal((20, 2, 4)):
        steps[0] = 0
        d = quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
        assert steps[0] == 1
        assert abs(d - _hopf_distance(x, y)) <= 1e-12


def test_an_ascent_ends_where_its_step_cannot_move_the_gap(monkeypatch):
    # Row 0 starts where a distance ascent ended on the ulp rule: its
    # gradient is still over that ascent's gtol, but the next step's
    # predicted gain grad^2 / (2 |h|) is under one ulp of the half squared
    # gap. Row 1 has gap 0 (a = b, g = I), where any gain exceeds that ulp.
    # With gtol = 0 and no step allowed, only the ulp rule can converge a row.
    action = get_action("hopf-u1-r4")
    x, y = np.random.default_rng(17).standard_normal((2, 4))
    _, els = action.grid()
    g0 = els[orbit_geometry._grid_argmax(els, x, y)]
    g1, _, converged = orbit_geometry._newton_ascent(action, x[None], y[None], g0[None],
                                                     gtol=0.5e-12, ftol=1e-16, maxiter=300)
    assert converged[0]
    a, b = np.stack([x, y]), np.stack([y, y])
    g = np.stack([g1[0], np.eye(4)])
    phi, grad, hess = orbit_geometry._dot_derivatives(
        (a[:, None, :] @ g)[:, 0], b, orbit_geometry._dot_jets(action.algebra(), b))
    gain = 0.5 * grad[:, 0] ** 2 / np.abs(hess[:, 0, 0])
    dots = orbit_geometry._row_dots
    ulp = num.EPS * (0.5 * (dots(a, a) + dots(b, b)) - phi)
    assert abs(grad[0, 0]) > 0.5e-12 and grad[1, 0] != 0.0 and ulp[1] == 0.0
    assert 0.0 < gain[0] <= ulp[0]
    steps = _count_newton_steps(monkeypatch)
    out, _, converged = orbit_geometry._newton_ascent(action, a, b, g, gtol=0.0, ftol=0.0,
                                                      maxiter=0)
    assert converged.tolist() == [True, False]
    assert np.array_equal(out, g) and steps[0] == 0


def test_ascent_on_a_zero_dimensional_algebra_returns_its_start():
    action = trivial_action(3)
    assert action.algebra().shape == (0, 3, 3)
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((2, 4, 3))
    g0 = np.broadcast_to(np.eye(3), (4, 3, 3))
    g, phi, converged = orbit_geometry._newton_ascent(action, a, b, g0, gtol=1e-8,
                                                      ftol=1e-12, maxiter=150)
    assert converged.all()
    assert np.array_equal(g, g0)
    assert np.abs(phi - np.einsum("ni,ni->n", a, b)).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["hopf-u1-r4", "so2xso3-r5", "so2-tensor-so3-r6"]),
       st.integers(0, 2**32 - 1))
def test_distances_are_invariant_under_conjugation(action_id, seed):
    # Conjugating the action by Q maps orbits to orbits: d(Qx, Qy) under
    # Q G Q^T is d(x, y) under G, for the quotient and the sphere metric.
    action = get_action(action_id)
    d = action.dimension
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    moved = dataclasses.replace(action, generators=tuple(q @ x @ q.T for x in action.generators))
    x, y = rng.standard_normal((2, d))
    want = quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
    got = quotient_distance(QuotientPoint(q @ x, moved), QuotientPoint(q @ y, moved))
    assert abs(got - want) <= 1e-9
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    want = sphere_quotient_distance(x, y, action)
    assert abs(sphere_quotient_distance(q @ x, q @ y, moved) - want) <= 1e-9


def test_trivial_action_distance_is_euclidean():
    action = trivial_action(3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        d = quotient_distance(QuotientPoint(a, action), QuotientPoint(b, action))
        assert abs(d - np.linalg.norm(a - b)) < 1e-12


def test_orbit_equivalence_accepts_group_element(memo):
    result = memo.analysis("c5")
    ctx = result.context
    assert orbit_equivalence_test(ctx, rot2(2.0 * math.pi / 5), 50, seed=0)


def test_orbit_equivalence_rejects_outsider(memo):
    ctx = memo.analysis("c5").context
    assert not orbit_equivalence_test(ctx, rot2(0.3), 50, seed=0)


def test_orbit_equivalence_guard_band(memo):
    # a candidate moving unit vectors by ~5e-7 sits between the membership
    # tolerance 1e-7 and the guard bound 1e-6: neither accept nor reject
    ctx = memo.analysis("c5").context
    with pytest.raises(KernelAmbiguityError):
        orbit_equivalence_test(ctx, rot2(2.0 * math.pi / 5 + 5e-7), 50, seed=0)


def test_orbit_equivalence_rejects_nan():
    with pytest.raises(ValidationError, match="orthogonal"):
        orbit_equivalence_test(get_action("hopf-u1-r4"), np.full((4, 4), np.nan), 3, 0)


@pytest.mark.parametrize("sample_count, seed", [(2.5, 0), (3, 1.0), (True, 0), (3, True)])
def test_orbit_equivalence_rejects_non_integer_sampling(sample_count, seed):
    with pytest.raises(ValidationError, match="must be an integer"):
        orbit_equivalence_test(get_action("hopf-u1-r4"), np.eye(4), sample_count, seed)


_ENTRY_POINTS = {
    "QuotientPoint": lambda ctx: QuotientPoint(np.zeros(4), ctx),
    "sphere_quotient_distance": lambda ctx: sphere_quotient_distance(
        np.eye(4)[0], np.eye(4)[1], ctx),
    "orbit_equivalence_test": lambda ctx: orbit_equivalence_test(ctx, np.eye(4), 3, 0),
    "has_boundary": has_boundary,
    "sample_generic_point": lambda ctx: sample_generic_point(ctx, np.random.default_rng(0)),
}


@pytest.mark.parametrize("ctx", [parse_spec(fixture_document("q8")), "catalog:hopf-u1-r4", None],
                         ids=["spec", "catalog-id", "none"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_a_wrong_context_is_rejected(entry, ctx):
    # A representation spec has a dimension but no elements or grid: it
    # must be analyzed into a context first.
    with pytest.raises(ValidationError, match=f"{entry} expects a finite group or catalog action"):
        _ENTRY_POINTS[entry](ctx)


@pytest.mark.parametrize("ctx", [parse_spec(fixture_document("q8")), "catalog:so2xso3-r5",
                                 cyclic_group(4), None],
                         ids=["spec", "catalog-id", "finite-group", "none"])
def test_sector_estimate_rejects_a_context_that_is_not_a_catalog_action(ctx):
    # The estimate climbs over a grid and a Lie algebra, which only a
    # catalog action has; an enumerated finite group is refused as well.
    with pytest.raises(ValidationError, match="sector_angle_estimate expects a catalog action"):
        sector_angle_estimate(ctx, 10, 0)


@pytest.mark.parametrize("a, b", [
    ([np.nan, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    ([1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]),
], ids=["nan", "not-unit", "short", "long"])
def test_sphere_distance_rejects_bad_points(a, b):
    with pytest.raises(ValidationError):
        sphere_quotient_distance(a, b, get_action("hopf-u1-r4"))


def test_orbit_equivalence_below_tolerance_accepts(memo):
    ctx = memo.analysis("c5").context
    assert orbit_equivalence_test(ctx, rot2(2.0 * math.pi / 5 + 5e-8), 50, seed=0)


def test_has_boundary_cyclic_false_dihedral_true(memo):
    assert has_boundary(memo.analysis("c5").context) is False
    assert has_boundary(memo.analysis("d4").context) is True


def test_has_boundary_catalog_from_metadata():
    assert has_boundary(get_action("hopf-u1-r4")) is False
    assert has_boundary(get_action("so2xso3-r5")) is True
    assert has_boundary(get_action("so2-tensor-so3-r6")) is True


def test_generic_points_avoid_singular_strata():
    rng = np.random.default_rng(9)
    # Every singular stratum: r5 with its R^2 or its R^3 block zero, r6 with
    # a rank-1 or an equal-singular-value 2x3 coordinate matrix.
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    y = rng.standard_normal(5)
    for action_id, x in [
        ("so2xso3-r5", np.concatenate([np.zeros(2), y[2:]])),
        ("so2xso3-r5", np.concatenate([y[:2], np.zeros(3)])),
        ("so2-tensor-so3-r6", (u @ np.diag([1.3, 0.0]) @ v.T).ravel()),
        ("so2-tensor-so3-r6", (u @ np.diag([0.7, 0.7]) @ v.T).ravel()),
    ]:
        assert not get_action(action_id).is_generic(x)
    for action_id in ("hopf-u1-r4", "so2xso3-r5", "so2-tensor-so3-r6"):
        action = get_action(action_id)
        for _ in range(10):
            x = sample_generic_point(action, rng)
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            assert action.is_generic(x)
            assert action.is_generic(rng.standard_normal(action.dimension))
    trivial = trivial_action(3)
    assert not trivial.is_generic(np.zeros(3))
    assert trivial.is_generic(np.array([0.0, 1e-12, 0.0]))
    assert all(trivial.is_generic(rng.standard_normal(3)) for _ in range(10))


def test_generic_points_move_under_finite_group(finite_group):
    group = finite_group("d4")
    rng = np.random.default_rng(10)
    x = sample_generic_point(group, rng)
    moved = np.linalg.norm(x[None, :] - group.elements @ x, axis=1)
    moved[group.identity_index] = np.inf
    assert moved.min() > 1e-2


def test_sphere_distance_zero_on_orbit():
    action = get_action("hopf-u1-r4")
    rng = np.random.default_rng(11)
    x = sample_generic_point(action, rng)
    y = action.element(np.array([1.234])) @ x
    assert sphere_quotient_distance(x, y, action) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sector_screening_maximum_grows_with_nested_samples(seed):
    # Nested sample counts share the leading pair stream, so the grid
    # maximum that picks the climb's start is monotone. The climbed
    # estimate is not: a better start can end on a lower ridge.
    action = get_action("so2xso3-r5")
    screened = []
    for n in (500, 1000, 2000):
        pairs = num.random_unit_rows(np.random.default_rng([seed]), (n, 2, action.dimension))
        dots = _grid_maxima(action.grid()[1], pairs[:, 0], pairs[:, 1])
        screened.append(np.arccos(np.clip(dots, -1.0, 1.0)).max())
    assert screened[0] <= screened[1] + 1e-12
    assert screened[1] <= screened[2] + 1e-12


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("action_id, target", [("so2xso3-r5", math.pi / 2.0),
                                               ("so2-tensor-so3-r6", math.pi / 4.0)],
                         ids=["so2xso3-r5", "so2-tensor-so3-r6"])
def test_sector_estimate_within_its_accuracy_window(action_id, target, seed, n):
    est = sector_angle_estimate(get_action(action_id), n, seed)
    assert target - 5e-5 <= est <= target + 1e-4


def _full_ranking(action, a_pts, b_pts):
    """The screening's reference: every pair's grid maximum, ranked."""
    dots = _grid_maxima(action.grid()[1], a_pts, b_pts)
    return np.argsort(np.arccos(np.clip(dots, -1.0, 1.0)))[::-1][:3]


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 5000])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("action_id", ["so2xso3-r5", "so2-tensor-so3-r6"])
def test_bounded_screening_picks_the_pairs_of_the_full_ranking(action_id, seed, n):
    # n straddles the three picks and the 64-pair completion chunks
    action = get_action(action_id)
    pairs = num.random_unit_rows(np.random.default_rng([seed]), (n, 2, action.dimension))
    a_pts, b_pts = pairs[:, 0], pairs[:, 1]
    got = orbit_geometry._screen_pairs(action, a_pts, b_pts)
    assert np.array_equal(got, _full_ranking(action, a_pts, b_pts))


@pytest.mark.parametrize("action_id, want", [
    ("so2xso3-r5", (1.57078330810137, 1.5707831792818827, 1.5707875856726299)),
    ("so2-tensor-so3-r6", (0.7853774718716493, 0.7853840983561149, 0.7853939914671381)),
], ids=["so2xso3-r5", "so2-tensor-so3-r6"])
def test_sector_estimates_at_5000_samples_stay_pinned(action_id, want):
    # the values of the full screening, before it was bounded
    action = get_action(action_id)
    for seed, value in enumerate(want):
        assert abs(sector_angle_estimate(action, 5000, seed) - value) <= 1e-12


@pytest.mark.parametrize("action_id", ["hopf-u1-r4", "so2xso3-r5", "so2-tensor-so3-r6"])
def test_flat_grid_scan_finds_the_norm_scans_argmin(action_id):
    # The Euler grids hold each element at the poles beta = 0, pi under
    # several parameter tuples, equal to roundoff, and roundoff picks one of
    # them; the scans must agree on the element, and on its index elsewhere.
    action = get_action(action_id)
    _, els = action.grid()
    rng = np.random.default_rng(16)
    for a, b in rng.standard_normal((200, 2, action.dimension)):
        i = orbit_geometry._grid_argmax(els, a, b)
        for j in (int(np.argmin(np.linalg.norm(a[None, :] - els @ b, axis=1))),
                  int(np.argmax((els @ b) @ a))):
            assert i == j or np.abs(els[i] - els[j]).max() <= 1e-15


@pytest.mark.parametrize("action", [get_action("hopf-u1-r4"), get_action("so2xso3-r5"),
                                    get_action("so2-tensor-so3-r6"), trivial_action(3)],
                         ids=lambda action: action.id)
@pytest.mark.parametrize("pairs", [1, 255, 256, 257, 600])
@pytest.mark.parametrize("density", [None, 1000])
def test_batched_max_dots_match_the_per_pair_maximum(action, pairs, density):
    # pair counts straddle the 256-pair chunk edges; the default grids are
    # closed under g -> g^T, the odd-count Euler grid of density 1000 is
    # not, so there a b a^T outer product in place of a b^T shows
    rng = np.random.default_rng(pairs)
    a_pts, b_pts = rng.standard_normal((2, pairs, action.dimension))
    _, els = action.grid(density)
    want = np.array([((els @ b) @ a).max() for a, b in zip(a_pts, b_pts)])
    assert np.max(np.abs(_grid_maxima(els, a_pts, b_pts) - want)) < 1e-13


def test_sector_climb_refines_cold_and_returns_a_refined_pair(monkeypatch):
    # Every refinement of the climb starts from its row's grid argmax, and
    # the estimate is the refined value of one pair it tried: refining that
    # pair alone gives the estimate back.
    refine, ascend = orbit_geometry._refined_sphere_dots, orbit_geometry._newton_ascent
    calls, starts = [], []

    def recording_refine(action, a_pts, b_pts, *args, **kwargs):
        out = refine(action, a_pts, b_pts, *args, **kwargs)
        calls.append((args, kwargs, a_pts.copy(), b_pts.copy(), out[0]))
        return out

    def recording_ascend(action, a, b, g0, **kwargs):
        starts.append((a.copy(), b.copy(), g0.copy()))
        return ascend(action, a, b, g0, **kwargs)

    monkeypatch.setattr(orbit_geometry, "_refined_sphere_dots", recording_refine)
    monkeypatch.setattr(orbit_geometry, "_newton_ascent", recording_ascend)
    action = get_action("so2xso3-r5")
    est = sector_angle_estimate(action, 500, 0)
    assert len(calls) >= 2 and len(starts) == len(calls)
    assert all(not args and set(kwargs) <= {"stop"} for args, kwargs, *_ in calls)
    _, els = action.grid()
    for a, b, g0 in starts:
        assert all(np.abs(els - g).max(axis=(1, 2)).min() == 0.0 for g in g0)
        grid_max = np.einsum("gij,pi,pj->pg", els, a, b).max(axis=1)
        assert np.abs(np.einsum("pij,pi,pj->p", g0, a, b) - grid_max).max() <= 1e-13
    rows = [(a[i], b[i]) for _, _, a, b, dots in calls
            for i in np.flatnonzero(np.arccos(np.clip(dots, -1.0, 1.0)) == est)]
    assert rows
    a, b = rows[-1]
    dot, _ = refine(action, a[None], b[None])
    assert abs(math.acos(dot[0]) - est) <= 1e-12


@pytest.mark.parametrize("action_id, most", [("so2xso3-r5", 40), ("so2-tensor-so3-r6", 45)])
def test_sector_climb_refines_only_unsettled_candidates(action_id, most, monkeypatch):
    # Refining every candidate took 171 rows on r5 and 135 on r6.
    refine = orbit_geometry._refined_sphere_dots
    rows = []

    def counting_refine(action, a_pts, b_pts, **kwargs):
        rows.append(len(a_pts))
        return refine(action, a_pts, b_pts, **kwargs)

    monkeypatch.setattr(orbit_geometry, "_refined_sphere_dots", counting_refine)
    sector_angle_estimate(get_action(action_id), 5000, 0)
    assert 0 < min(rows) and sum(rows) <= most


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("action_id", ["so2xso3-r5", "so2-tensor-so3-r6"])
def test_candidates_ruled_out_unrefined_miss_when_refined(action_id, seed, monkeypatch):
    # A candidate that a known element lifts to the bar must also miss when
    # refined cold: the prefilter changes no hit or miss of the climb.
    unsettled = orbit_geometry._unsettled
    ruled_out = []

    def recording(known, a_pts, b_pts, bar):
        rest = unsettled(known, a_pts, b_pts, bar)
        out = np.setdiff1d(np.arange(len(a_pts)), rest)
        ruled_out.extend((a_pts[i].copy(), b_pts[i].copy(), bar) for i in out)
        return rest

    monkeypatch.setattr(orbit_geometry, "_unsettled", recording)
    action = get_action(action_id)
    sector_angle_estimate(action, 5000, seed)
    assert ruled_out
    for a, b, bar in ruled_out:
        dot, _ = orbit_geometry._refined_sphere_dots(action, a[None], b[None], stop=bar)
        assert dot[0] >= bar


@pytest.mark.parametrize("sample_count, seed", [
    (0, 0), (10, -1), (2.5, 0), (10, 1.0), (True, 0), (10, True)])
def test_sector_estimate_rejects_bad_sampling(sample_count, seed):
    with pytest.raises(ValidationError):
        sector_angle_estimate(get_action("so2xso3-r5"), sample_count, seed)


def test_sector_estimate_trivial_plane():
    assert abs(sector_angle_estimate(trivial_action(2), 400, 0) - math.pi) < 1e-2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_vector_rows_match_the_per_call_stream(seed):
    n, d = 100, 4
    rows = num.random_unit_rows(np.random.default_rng([seed]), (n, d))
    rng = np.random.default_rng([seed])
    want = np.array([num.random_unit_vector(rng, d) for _ in range(n)])
    assert rows.shape == (n, d)
    assert np.all(np.abs(rows - want) <= np.spacing(np.abs(want)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_vector_pairs_match_the_per_call_stream(seed):
    # one draw of normals reads the stream of 2n single draws, in order
    n, d = 500, 6
    pairs = num.random_unit_rows(np.random.default_rng([seed]), (n, 2, d))
    rng = np.random.default_rng([seed])
    want = np.array([[num.random_unit_vector(rng, d) for _ in range(2)] for _ in range(n)])
    assert pairs.shape == (n, 2, d)
    assert np.all(np.abs(pairs - want) <= np.spacing(np.abs(want)))


def full_svd_boundary(group):
    """has_boundary's rank rule applied to every element."""
    diffs = group.elements - np.eye(group.dimension)
    ranks = (np.linalg.svd(diffs, compute_uv=False) > 1e-7).sum(axis=1)
    return bool(np.any(ranks == 1))


BOUNDARY_CASES = {
    **{name: parse_spec(fixture_document(name)).generators for name in FIXTURE_NAMES},
    **{f"{name}@random-basis": in_random_basis(parse_spec(fixture_document(name)).generators, 7)
       for name in ("c5", "d4", "q8", "c3-fix", "c3xd4-r4")},
    **{f"B{n}": in_random_basis(signed_permutations(n), n) for n in (3, 4, 5)},
    **{f"C{n}": in_random_basis([cyclic_weights(n, (1, 2, 3))], n) for n in (24, 60)},
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_has_boundary_agrees_with_the_full_rank_test(name):
    generators = BOUNDARY_CASES[name]
    group = enumerate_group(spec_of(generators, len(generators[0])))
    assert has_boundary(group) is full_svd_boundary(group)


# Generators in a random basis rounded to 10 decimals: each element is
# orthogonal only to about 1e-10, as a spec within its tolerance may be.
_ROUNDED = {
    "c3xd4-r4@rounded": in_random_basis(parse_spec(fixture_document("c3xd4-r4")).generators, 7),
    "B4@rounded": in_random_basis(signed_permutations(4), 4),
}

# Every fixture with a moving part, as the analysis restricts it, B4, and
# the rounded contexts.
_FINITE_CONTEXTS = [name for name in FIXTURE_NAMES if name != "trivial-r3"] + ["B4", *_ROUNDED]


def _near_fixed_pairs(group, rng):
    """Pairs (x, m x) for up to five nonidentity elements m with a fixed
    subspace, x within 1e-6 to 1e-12 of it and |x| in [0.1, 10]: the
    distance is about 0, and a^T g b cannot tell m from the identity there.
    The rank cut 1e-6 also finds the fixed subspace of a rounded m."""
    d = group.dimension
    fixing = [(m, fixed) for m in group.elements
              for fixed in [num.nullspace(m - np.eye(d), rank_tol=1e-6)[0]]
              if 0 < fixed.shape[1] < d]
    pairs = []
    for k in rng.permutation(len(fixing))[:5]:
        m, fixed = fixing[k]
        for offset in (1e-6, 1e-8, 1e-10, 1e-12):
            x = fixed @ rng.standard_normal(fixed.shape[1])
            x *= 10.0 ** rng.uniform(-1.0, 1.0) / np.linalg.norm(x)
            x += offset * num.random_unit_vector(rng, d)
            pairs.append((x, m @ x))
    return pairs


@pytest.mark.parametrize("name", _FINITE_CONTEXTS)
def test_finite_distances_are_the_brute_force_extrema(name, memo):
    # The distances must be the extrema over all elements, formed one by
    # one, for random pairs and for pairs near a fixed subspace, where the
    # elements' values of a^T g b tie to roundoff, or, for elements that are
    # not quite orthogonal, do not order the distances.
    if name == "B4":
        group = enumerate_group(spec_of(signed_permutations(4), 4))
    elif name in _ROUNDED:
        generators = [np.round(g, 10) for g in _ROUNDED[name]]
        group = enumerate_group(spec_of(generators, len(generators[0])))
    else:
        group = memo.analysis(name).context
    rng = np.random.default_rng(23)
    pairs = list(rng.standard_normal((50, 2, group.dimension))) + _near_fixed_pairs(group, rng)
    for x, y in pairs:
        want = min(float(np.linalg.norm(x - g @ y)) for g in group.elements)
        got = quotient_distance(QuotientPoint(x, group), QuotientPoint(y, group))
        assert abs(got - want) <= 1e-14
        a, b = x / np.linalg.norm(x), y / np.linalg.norm(y)
        # A rounded element can stretch b past the unit sphere; the
        # distance clamps the dot at 1.
        want = min(1.0, max(float(a @ (g @ b)) for g in group.elements))
        assert abs(math.cos(sphere_quotient_distance(a, b, group)) - want) <= 1e-14
