"""Quotient-metric oracle and orbit-space geometry probes.

The quotient distance between orbits is d(Gx, Gy) = min_g ||x - g y||. For
finite groups the minimum is exact: the distance is formed for every
enumerated element. For catalog actions it is approximated from above in
value: a pass over the action's default grid (DEFAULT_DENSITY elements;
density m has chordal error O(1/m)), then one refinement, a damped Newton
ascent of phi(g) = a^T g b over the group image, stepping g -> g exp(S)
with S in its Lie algebra, with the exact gradient and Hessian of
s -> a^T g exp(sum_j s_j A_j) b and a line search read off one
eigendecomposition of S^2; it ends without a step once the next step's
predicted gain is under one ulp of ||a - g b||^2 / 2, which that step
cannot move. An ascent that does not converge raises
AmbiguityError; there is no second refinement to fall back on. Every grid
pass is one product of the flattened grid with flattened outer products
a b^T, since a^T g b = <a b^T, g>_F; a distance forms ||a - g b|| only at
the argmax and at the ascent's end. Only the unrefined Hopf metric check
(``lift_verify.verify_hopf_metric``) reads a grid of another density.
Refined values always upper-bound the true distance, since they are minima
over a finite subset of the group. One routine, ``_group_min``, serves both
kinds of context, so the distances and the orbit test are one call each.
``_group_min``, the sector estimator and the Hopf metric check run with
OpenBLAS on one thread (``num.one_blas_thread``): their products are too
small for a second thread to speed up, and it doubled their CPU time.

The sector estimator screens its sampled pairs on the grid with a bound:
the maximum over every SCREEN_STRIDE-th grid element is a lower bound on a
pair's grid maximum, and only the pairs whose bound can still place them
among the three smallest maxima get the full grid pass. The climb from
the best of them keeps every element it has refined. Before each batch of
candidate moves it scores the candidates against those elements in one
product, and a candidate that one of them lifts to the acceptance bar is a
miss unrefined, since a^T g b <= max_G a^T g b; only the rest are refined.
A row's refinement is bit for bit the same alone and in any batch, so
refining a subset moves no row.

Boundary detection for finite groups looks for a hyperplane reflection: an
element whose fixed subspace has dimension exactly dim V - 1, equivalently
rank(g - I) = 1. Catalog actions carry the verdict as metadata.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .catalog import CatalogAction
from .errors import AmbiguityError, KernelAmbiguityError, ValidationError
from .repr_model import FiniteGroupData

ORBIT_MEMBERSHIP_TOL = 1e-7
ORBIT_GUARD = 10.0
# Newton ascent: Hessian eigenvalues are floored at this fraction of |a| |b|,
# the Armijo constant, and the smallest step fraction before the line search
# gives up.
HESSIAN_FLOOR = 1e-8
ARMIJO = 1e-4
MIN_STEP = 1e-10

Context = FiniteGroupData | CatalogAction


@dataclass(frozen=True)
class QuotientPoint:
    """A point of V together with the action context defining its orbit."""

    representative: np.ndarray
    context: Context

    def __post_init__(self):
        check_context(self.context, "QuotientPoint")
        rep = np.asarray(self.representative, dtype=float)
        object.__setattr__(self, "representative", rep)
        d = self.context.dimension
        if rep.shape != (d,):
            raise ValidationError(
                f"point has shape {rep.shape}, context dimension is {d}"
            )
        if not np.isfinite(rep).all():
            raise ValidationError(f"point has non-finite coordinates: {rep}")


def check_context(ctx, what: str) -> None:
    """Raises ValidationError unless ``ctx`` is a finite group or a catalog
    action, the two contexts of every oracle entry point."""
    if not isinstance(ctx, Context):
        raise ValidationError(
            f"{what} expects a finite group or catalog action, got {type(ctx).__name__}")


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_n . v_n for every row of ``u`` (N, d), ``v`` a row or (N, d). The
    stacked product sums each row as the dot product of two vectors does,
    so a row's value does not depend on the stack it sits in."""
    return (u[:, None, :] @ v[..., :, None])[:, 0, 0]


def _dot_jets(alg: np.ndarray, b: np.ndarray):
    """(A_j b, A_i A_j b) over the algebra basis ``alg`` (r, d, d) for every
    row of ``b`` (N, d): shapes (N, r, d) and (N, r, r, d). They depend on b
    alone, so an ascent computes them once."""
    ab = (alg @ b[:, None, :, None])[..., 0]
    return ab, (alg[:, None] @ ab[:, None, :, :, None])[..., 0]


def _dot_derivatives(u: np.ndarray, b: np.ndarray, jets):
    """(phi, gradient, Hessian) at s = 0 of phi(s) = a^T g exp(S) b,
    S = sum_j s_j A_j, from the rows u = g^T a (N, d): shapes (N,), (N, r)
    and (N, r, r). exp(S) = I + S + S^2 / 2 + ..., so the gradient is
    a^T g A_j b and the Hessian is the symmetric part of a^T g A_i A_j b.
    """
    ab, aab = jets
    grad = (ab @ u[:, :, None])[:, :, 0]
    cross = (aab @ u[:, None, :, None])[..., 0]
    return _row_dots(u, b), grad, 0.5 * (cross + cross.swapaxes(1, 2))


# Step fractions of the line search after t = 0: 1, 1/2, ... down to the
# first t with t / 2 < MIN_STEP.
_TRIALS = np.concatenate([[0.0], 0.5 ** np.arange(1 + math.floor(-math.log2(MIN_STEP)))])


def _newton_ascent(action: CatalogAction, a: np.ndarray, b: np.ndarray,
                   g0: np.ndarray, *, gtol: float, ftol: float, maxiter: int,
                   stop: float | None = None):
    """Damped Newton ascent of phi_i(g) = a_i^T g b_i over the image group
    from ``g0[i]``, for every row i of ``a``, ``b`` (N, d) and ``g0``
    (N, d, d).

    Returns (elements, phi, converged), one row each. Each step expands
    phi_i(g exp(S)) in the orthonormal algebra basis A_j of
    ``action.algebra()`` (right-trivialized coordinates, which have no
    polar singularity) and solves with the Hessian's eigenvalues replaced by
    their absolute values, floored at HESSIAN_FLOOR |a_i| |b_i|, so it
    climbs at saddles and stays bounded where the maximizer is a whole
    subgroup. The line search halves the step until the Armijo condition
    holds. With -S^2 = Q diag(omega^2) Q^T (``num.skew_spectrum``),
    exp(tS) = Q cos(omega t) Q^T + S Q (sin(omega t) / omega) Q^T and, with
    u = g^T a, phi_i(g exp(tS)) = sum_k alpha_k cos(omega_k t)
    + beta_k sin(omega_k t) / omega_k for alpha = (u^T Q) * (Q^T b) and
    beta = (u^T S Q) * (Q^T b): every trial step is read off one real
    eigendecomposition (the eigenvalues of the Hermitian iS are +-omega_k),
    in one table of cos(omega_k t) and sin(omega_k t) / omega_k over the
    _TRIALS fractions (``num.rotation_terms``, t where omega_k = 0), and
    g exp(tS) is formed once, at the accepted t, from that table's column.

    A row has converged when max |grad phi_i| <= ``gtol``, phi_i >=
    ``stop``, or its Newton step's predicted gain grad . step / 2 is at most
    one ulp of the half squared gap ||a_i - g b_i||^2 / 2 = (|a_i|^2 +
    |b_i|^2) / 2 - phi_i, a step that cannot move the gap; these three end
    it without a step. A step whose relative gain is <= ``ftol`` (against
    max(|phi_i|, 1)) converges it after that step. maxiter steps or a
    failed line search leave it unconverged. Near a zero gap the ulp rule
    asks for a gain under about eps times the squared gap, so same-orbit
    pairs converge on ``gtol``. Rows step in lockstep but stop on their own
    rules alone, and every product is stacked per row, so a row's result is
    bit for bit the one it has alone.
    """
    # In C order: a copy of a broadcast g0 would keep its batch axis
    # innermost, and the products would sum a row unlike a row alone.
    g = np.array(g0, dtype=float, order="C")
    alg = action.algebra()
    alg_flat = alg.reshape(len(alg), g.shape[-1] ** 2)
    jets = _dot_jets(alg, b)
    u = (a[:, None, :] @ g)[:, 0]
    phi, grad, hess = _dot_derivatives(u, b, jets)
    aa, bb = _row_dots(a, a), _row_dots(b, b)
    floor = HESSIAN_FLOOR * np.sqrt(aa * bb)
    # A zero row's gradient and Hessian are zero too: any positive floor
    # gives it the zero step it converges on, where 0 / 0 would be NaN.
    floor[floor == 0.0] = 1.0
    half = 0.5 * (aa + bb)
    out_g, out_phi = np.empty_like(g), np.empty_like(phi)
    converged = np.zeros(len(g), dtype=bool)
    # Live rows are kept compacted; ``rows`` maps them back to the input,
    # and a row's result is written out when it leaves them.
    rows = np.arange(len(g))
    retired = np.zeros(len(g), dtype=bool)
    for it in range(maxiter + 1):
        lam, vec = np.linalg.eigh(hess)
        coef = (grad[:, None, :] @ vec)[:, 0] / np.maximum(np.abs(lam), floor[:, None])
        step = (vec @ coef[:, :, None])[:, :, 0]
        slope = _row_dots(grad, step)
        done = ((np.abs(grad).max(axis=1, initial=0.0) <= gtol)
                | (0.5 * slope <= num.EPS * (half - phi)))
        if stop is not None:
            done |= phi >= stop
        converged[rows[done]] = True
        live = ~(done | retired)
        if not live.all():
            out_g[rows[~live]], out_phi[rows[~live]] = g[~live], phi[~live]
            rows, g, u, phi, step, slope, a, b, floor, half = (
                x[live] for x in (rows, g, u, phi, step, slope, a, b, floor, half))
            jets = tuple(x[live] for x in jets)
        if not rows.size or it == maxiter:
            break
        sk = (step[:, None, :] @ alg_flat).reshape(g.shape)
        q, omega = num.skew_spectrum(sk)
        qb = (b[:, None, :] @ q)[:, 0]
        alpha = (u[:, None, :] @ q)[:, 0] * qb
        beta = (u[:, None, :] @ sk @ q)[:, 0] * qb
        # Column 0 is t = 0: Armijo compares the closed form with itself.
        # Against the derivative pass' phi, roundoff fails the tiny final
        # steps of the ftol = 1e-16 distance ascents.
        cos, sinc = num.rotation_terms(omega[:, None, :], _TRIALS[:, None])
        phi_t = (cos @ alpha[:, :, None] + sinc @ beta[:, :, None])[:, :, 0]
        phi_0 = phi_t[:, 0]
        passes = phi_t[:, 1:] >= phi_0[:, None] + ARMIJO * _TRIALS[1:] * slope[:, None]
        ok = passes.any(axis=1)
        first = passes.argmax(axis=1) + 1
        phi_q = phi_t[np.arange(len(rows)), first]
        flat = ok & (phi_q - phi_0 <= ftol * np.maximum(np.abs(phi_q), 1.0))
        converged[rows[flat]] = True
        retired = flat | ~ok
        i = np.arange(len(rows))
        qt = q.swapaxes(1, 2)
        rot = (q * cos[i, first, None]) @ qt + sk @ ((q * sinc[i, first, None]) @ qt)
        if ok.all():
            g = g @ rot
            u = (a[:, None, :] @ g)[:, 0]
        else:
            g[ok] = g[ok] @ rot[ok]
            u[ok] = (a[ok, None, :] @ g[ok])[:, 0]
        phi, grad, hess = _dot_derivatives(u, b, jets)
    out_g[rows], out_phi[rows] = g, phi
    return out_g, out_phi, converged


def _grid_argmax(els: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Index of the grid element g maximizing a^T g b = <a b^T, g>_F, from
    one product of the flattened grid with the flattened outer product. It
    also minimizes ||a - g b||, since ||a - g b||^2 = ||a||^2 + ||b||^2 - 2
    a^T g b for orthogonal g."""
    return int(np.argmax(els.reshape(len(els), -1) @ np.outer(a, b).ravel()))


def _gap(a: np.ndarray, b: np.ndarray):
    """Stack g (N, d, d) -> ||a - g_n b|| for every n."""
    def f(g):
        r = a - g @ b
        return np.sqrt(_row_dots(r, r))
    return f


def _group_min(ctx: Context, f, a: np.ndarray, b: np.ndarray, *,
               stop: float | None = None) -> float:
    """min over the group of f(g), f(g) = ||a - g b|| or -a^T g b, for f
    mapping a stack of elements to its values.

    Over a finite group f is formed for every element, so the minimum is
    exact over the elements as enumerated, orthogonal or not. Over a
    catalog action, where both f are smallest where phi = a^T g b is
    largest (||a - g b||^2 = ||a||^2 + ||b||^2 - 2 phi for orthogonal g),
    the ``_grid_argmax`` element of the default grid starts the Newton ascent
    of phi (``_newton_ascent``), and the result is the smaller f of the grid
    element and the ascent's end. ``stop`` is a value of the distance f;
    reaching it ends the ascent. An ascent that does not converge raises
    AmbiguityError.
    """
    with num.one_blas_thread():
        if isinstance(ctx, FiniteGroupData):
            return float(f(ctx.elements).min())
        params, els = ctx.grid()
        i = _grid_argmax(els, a, b)
        phi_stop = None if stop is None else 0.5 * (a @ a + b @ b - stop * stop)
        # gtol bounds the gradient of ||a - g b||^2, which is -2 grad phi.
        g, _, converged = _newton_ascent(ctx, a[None], b[None], ctx.element(params[i])[None],
                                         gtol=0.5e-12, ftol=1e-16, maxiter=300, stop=phi_stop)
        if not converged[0]:
            raise AmbiguityError(
                f"{ctx.id}: the Newton ascent from grid element {i} did not converge")
        return float(f(np.stack([els[i], g[0]])).min())


def quotient_distance(a: QuotientPoint, b: QuotientPoint) -> float:
    """Quotient metric d(Gx, Gy) = min_g ||x - g y|| (``_group_min``)."""
    # Contexts compare by identity: two actions may share an id and differ
    # in their generators.
    if a.context is not b.context:
        raise ValidationError("quotient_distance: points live in different contexts")
    x, y = a.representative, b.representative
    return _group_min(a.context, _gap(x, y), x, y)


def sphere_quotient_distance(a, b, context: Context) -> float:
    """Quotient metric of the unit sphere: min_g arccos <a, g b>.

    Inputs must be unit vectors. This is the intrinsic distance on SV/G.
    """
    check_context(context, "sphere_quotient_distance")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = context.dimension
    for v in (a, b):
        if v.shape != (d,):
            raise ValidationError(
                f"sphere_quotient_distance: point has shape {v.shape}, context dimension is {d}")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-6:  # false for NaN too
            raise ValidationError("sphere_quotient_distance requires unit vectors")
    best = -_group_min(context, lambda g: -_row_dots(g @ b, a), a, b)
    return float(math.acos(min(1.0, max(-1.0, best))))


def has_boundary(ctx: Context) -> bool:
    """Whether V/G has a codimension-one boundary stratum.

    Finite case: true iff some element is a hyperplane reflection, i.e. its
    fixed subspace has dimension exactly dim V - 1. Only elements with
    ||g - I||_F^2 near 4 get the rank test: rank(g - I) = 1 makes an
    orthogonal g a reflection, and a reflection has ||g - I||_F = 2. The
    prefilter reads ||g - I||_F^2 as 2 d - 2 tr g, which holds for
    orthogonal g and errs by at most d DEDUP_TOL for an enumerated element,
    far inside its 1e-3; every trace comes from one product of the flat
    element stack with the flattened identity. Catalog actions carry the
    verdict as metadata.
    """
    check_context(ctx, "has_boundary")
    if isinstance(ctx, CatalogAction):
        return ctx.metadata.has_boundary
    d = ctx.dimension
    if d == 0:
        return False
    els = ctx.elements
    flat = els.reshape(len(els), d * d)
    squared = 2.0 * (d - flat @ np.eye(d).ravel())
    diffs = els[np.abs(squared - 4.0) <= 1e-3] - np.eye(d)
    svals = np.linalg.svd(diffs, compute_uv=False)
    ranks = (svals > 1e-7).sum(axis=1)
    return bool(np.any(ranks == 1))


def sample_generic_point(ctx: Context, rng: np.random.Generator) -> np.ndarray:
    """A random unit vector on which ``ctx.is_generic`` holds: for a finite
    group, every nonidentity element moves it by more than
    GENERIC_MIN_MOVE; for a catalog action, its orbit has the generic
    dimension with GENERIC_MARGIN to spare, away from singular strata.
    Gives up after 1000 rejected draws.
    """
    check_context(ctx, "sample_generic_point")
    for _ in range(1000):
        x = num.random_unit_vector(rng, ctx.dimension)
        if ctx.is_generic(x):
            return x
    raise ValidationError("could not sample a generic point (singular action?)")


def check_sampling(sample_count: int, seed: int) -> None:
    """Raises ValidationError for a count or seed that is not an integer (a
    bool included; numpy integers pass), a negative seed, which numpy
    rejects, or no samples, over which every sampled check passes
    vacuously."""
    for what, value in (("sample count", sample_count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"the {what} must be an integer, got {value!r}")
    if seed < 0:
        raise ValidationError(f"the seed must be non-negative, got {seed}")
    if sample_count < 1:
        raise ValidationError(f"the sample count must be at least 1, got {sample_count}")


def orbit_equivalence_test(ctx: Context, candidate: np.ndarray, sample_count: int,
                           seed: int) -> bool:
    """Does ``candidate`` map every G-orbit to itself?

    For each sampled generic x the quotient distance between candidate*x and
    x must be <= 1e-7. A distance inside (1e-7, 1e-6] aborts as ambiguous
    (tolerance boundary); anything larger is a clean failure.
    """
    check_sampling(sample_count, seed)
    check_context(ctx, "orbit_equivalence_test")
    candidate = np.asarray(candidate, dtype=float)
    d = ctx.dimension
    if candidate.shape != (d, d):
        raise ValidationError("candidate shape does not match context dimension")
    if num.orthogonality_residual(candidate) > 1e-8:
        raise ValidationError("candidate is not orthogonal")
    rng = np.random.default_rng([seed])
    for _ in range(sample_count):
        x = sample_generic_point(ctx, rng)
        y = candidate @ x
        dist = _group_min(ctx, _gap(y, x), y, x, stop=ORBIT_MEMBERSHIP_TOL * 0.05)
        if dist <= ORBIT_MEMBERSHIP_TOL:
            continue
        if dist <= ORBIT_GUARD * ORBIT_MEMBERSHIP_TOL:
            raise KernelAmbiguityError(
                f"orbit membership distance {dist:.3e} inside the guard band "
                f"({ORBIT_MEMBERSHIP_TOL:.0e}, {ORBIT_GUARD * ORBIT_MEMBERSHIP_TOL:.0e}]"
            )
        return False
    return True


def _grid_maxima(els: np.ndarray, a_pts: np.ndarray, b_pts: np.ndarray) -> np.ndarray:
    """max over the elements ``els`` of a_p^T g b_p for every pair p.

    a^T g b = <a b^T, g>_F, so each chunk of 256 pairs is one product of
    its flattened outer products (256, d^2) with the flattened grid (d^2, N).
    """
    chunk = 256
    flat = els.reshape(len(els), -1).T
    out = np.empty(len(a_pts))
    for start in range(0, len(a_pts), chunk):
        asl = a_pts[start:start + chunk]
        bsl = b_pts[start:start + chunk]
        outer = (asl[:, :, None] * bsl[:, None, :]).reshape(len(asl), -1)
        out[start:start + chunk] = (outer @ flat).max(axis=1)
    return out


# Sector screening: the maximum over every SCREEN_STRIDE-th grid element
# bounds a pair's grid maximum from below, the grid maxima are completed
# SCREEN_CHUNK pairs at a time, and SCREEN_MARGIN covers the roundoff
# between the two products.
SCREEN_STRIDE = 8
SCREEN_CHUNK = 64
SCREEN_MARGIN = 1e-12


def _screen_pairs(action: CatalogAction, a_pts: np.ndarray, b_pts: np.ndarray) -> np.ndarray:
    """The three pairs with the largest arccos of their grid maximum
    (``_grid_maxima``), largest first, without forming every pair's.

    Pairs are completed in ascending order of their lower bound, and the
    rest are skipped once the next bound exceeds the third smallest grid
    maximum found: every later pair's maximum is at least its bound.
    """
    _, els = action.grid()
    bound = _grid_maxima(els[::SCREEN_STRIDE], a_pts, b_pts)
    order = np.argsort(bound, kind="stable")
    maxima = []
    for start in range(0, len(order), SCREEN_CHUNK):
        if start and bound[order[start]] > np.partition(maxima, 2)[2] + SCREEN_MARGIN:
            break
        chunk = order[start:start + SCREEN_CHUNK]
        maxima = np.concatenate([maxima, _grid_maxima(els, a_pts[chunk], b_pts[chunk])])
    return order[np.argsort(_arccos(maxima))[::-1][:3]]


def _scores(els: np.ndarray, a_pts: np.ndarray, b_pts: np.ndarray) -> np.ndarray:
    """a_p^T g b_p = <a_p b_p^T, g>_F for every pair p and element g of
    ``els``, shape (pairs, elements): one stacked product per pair, so a
    pair's scores do not depend on the other pairs."""
    outer = (a_pts[:, :, None] * b_pts[:, None, :]).reshape(len(a_pts), 1, -1)
    return (outer @ els.reshape(len(els), -1).T)[:, 0]


def _refined_sphere_dots(action: CatalogAction, a_pts: np.ndarray, b_pts: np.ndarray,
                         stop: float | None = None):
    """(refined max over g of a^T g b, maximizing elements) for every pair
    of rows of ``a_pts`` and ``b_pts``, refined together, each from its
    grid argmax. An ascent that reaches ``stop`` ends there, short of the
    maximum. A pair's result is bit for bit the one it has alone.
    """
    _, els = action.grid()
    dots = _scores(els, a_pts, b_pts)
    best = dots.argmax(axis=1)
    g0 = els[best]
    base = dots[np.arange(len(best)), best]
    # Tolerances sized for the arccos: a dot resolved to ~1e-10 puts the
    # angle within ~1e-9/sin(theta). Tighter settings never terminate at
    # strata pairs, where the maximizer is a whole subgroup and the
    # gradient cannot vanish along it.
    g, phi, _ = _newton_ascent(action, a_pts, b_pts, g0, gtol=1e-8, ftol=1e-12,
                               maxiter=150, stop=stop)
    better = phi >= base
    return np.where(better, phi, base), np.where(better[:, None, None], g, g0)


def _unsettled(known: np.ndarray, a_pts: np.ndarray, b_pts: np.ndarray,
               bar: float) -> np.ndarray:
    """Indices of the pairs that no element of ``known`` lifts to ``bar``,
    from one product of their outer products with the elements. Any other
    pair has max over the group of a^T g b >= bar, so it cannot pass the
    sector climb's bar."""
    return np.flatnonzero(_scores(known, a_pts, b_pts).max(axis=1) < bar)


def _arccos(dots):
    return np.arccos(np.clip(dots, -1.0, 1.0))


def sector_angle_estimate(action: CatalogAction, sample_count: int, seed: int) -> float:
    """Angle of the planar sector SV/G for a cohomogeneity-2 action.

    The sector angle equals the diameter of SV/G: the largest sphere
    quotient distance arccos f(a, b), f(a, b) = max over g of a^T g b. The
    best of the sampled unit-vector pairs starts a descent of f on the pair
    of spheres: the three pairs of smallest grid maximum are refined. The
    screening (``_screen_pairs``) bounds each pair's grid maximum from
    below on every SCREEN_STRIDE-th grid element and completes the full
    maxima only of pairs whose bound can still rank them in the top three,
    so it picks the same three pairs, in the same order, as ranking every
    pair's grid maximum. Where the
    maximizer g* is unique, f has the envelope gradient g* b in a and
    g*^T a in b (Danskin), so each step tries a few fractions of one step
    along it, a then b, as one batch of refinements, and keeps the longest
    that gains. The climb keeps every element it has refined, the three
    pairs' maximizers and each candidate's end element, and refines only
    the candidates that none of them lifts to the acceptance bar
    (``_unsettled``): any other is a miss, because a^T g b bounds
    max_G a^T g b from below. Each refinement is bit for bit the one the
    row has alone, so the refined rows keep the values they have in the
    whole batch, and ``budget`` counts every candidate. The result is the converged refinement of the last pair
    kept. It is not monotone in ``sample_count``: a better starting pair
    can end its climb on a lower ridge.
    """
    check_sampling(sample_count, seed)
    if not isinstance(action, CatalogAction):
        raise ValidationError(
            f"sector_angle_estimate expects a catalog action, got {type(action).__name__}")
    if action.cohomogeneity != 2:
        raise ValidationError(
            f"sector_angle_estimate requires cohomogeneity 2, "
            f"{action.id} has {action.cohomogeneity}"
        )
    with num.one_blas_thread():
        d = action.dimension
        pairs = num.random_unit_rows(np.random.default_rng([seed]), (sample_count, 2, d))
        a_pts, b_pts = pairs[:, 0], pairs[:, 1]

        top = _screen_pairs(action, a_pts, b_pts)

        # Every reported or compared value is a fully converged refinement from
        # the grid argmax: an under-resolved group maximum (or one from a stale
        # basin) inflates the arccos, and one inflated value poisons the
        # acceptance baseline for every later honest improvement.
        dots, found = _refined_sphere_dots(action, a_pts[top], b_pts[top])
        vals = _arccos(dots)
        i = int(np.argmax(vals))
        a, b = a_pts[top[i]], b_pts[top[i]]
        current, g_best = float(vals[i]), found[i]
        # Every element refined so far; each lower-bounds f at any pair.
        known = found

        # Each batch tries the step and five halvings of it; a gain at the full
        # step doubles the step, a batch without one halves it.
        fractions = 0.5 ** np.arange(6)[:, None]
        step = 0.3
        budget = 1200
        while step >= 1e-4 and budget > 0:
            for which in (0, 1):
                point, other = (a, b) if which == 0 else (b, a)
                # The envelope gradient, projected onto the sphere's tangent
                # space at the point; it is zero only where a = +-g* b.
                grad = g_best @ other if which == 0 else g_best.T @ other
                grad -= (point @ grad) * point
                cands = point - step * fractions * (grad / (np.linalg.norm(grad) or 1.0))
                cands /= np.linalg.norm(cands, axis=1, keepdims=True)
                others = np.broadcast_to(other, cands.shape)
                pair = (cands, others) if which == 0 else (others, cands)
                # Margin above the refinement noise, or the climb walks on noise
                # forever; gains under it are irrelevant at the accuracy the
                # estimate targets. The ascent only raises the dot, so one that
                # reaches the bar's cosine is rejected whatever it would
                # converge to, and stops there; a candidate that a known
                # element already lifts to the bar is rejected unrefined.
                bar = math.cos(current + 1e-5)
                budget -= len(cands)
                rest = _unsettled(known, *pair, bar)
                if rest.size:
                    dots, found = _refined_sphere_dots(action, *(x[rest] for x in pair), stop=bar)
                    known = np.concatenate([known, found])
                    vals = _arccos(dots)
                    hits = np.flatnonzero((vals > current + 1e-5) & (dots < bar))
                if not rest.size or not hits.size:
                    step *= 0.5
                    continue
                h = int(hits[0])
                if which == 0:
                    a = cands[rest[h]]
                else:
                    b = cands[rest[h]]
                current, g_best = float(vals[h]), found[h]
                if rest[h] == 0:
                    step *= 2.0
        return current
