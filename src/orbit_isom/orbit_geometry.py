"""Quotient-metric oracle and orbit-space geometry probes.

The quotient distance between orbits is d(Gx, Gy) = min_g ||x - g y||. For
finite groups the minimum is exact over the enumerated elements. For catalog
actions it is approximated from below-in-parameters / above-in-value: a
pass over the action's default grid (DEFAULT_DENSITY elements; density m
has chordal error O(1/m)), then local refinement over the sampler
parameters: L-BFGS-B with the exact gradient from the action's
one-parameter-subgroup Jacobian, and golden-section coordinate sweeps only
when L-BFGS-B reports no convergence. Only ``_batched_max_dots`` reads a
grid of another density, for the unrefined Hopf metric check.
Refined values always upper-bound the true distance, since they are minima
over a finite subset of the group.

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
from .errors import KernelAmbiguityError, ValidationError
from .repr_model import FiniteGroupData

ORBIT_MEMBERSHIP_TOL = 1e-7
ORBIT_GUARD = 10.0
GENERIC_MIN_MOVE = 1e-4

Context = FiniteGroupData | CatalogAction


@dataclass(frozen=True)
class QuotientPoint:
    """A point of V together with the action context defining its orbit."""

    representative: np.ndarray
    context: Context

    def __post_init__(self):
        rep = np.asarray(self.representative, dtype=float)
        object.__setattr__(self, "representative", rep)
        d = self.context.dimension
        if rep.shape != (d,):
            raise ValidationError(
                f"point has shape {rep.shape}, context dimension is {d}"
            )


def _minimize(cost, p0: np.ndarray, **options):
    """L-BFGS-B on ``cost``, which returns the value and exact gradient.

    scipy.optimize is imported on the first refinement rather than with
    the package: analyses that refine nothing never load it.
    """
    from scipy import optimize

    return optimize.minimize(cost, p0, method="L-BFGS-B", jac=True, options=options)


def _catalog_refine(action: CatalogAction, f, cost, p0: np.ndarray, *,
                    rounds: int, sweeps: int, stop: float | None) -> float:
    """Local refinement of f over the sampler parameters from a grid start.

    A quasi-Newton stage runs first on ``cost``, which returns the value and
    exact gradient of a smooth cost with the same minimizers as f; it
    tracks the curved ridges where axis-aligned sweeps zigzag (Euler angles
    near a polar degeneracy couple two axes). It returns as soon as
    L-BFGS-B reports convergence or the value reaches ``stop``; only an
    unconverged run (e.g. an abnormal line-search exit) falls through to
    derivative-free golden-section coordinate sweeps on f (``rounds`` of
    them, spans halving per round, from the default grid spacing).
    """
    spans0 = action.grid_spacings()
    p = np.array(p0, dtype=float)
    best = f(p)
    res = _minimize(cost, p, gtol=1e-12, ftol=1e-16, maxiter=300)
    val = f(res.x)
    if val < best:
        best = val
        p = np.asarray(res.x, dtype=float)
    if res.success or (stop is not None and best <= stop):
        return best
    for r in range(rounds):
        p, val = num.coordinate_descent(
            f, p, spans0 * (0.5 ** r), sweeps=sweeps, xtol=1e-13,
            target=stop,
        )
        best = min(best, val)
        if stop is not None and best <= stop:
            break
    return best


def _neg_dot_cost(action: CatalogAction, a: np.ndarray, b: np.ndarray):
    """p -> (-a^T g(p) b, its exact gradient -a^T J)."""
    def cost(p):
        gb, jac = action.apply_with_jacobian(p, b)
        return -float(a @ gb), -(a @ jac)

    return cost


def _catalog_min_norm(action: CatalogAction, a: np.ndarray, b: np.ndarray, *,
                      rounds: int = 3, sweeps: int = 8,
                      stop: float | None = None,
                      refine_cutoff: float | None = None) -> float:
    """min over g of ||a - g b||: the default grid, then refinement.

    ``refine_cutoff`` skips refinement when the grid value is already large
    (refinement only lowers the estimate toward the true distance, so a
    clearly-large grid value cannot refine into the pass region).
    """
    params, els = action.grid()
    vals = np.linalg.norm(a[None, :] - els @ b, axis=1)
    i = int(np.argmin(vals))
    grid_best = float(vals[i])
    if refine_cutoff is not None and grid_best > refine_cutoff:
        return grid_best

    def f(p):
        return float(np.linalg.norm(a - action.element(p) @ b))

    def squared(p):
        # ||a - g b||^2 is smooth at a true zero, where the norm is not;
        # its gradient is -2 r^T J with r = a - g b.
        gb, jac = action.apply_with_jacobian(p, b)
        r = a - gb
        return float(r @ r), -2.0 * (r @ jac)

    refined = _catalog_refine(action, f, squared, params[i],
                              rounds=rounds, sweeps=sweeps, stop=stop)
    return min(grid_best, refined)


def _catalog_max_dot(action: CatalogAction, a: np.ndarray, b: np.ndarray, *,
                     rounds: int = 1, sweeps: int = 6) -> float:
    params, els = action.grid()
    dots = (els @ b) @ a
    i = int(np.argmax(dots))
    grid_best = float(dots[i])

    def f(p):
        return -float(a @ (action.element(p) @ b))

    refined = -_catalog_refine(action, f, _neg_dot_cost(action, a, b), params[i],
                               rounds=rounds, sweeps=sweeps, stop=None)
    return max(grid_best, refined)


def quotient_distance(a: QuotientPoint, b: QuotientPoint) -> float:
    """Quotient metric d(Gx, Gy) = min_g ||x - g y||.

    Exact for finite contexts; grid + refinement for catalog contexts.
    """
    # Contexts compare by identity: two actions may share an id and differ
    # in their generators.
    if a.context is not b.context:
        raise ValidationError("quotient_distance: points live in different contexts")
    ctx = a.context
    x, y = a.representative, b.representative
    if isinstance(ctx, FiniteGroupData):
        return float(np.linalg.norm(x[None, :] - ctx.elements @ y, axis=1).min())
    return _catalog_min_norm(ctx, x, y)


def sphere_quotient_distance(a, b, context: Context) -> float:
    """Quotient metric of the unit sphere: min_g arccos <a, g b>.

    Inputs must be unit vectors. This is the intrinsic distance on SV/G.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for v in (a, b):
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValidationError("sphere_quotient_distance requires unit vectors")
    if isinstance(context, FiniteGroupData):
        best = float(((context.elements @ b) @ a).max())
    else:
        best = _catalog_max_dot(context, a, b)
    return float(math.acos(min(1.0, max(-1.0, best))))


def has_boundary(ctx: Context) -> bool:
    """Whether V/G has a codimension-one boundary stratum.

    Finite case: true iff some element is a hyperplane reflection, i.e. its
    fixed subspace has dimension exactly dim V - 1. Only elements with
    ||g - I||_F^2 near 4 get the rank test: rank(g - I) = 1 makes an
    orthogonal g a reflection, and a reflection has ||g - I||_F = 2. Catalog
    actions carry the verdict as metadata.
    """
    if isinstance(ctx, CatalogAction):
        return ctx.metadata.has_boundary
    d = ctx.dimension
    if d == 0:
        return False
    diffs = ctx.elements - np.eye(d)[None, :, :]
    squared = np.einsum("nij,nij->n", diffs, diffs)
    svals = np.linalg.svd(diffs[np.abs(squared - 4.0) <= 1e-3], compute_uv=False)
    ranks = (svals > 1e-7).sum(axis=1)
    return bool(np.any(ranks == 1))


def sample_generic_point(ctx: Context, rng: np.random.Generator) -> np.ndarray:
    """A unit vector with trivial isotropy margin.

    Finite case: rejected while any nonidentity element moves the point by
    less than GENERIC_MIN_MOVE. Catalog case: rejected unless
    ``CatalogAction.is_generic`` holds, i.e. the orbit has the generic
    dimension with GENERIC_MARGIN to spare, away from singular strata.
    Gives up after 1000 rejected draws.
    """
    d = ctx.dimension
    for _ in range(1000):
        x = num.random_unit_vector(rng, d)
        if isinstance(ctx, FiniteGroupData):
            if ctx.order == 1:
                return x
            moved = np.linalg.norm(x[None, :] - ctx.elements @ x, axis=1)
            moved[ctx.identity_index] = np.inf
            if moved.min() > GENERIC_MIN_MOVE:
                return x
        else:
            if ctx.is_generic(x):
                return x
    raise ValidationError("could not sample a generic point (singular action?)")


def orbit_equivalence_test(ctx: Context, candidate: np.ndarray, sample_count: int,
                           seed: int) -> bool:
    """Does ``candidate`` map every G-orbit to itself?

    For each sampled generic x the quotient distance between candidate*x and
    x must be <= 1e-7. A distance inside (1e-7, 1e-6] aborts as ambiguous
    (tolerance boundary); anything larger is a clean failure.
    """
    candidate = np.asarray(candidate, dtype=float)
    d = ctx.dimension
    if candidate.shape != (d, d):
        raise ValidationError("candidate shape does not match context dimension")
    if num.orthogonality_residual(candidate) > 1e-8:
        raise ValidationError("candidate is not orthogonal")
    if isinstance(ctx, CatalogAction):
        # A true zero of the distance can sit anywhere inside a grid cell,
        # so the skip-refinement cutoff must dominate the cell diagonal
        # (unit vectors give Lipschitz constant about 1 per parameter).
        cell = float(np.linalg.norm(ctx.grid_spacings()))
    rng = np.random.default_rng([seed])
    for _ in range(sample_count):
        x = sample_generic_point(ctx, rng)
        y = candidate @ x
        if isinstance(ctx, FiniteGroupData):
            dist = float(np.linalg.norm(y[None, :] - ctx.elements @ x, axis=1).min())
        else:
            dist = _catalog_min_norm(
                ctx, y, x, rounds=4, sweeps=8,
                stop=ORBIT_MEMBERSHIP_TOL * 0.05,
                refine_cutoff=max(0.01, 2.0 * cell),
            )
        if dist <= ORBIT_MEMBERSHIP_TOL:
            continue
        if dist <= ORBIT_GUARD * ORBIT_MEMBERSHIP_TOL:
            raise KernelAmbiguityError(
                f"orbit membership distance {dist:.3e} inside the guard band "
                f"({ORBIT_MEMBERSHIP_TOL:.0e}, {ORBIT_GUARD * ORBIT_MEMBERSHIP_TOL:.0e}]"
            )
        return False
    return True


def _batched_max_dots(action: CatalogAction, a_pts: np.ndarray, b_pts: np.ndarray,
                      density: int | None = None) -> np.ndarray:
    """max over the grid of ``density`` elements (DEFAULT_DENSITY if None)
    of a_p^T g_n b_p for every pair p, unrefined.

    a^T g b = <a b^T, g>_F, so each chunk of 256 pairs is one product of
    its flattened outer products (256, d^2) with the flattened grid (d^2, N).
    """
    chunk = 256
    _, els = action.grid(density)
    flat = els.reshape(len(els), -1).T
    out = np.empty(len(a_pts))
    for start in range(0, len(a_pts), chunk):
        asl = a_pts[start:start + chunk]
        bsl = b_pts[start:start + chunk]
        outer = (asl[:, :, None] * bsl[:, None, :]).reshape(len(asl), -1)
        out[start:start + chunk] = (outer @ flat).max(axis=1)
    return out


def _refined_sphere_distance(action: CatalogAction, a: np.ndarray, b: np.ndarray,
                             start: np.ndarray | None = None):
    """(arccos of the refined max dot, maximizing params).

    ``start`` warm-starts the quasi-Newton stage from a nearby pair's
    maximizer instead of the grid argmax; a stale basin then under-resolves
    the maximum, so warm-started values need periodic cold re-grounding.
    """
    if start is None:
        params, els = action.grid()
        dots = (els @ b) @ a
        i = int(np.argmax(dots))
        p0 = params[i]
        base = float(dots[i])
    else:
        p0 = np.asarray(start, dtype=float)
        base = float(a @ (action.element(p0) @ b))
    # Tolerances sized for the arccos: a dot resolved to ~1e-10 puts the
    # angle within ~1e-9/sin(theta). Tighter settings never terminate at
    # strata pairs, where the maximizer is a whole subgroup and the
    # gradient cannot vanish along it.
    res = _minimize(_neg_dot_cost(action, a, b), p0, gtol=1e-8, ftol=1e-12, maxiter=150)
    if -float(res.fun) >= base:
        best, p_best = -float(res.fun), np.asarray(res.x, dtype=float)
    else:
        best, p_best = base, p0
    return float(math.acos(min(1.0, max(-1.0, best)))), p_best


def sector_angle_estimate(action: CatalogAction, sample_count: int, seed: int) -> float:
    """Angle of the planar sector SV/G for a cohomogeneity-2 action.

    The sector angle equals the diameter of SV/G, estimated as the maximum
    sphere quotient distance over sampled unit-vector pairs followed by a
    local hill-climb refinement from the best pair. Converges from below as
    samples accumulate (pairs are drawn from a seeded stream, so runs with
    nested sample counts see nested samples).
    """
    if action.metadata.cohomogeneity != 2:
        raise ValidationError(
            f"sector_angle_estimate requires cohomogeneity 2, "
            f"{action.id} has {action.metadata.cohomogeneity}"
        )
    d = action.dimension
    rng = np.random.default_rng([seed])
    a_pts = np.empty((sample_count, d))
    b_pts = np.empty((sample_count, d))
    for i in range(sample_count):
        a_pts[i] = num.random_unit_vector(rng, d)
        b_pts[i] = num.random_unit_vector(rng, d)

    max_dots = _batched_max_dots(action, a_pts, b_pts)
    raw = np.arccos(np.clip(max_dots, -1.0, 1.0))
    order = np.argsort(raw)[::-1]

    # Every reported or compared value is a fully converged refinement: an
    # under-resolved group maximum inflates the arccos, and one inflated
    # climb value poisons the acceptance baseline for every later honest
    # improvement.
    best_val = 0.0
    best_pair = None
    for idx in order[:3]:
        val, _ = _refined_sphere_distance(action, a_pts[idx], b_pts[idx])
        if val > best_val:
            best_val = val
            best_pair = (a_pts[idx].copy(), b_pts[idx].copy())
    if best_pair is None:
        return best_val

    a, b = best_pair
    current, p_grp = _refined_sphere_distance(action, a, b)
    step = 0.3
    budget = 1200
    while step >= 1e-4 and budget > 0:
        improved = False
        for which in (0, 1):
            pt = a if which == 0 else b
            for axis in range(d):
                for sign in (1.0, -1.0):
                    cand = pt.copy()
                    cand[axis] += sign * step
                    cand /= np.linalg.norm(cand)
                    pair = (cand, b) if which == 0 else (a, cand)
                    val, p_cand = _refined_sphere_distance(action, *pair, start=p_grp)
                    budget -= 1
                    # Margin above the warm-start value noise, or the climb
                    # walks on noise forever; gains under it are irrelevant
                    # at the accuracy the estimate targets.
                    if val > current + 1e-5:
                        if which == 0:
                            a = cand
                        else:
                            b = cand
                        current = val
                        p_grp = p_cand
                        improved = True
        if not improved:
            # Cold re-ground before shrinking the step: a warm-started
            # climb can drift into a stale basin whose inflated values
            # both block real moves and overstate the final answer.
            cold_val, cold_p = _refined_sphere_distance(action, a, b)
            if cold_val < current:
                current, p_grp = cold_val, cold_p
            step *= 0.5
    cold_val, _ = _refined_sphere_distance(action, a, b)
    return max(best_val, min(current, cold_val))
