"""Quotient-metric oracle and orbit-space geometry probes.

The quotient distance between orbits is d(Gx, Gy) = min_g ||x - g y||. For
finite groups the minimum is exact over the enumerated elements. For catalog
actions it is approximated from below-in-parameters / above-in-value: a
pass over the action's default grid (DEFAULT_DENSITY elements; density m
has chordal error O(1/m)), then local refinement over the sampler
parameters: a damped Newton ascent of phi(t) = a^T g(t) b with its exact
gradient and Hessian from the closed form of the action's one-parameter
subgroups, and golden-section coordinate sweeps only when the ascent does
not converge. Only ``_batched_max_dots`` reads a
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
        rep = np.asarray(self.representative, dtype=float)
        object.__setattr__(self, "representative", rep)
        d = self.context.dimension
        if rep.shape != (d,):
            raise ValidationError(
                f"point has shape {rep.shape}, context dimension is {d}"
            )


def _newton_ascent(action: CatalogAction, a: np.ndarray, b: np.ndarray,
                   p0: np.ndarray, *, gtol: float, ftol: float, maxiter: int,
                   stop: float | None = None):
    """Damped Newton ascent of phi_i(t) = a_i^T g(t) b_i from ``p0[i]``, for
    every row i of ``a``, ``b`` (N, d) and ``p0`` (N, k).

    Returns (params, phi, converged), one row each. Each step solves with
    the exact Hessian's eigenvalues replaced by their absolute values,
    floored at HESSIAN_FLOOR |a_i| |b_i|, so it climbs at saddles and stays
    bounded where the maximizer is a whole subgroup; it then halves until
    the Armijo condition holds. A row has converged when max |grad phi_i|
    <= ``gtol``, its relative gain <= ``ftol`` (against max(|phi_i|, 1)),
    or phi_i >= ``stop``; maxiter steps or a failed line search leave it
    unconverged. Rows step in lockstep but stop on their own rule alone,
    so a row's result does not depend on the other rows.
    """
    p = np.array(p0, dtype=float)
    phi, grad, hess = action.dot_derivatives(p, a, b)
    floor = HESSIAN_FLOOR * np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    out_p, out_phi = p.copy(), phi.copy()
    converged = np.zeros(len(p), dtype=bool)
    # Live rows are kept compacted; ``rows`` maps them back to the input.
    rows = np.arange(len(p))
    retired = np.zeros(len(p), dtype=bool)
    for it in range(maxiter + 1):
        done = np.abs(grad).max(axis=1) <= gtol
        if stop is not None:
            done |= phi >= stop
        converged[rows[done]] = True
        live = ~(done | retired)
        if not live.all():
            rows, p, phi, grad, hess, a, b, floor = (
                x[live] for x in (rows, p, phi, grad, hess, a, b, floor))
        if not rows.size or it == maxiter:
            break
        lam, vec = np.linalg.eigh(hess)
        coef = (grad[:, None, :] @ vec)[:, 0] / np.maximum(np.abs(lam), floor[:, None])
        step = (vec @ coef[:, :, None])[:, :, 0]
        slope = np.einsum("ij,ij->i", grad, step)
        # Every pass evaluates all live rows, the accepted ones again at
        # their accepted step: at these sizes a subset costs the same.
        t = np.ones(len(rows))
        while True:
            q = p + t[:, None] * step
            phi_q, grad_q, hess_q = action.dot_derivatives(q, a, b)
            ok = phi_q >= phi + ARMIJO * t * slope
            failed = ~ok & (0.5 * t < MIN_STEP)
            pending = ~(ok | failed)
            if not pending.any():
                break
            t[pending] *= 0.5
        flat = ok & (phi_q - phi <= ftol * np.maximum(np.abs(phi_q), 1.0))
        converged[rows[flat]] = True
        retired = flat | failed
        p[ok], phi[ok], grad[ok], hess[ok] = q[ok], phi_q[ok], grad_q[ok], hess_q[ok]
        out_p[rows], out_phi[rows] = p, phi
    return out_p, out_phi, converged


def _catalog_refine(action: CatalogAction, f, a: np.ndarray, b: np.ndarray,
                    p0: np.ndarray, *, rounds: int, sweeps: int,
                    stop: float | None) -> float:
    """Local refinement of f from a grid start, where f(p) is
    ||a - g(p) b|| or -a^T g(p) b, read through ``action.element``.

    Both are smallest where phi = a^T g b is largest, since
    ||a - g b||^2 = ||a||^2 + ||b||^2 - 2 phi for orthogonal g, so the
    Newton ascent of phi runs first; it tracks the curved ridges where
    axis-aligned sweeps zigzag (Euler angles near a polar degeneracy couple
    two axes). ``stop`` is a value of the distance f; reaching it ends the
    ascent. Only an unconverged ascent falls through to derivative-free
    golden-section coordinate sweeps on f (``rounds`` of them, spans
    halving per round, from the default grid spacing).
    """
    spans0 = action.grid_spacings()
    p = np.array(p0, dtype=float)
    best = f(p)
    phi_stop = None if stop is None else 0.5 * (a @ a + b @ b - stop * stop)
    # gtol bounds the gradient of ||a - g b||^2, which is -2 grad phi.
    q, _, converged = _newton_ascent(action, a[None], b[None], p[None], gtol=0.5e-12,
                                     ftol=1e-16, maxiter=300, stop=phi_stop)
    q, converged = q[0], bool(converged[0])
    val = f(q)
    if val < best:
        best = val
        p = q
    if converged or (stop is not None and best <= stop):
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

    refined = _catalog_refine(action, f, a, b, params[i],
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

    refined = -_catalog_refine(action, f, a, b, params[i],
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
    orthogonal g a reflection, and a reflection has ||g - I||_F = 2. The
    prefilter reads ||g - I||_F^2 as ||g||_F^2 - 2 tr g + d, which needs no
    stack of differences. Catalog actions carry the verdict as metadata.
    """
    if isinstance(ctx, CatalogAction):
        return ctx.metadata.has_boundary
    d = ctx.dimension
    if d == 0:
        return False
    els = ctx.elements
    flat = els.reshape(len(els), d * d)
    squared = np.einsum("ni,ni->n", flat, flat) - 2.0 * np.trace(els, axis1=1, axis2=2) + d
    diffs = els[np.abs(squared - 4.0) <= 1e-3] - np.eye(d)
    svals = np.linalg.svd(diffs, compute_uv=False)
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


def _refined_sphere_dots(action: CatalogAction, a_pts: np.ndarray, b_pts: np.ndarray,
                         start: np.ndarray | None = None, stop: float | None = None):
    """(refined max over g of a^T g b, maximizing params) for every pair
    of rows of ``a_pts`` and ``b_pts``, refined together.

    ``start`` warm-starts every ascent from a nearby pair's maximizer
    instead of the grid argmax; a stale basin then under-resolves the
    maximum, so warm-started values need periodic cold re-grounding. An
    ascent that reaches ``stop`` ends there, short of the maximum.
    """
    if start is None:
        params, els = action.grid()
        dots = np.einsum("gij,pi,pj->pg", els, a_pts, b_pts)
        best = dots.argmax(axis=1)
        p0 = params[best]
        base = dots[np.arange(len(best)), best]
    else:
        p0 = np.tile(np.asarray(start, dtype=float), (len(a_pts), 1))
        base = np.einsum("pi,ij,pj->p", a_pts, action.element(start), b_pts)
    # Tolerances sized for the arccos: a dot resolved to ~1e-10 puts the
    # angle within ~1e-9/sin(theta). Tighter settings never terminate at
    # strata pairs, where the maximizer is a whole subgroup and the
    # gradient cannot vanish along it.
    p, phi, _ = _newton_ascent(action, a_pts, b_pts, p0, gtol=1e-8, ftol=1e-12,
                               maxiter=150, stop=stop)
    better = phi >= base
    return np.where(better, phi, base), np.where(better[:, None], p, p0)


def _arccos(dots):
    return np.arccos(np.clip(dots, -1.0, 1.0))


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
    pairs = num.random_unit_vectors(np.random.default_rng([seed]), sample_count, d)
    a_pts, b_pts = pairs[:, 0], pairs[:, 1]

    max_dots = _batched_max_dots(action, a_pts, b_pts)
    top = np.argsort(_arccos(max_dots))[::-1][:3]

    # Every reported or compared value is a fully converged refinement: an
    # under-resolved group maximum inflates the arccos, and one inflated
    # climb value poisons the acceptance baseline for every later honest
    # improvement.
    vals = _arccos(_refined_sphere_dots(action, a_pts[top], b_pts[top])[0])
    best_val = 0.0
    best_pair = None
    for idx, val in zip(top, vals):
        if val > best_val:
            best_val = float(val)
            best_pair = (a_pts[idx].copy(), b_pts[idx].copy())
    if best_pair is None:
        return best_val

    a, b = best_pair

    def cold(a, b):
        dot, p = _refined_sphere_dots(action, a[None], b[None])
        return float(_arccos(dot[0])), p[0]

    current, p_grp = cold(a, b)
    # Row 2i moves coordinate i up by the step, row 2i + 1 moves it down.
    moves = np.kron(np.eye(d), [[1.0], [-1.0]])
    step = 0.3
    budget = 1200
    while step >= 1e-4 and budget > 0:
        improved = False
        for which in (0, 1):
            cands = (a if which == 0 else b) + step * moves
            cands /= np.linalg.norm(cands, axis=1, keepdims=True)
            # The candidates of one point are fixed before its sweep; only
            # the warm start and the bar move when one is accepted. They are
            # refined together from the current warm start, and the batch
            # restarts after the first accepted one, so accept and reject
            # follow the order of a one-by-one sweep.
            first = 0
            while first < len(cands):
                batch = cands[first:]
                other = np.broadcast_to(b if which == 0 else a, batch.shape)
                # Margin above the warm-start value noise, or the climb
                # walks on noise forever; gains under it are irrelevant at
                # the accuracy the estimate targets. The ascent only raises
                # the dot, so one that reaches the bar's cosine is rejected
                # whatever it would converge to, and stops there.
                bar = math.cos(current + 1e-5)
                dots, found = _refined_sphere_dots(
                    action, *((batch, other) if which == 0 else (other, batch)),
                    start=p_grp, stop=bar)
                vals = _arccos(dots)
                hits = np.flatnonzero((vals > current + 1e-5) & (dots < bar))
                if not hits.size:
                    budget -= len(batch)
                    break
                h = int(hits[0])
                budget -= h + 1
                first += h + 1
                if which == 0:
                    a = batch[h]
                else:
                    b = batch[h]
                current, p_grp = float(vals[h]), found[h]
                improved = True
        if not improved:
            # Cold re-ground before shrinking the step: a warm-started
            # climb can drift into a stale basin whose inflated values
            # both block real moves and overstate the final answer.
            cold_val, cold_p = cold(a, b)
            if cold_val < current:
                current, p_grp = cold_val, cold_p
            step *= 0.5
    cold_val, _ = cold(a, b)
    return max(best_val, min(current, cold_val))
