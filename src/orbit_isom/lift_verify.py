"""Constructive lifting on the Hopf quotient, plus the descend check.

Only rotations, the identity component of Isom(S^2(1/2)), are lifted: an
isometry outside the identity component need not lift, and telling whether
one does needs the isotropy groups of the orbits it swaps, which nothing
here computes.

The circle acts on R^4 = C^2, z = x1 + i x2, w = x3 + i x4, by unit complex
numbers. Its invariant quadratic forms h(x)_l = x^T M_l x,

    h(z, w) = (Re(z conj(w)), Im(z conj(w)), (|z|^2 - |w|^2) / 2),

map the unit sphere onto the sphere of radius 1/2, one point per orbit. A
rotation exp(W) of it lifts to exp(A), A skew, when h(exp(A) x) = exp(W) h(x);
differentiating gives the linear lifting conditions [M_l, A] = sum_m W_lm M_m.
They are solved once over all of so(4), and their null space, the skew A
fixing every invariant, is checked to be the action's circle (Lie(ker p)).
Equivariance is an output: every lift is checked to commute with the action.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from . import orbit_geometry
from .catalog import get_action
from .errors import InternalCheckError, ValidationError
from .orbit_geometry import (
    QuotientPoint,
    check_context,
    check_sampling,
    quotient_distance,
)

HOPF_ACTION_ID = "hopf-u1-r4"

# h(x)_l = x^T HOPF_FORMS[l] x
HOPF_FORMS = 0.5 * np.array([
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
], dtype=float)

# SO3_BASIS[k] is the matrix of v -> e_k x v
SO3_BASIS = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                      [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)


def hopf_map(x: np.ndarray) -> np.ndarray:
    """h: R^4 -> R^3, constant on circle orbits, norm ||x||^2 / 2.

    Accepts a single vector or an (n, 4) batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 4:
        raise ValidationError("hopf_map expects vectors in R^4")
    return np.einsum("l...j,...j->...l", x @ HOPF_FORMS, x)


def lift_system() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, L, B): the basis E_j = e_p e_q^T - e_q e_p^T (p < q) of so(4), and
    the lifting conditions L a = B[:, k] on A = sum_j a_j E_j for
    W = SO3_BASIS[k]. Column j of L stacks [M_l, E_j] over l (48 rows), and
    column k of B stacks sum_m (W_k)_lm M_m."""
    so4 = np.zeros((6, 4, 4))
    so4[(range(6), *np.triu_indices(4, 1))] = 1.0
    so4 -= so4.transpose(0, 2, 1)
    brackets = HOPF_FORMS[:, None] @ so4 - so4 @ HOPF_FORMS[:, None]
    rhs = np.einsum("klm,mab->klab", SO3_BASIS, HOPF_FORMS)
    return so4, brackets.transpose(0, 2, 3, 1).reshape(48, 6), rhs.reshape(3, 48).T


@functools.cache
def lifted_algebra() -> np.ndarray:
    """(3, 4, 4) skew A_k lifting SO3_BASIS[k], the least-norm solutions of
    the lifting conditions. The least norm keeps them orthogonal to the null
    space, the circle, so W -> A(W) preserves brackets and exp(A(W)) is the
    double cover of exp(W). Raises InternalCheckError where the residual
    exceeds 1e-12 or the null space is not the circle."""
    so4, system, rhs = lift_system()
    coeffs = np.linalg.lstsq(system, rhs, rcond=None)[0]
    if (residual := num.max_abs(system @ coeffs - rhs)) > 1e-12:
        raise InternalCheckError(f"the lifting conditions leave a residual of {residual:.3e}")
    null, _ = num.nullspace(system, what="Hopf lift system")
    circle = np.einsum("ab,jab->j", get_action(HOPF_ACTION_ID).generators[0], so4)
    gap = num.max_abs(null @ null.T - np.outer(circle, circle) / (circle @ circle))
    if null.shape[1] != 1 or gap > 1e-12:
        raise InternalCheckError(
            "the skew matrices fixing every invariant are not the action's circle")
    algebra = np.einsum("jk,jab->kab", coeffs, so4)
    algebra.flags.writeable = False   # the cache hands this array to every caller
    return algebra


def rotation_log(r: np.ndarray) -> np.ndarray:
    """w with r = exp(sum_k w_k SO3_BASIS[k]) and ||w|| <= pi.

    r's skew part is sin(t) [n]_x and its symmetric part cos(t) I +
    (1 - cos(t)) n n^T; t is atan2 of the two, accurate at both ends. The
    axis comes from the skew part while cos(t) > 0, and beyond that from
    the largest column of n n^T, signed by the skew part.
    """
    axial = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / 2.0
    sin, cos = float(np.linalg.norm(axial)), (float(np.trace(r)) - 1.0) / 2.0
    theta = math.atan2(sin, cos)
    if cos > 0.0:
        return axial * (theta / sin if sin > 0.0 else 1.0)
    outer = (r + r.T) / 2.0 - cos * np.eye(3)
    n = outer[:, np.argmax(np.diag(outer))]
    return math.copysign(theta, n @ axial) * n / np.linalg.norm(n)


@dataclass(frozen=True)
class LiftWitness:
    """A rotation of the quotient sphere with its equivariant lift."""

    quotient_isometry: np.ndarray   # 3x3 rotation
    lift: np.ndarray                # 4x4 orthogonal, commutes with the action
    residual: float                 # max over samples of ||h(lift x) - R h(x)||


def lift_rotation(r: np.ndarray, *, sample_count: int = 100,
                  seed: int = 0) -> LiftWitness:
    """Equivariant lift exp(A(log r)) of a quotient-sphere rotation; a lift
    that is not orthogonal or does not commute with the action raises
    InternalCheckError."""
    check_sampling(sample_count, seed)
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValidationError("lift_rotation expects a 3x3 matrix")
    if num.orthogonality_residual(r) > 1e-9:
        raise ValidationError("lift_rotation expects an orthogonal matrix")
    if np.linalg.det(r) < 0.0:
        raise ValidationError(
            "orientation-reversing isometry: no equivariant lift sought here")

    lift = num.expm(np.tensordot(rotation_log(r), lifted_algebra(), axes=1))
    if num.orthogonality_residual(lift) > 1e-9:
        raise InternalCheckError("constructed lift is not orthogonal")
    if any(num.max_abs(lift @ g - g @ lift) > 1e-9 for g in get_action(HOPF_ACTION_ID).generators):
        raise InternalCheckError("constructed lift does not commute with the action")

    xs = num.random_unit_rows(np.random.default_rng([seed]), (sample_count, 4))
    errs = np.linalg.norm(hopf_map(xs @ lift.T) - hopf_map(xs) @ r.T, axis=1)
    return LiftWitness(quotient_isometry=r, lift=lift, residual=float(errs.max()))


def verify_hopf_metric(sample_count: int = 100, seed: int = 0, *,
                       density: int | None = None) -> float:
    """Max residual between the quotient metric and the radius-1/2 sphere.

    Compares the sphere quotient distance (coarse grid, deliberately
    unrefined so the O(1/density) discretization error stays visible)
    against half the angle between the h-images. The residual is
    nonnegative and shrinks as the density grows.
    """
    check_sampling(sample_count, seed)
    action = get_action(HOPF_ACTION_ID)
    pairs = num.random_unit_rows(np.random.default_rng([seed]), (sample_count, 2, 4))
    a_pts, b_pts = pairs[:, 0], pairs[:, 1]

    with num.one_blas_thread():
        max_dots = orbit_geometry._grid_maxima(action.grid(density)[1], a_pts, b_pts)
    quot = np.arccos(np.clip(max_dots, -1.0, 1.0))

    ha = hopf_map(a_pts)
    hb = hopf_map(b_pts)
    norms = np.linalg.norm(ha, axis=1) * np.linalg.norm(hb, axis=1)
    cosang = np.einsum("ij,ij->i", ha, hb) / norms
    sphere = 0.5 * np.arccos(np.clip(cosang, -1.0, 1.0))
    return float(np.abs(quot - sphere).max())


def descend_check(x_iso: np.ndarray, context, sample_count: int,
                  seed: int) -> float:
    """Max |d(Xa, Xb) - d(a, b)| over sampled pairs, X equivariant.

    This is the easy descending direction: an equivariant isometry permutes
    orbits, so the quotient distance is preserved.
    """
    check_sampling(sample_count, seed)
    x_iso = np.asarray(x_iso, dtype=float)
    check_context(context, "descend_check")
    d = context.dimension
    if x_iso.shape != (d, d):
        raise ValidationError(
            f"descend_check expects a {d}x{d} matrix, got shape {x_iso.shape}")
    if num.orthogonality_residual(x_iso) > 1e-9:
        raise ValidationError("descend_check expects an orthogonal matrix")
    for g in context.generators:
        if num.max_abs(x_iso @ g - g @ x_iso) > 1e-8:
            raise ValidationError("descend_check requires an equivariant isometry")

    rng = np.random.default_rng([seed])
    worst = 0.0
    for _ in range(sample_count):
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        pa, pb = QuotientPoint(a, context), QuotientPoint(b, context)
        qa, qb = QuotientPoint(x_iso @ a, context), QuotientPoint(x_iso @ b, context)
        before = quotient_distance(pa, pb)
        after = quotient_distance(qa, qb)
        worst = max(worst, abs(after - before))
    return worst
