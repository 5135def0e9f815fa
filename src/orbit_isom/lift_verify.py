"""Constructive lifting on the Hopf quotient, plus descend/normalizer checks.

R^4 is identified with the quaternions via x = x1 + x2 i + x3 j + x4 k and
with C^2 via z = x1 + i x2, w = x3 + i x4. The circle action is left
multiplication by unit complex numbers, and

    h(z, w) = (Re(z conj(w)), Im(z conj(w)), (|z|^2 - |w|^2) / 2)

collapses each circle orbit to a point; the unit sphere maps onto the sphere
of radius 1/2. Right quaternion multiplication commutes with the action, and
h intertwines it with an SO(3) rotation, which gives an explicit section of
the descent homomorphism: every rotation of the quotient sphere is induced
by an equivariant isometry of R^4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .catalog import CatalogAction, get_action
from .errors import ValidationError
from .orbit_geometry import (
    QuotientPoint,
    _batched_max_dots,
    check_sampling,
    quotient_distance,
    sector_angle_estimate,
)
from .repr_model import FiniteGroupData

HOPF_ACTION_ID = "hopf-u1-r4"

# h = AXIS_SWAP applied to the (i,j,k)-coordinates of (1/2) conj(q) i q
AXIS_SWAP = np.array([
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0],
])


def hopf_map(x: np.ndarray) -> np.ndarray:
    """h: R^4 -> R^3, constant on circle orbits, norm ||x||^2 / 2.

    Accepts a single vector or an (n, 4) batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[-1] != 4:
        raise ValidationError("hopf_map expects vectors in R^4")
    x1, x2, x3, x4 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    out = np.stack([
        x1 * x3 + x2 * x4,
        x2 * x3 - x1 * x4,
        (x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4) / 2.0,
    ], axis=1)
    return out[0] if single else out


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def quat_to_rotation(u: np.ndarray) -> np.ndarray:
    """Matrix of v -> u v conj(u) on the imaginary part, u = (w, x, y, z)."""
    w, x, y, z = u
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_to_quat(r: np.ndarray) -> np.ndarray:
    """One of the two unit quaternions covering a rotation.

    Branch chosen by the largest of trace and diagonal entries, which keeps
    the extraction stable near trace = -1.
    """
    r = np.asarray(r, dtype=float)
    t = r[0, 0] + r[1, 1] + r[2, 2]
    pivots = (t, r[0, 0], r[1, 1], r[2, 2])
    which = int(np.argmax(pivots))
    if which == 0:
        s = 2.0 * math.sqrt(1.0 + t)
        q = np.array([
            0.25 * s,
            (r[2, 1] - r[1, 2]) / s,
            (r[0, 2] - r[2, 0]) / s,
            (r[1, 0] - r[0, 1]) / s,
        ])
    elif which == 1:
        s = 2.0 * math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array([
            (r[2, 1] - r[1, 2]) / s,
            0.25 * s,
            (r[0, 1] + r[1, 0]) / s,
            (r[0, 2] + r[2, 0]) / s,
        ])
    elif which == 2:
        s = 2.0 * math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array([
            (r[0, 2] - r[2, 0]) / s,
            (r[0, 1] + r[1, 0]) / s,
            0.25 * s,
            (r[1, 2] + r[2, 1]) / s,
        ])
    else:
        s = 2.0 * math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array([
            (r[1, 0] - r[0, 1]) / s,
            (r[0, 2] + r[2, 0]) / s,
            (r[1, 2] + r[2, 1]) / s,
            0.25 * s,
        ])
    return q / np.linalg.norm(q)


def right_multiplication_matrix(u: np.ndarray) -> np.ndarray:
    """4x4 matrix of q -> q u in the (1, i, j, k) coordinates."""
    cols = [quat_mul(e, u) for e in np.eye(4)]
    return np.stack(cols, axis=1)


_CIRCLE_GENERATOR = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])


@dataclass(frozen=True)
class LiftWitness:
    """A rotation of the quotient sphere with its equivariant lift."""

    quotient_isometry: np.ndarray   # 3x3 rotation
    lift: np.ndarray                # 4x4 orthogonal, commutes with the action
    residual: float                 # max over samples of ||h(lift x) - R h(x)||


def lift_rotation(r: np.ndarray, *, sample_count: int = 100,
                  seed: int = 0) -> LiftWitness:
    """Equivariant lift of a quotient-sphere rotation.

    The lift is right multiplication by the unit quaternion covering
    S R^T S (S the axis swap relating h to the quaternion frame map).
    """
    check_sampling(sample_count, seed)
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValidationError("lift_rotation expects a 3x3 matrix")
    if num.orthogonality_residual(r) > 1e-9:
        raise ValidationError("lift_rotation expects an orthogonal matrix")
    if np.linalg.det(r) < 0.0:
        raise ValidationError(
            "orientation-reversing isometry: no equivariant lift sought here")

    u = rotation_to_quat(AXIS_SWAP @ r.T @ AXIS_SWAP)
    lift = right_multiplication_matrix(u)
    if num.orthogonality_residual(lift) > 1e-9:
        raise ValidationError("constructed lift is not orthogonal")
    if num.max_abs(lift @ _CIRCLE_GENERATOR - _CIRCLE_GENERATOR @ lift) > 1e-9:
        raise ValidationError("constructed lift does not commute with the action")

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

    max_dots = _batched_max_dots(action, a_pts, b_pts, density)
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
    if not isinstance(context, (FiniteGroupData, CatalogAction)):
        raise ValidationError("descend_check expects a finite group or catalog action")
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


def normalizer_check(group: FiniteGroupData, f: np.ndarray) -> bool:
    """Whether conjugation by f maps the group onto itself."""
    f = np.asarray(f, dtype=float)
    d = group.dimension
    if f.shape != (d, d):
        raise ValidationError(f"normalizer_check expects a {d}x{d} matrix, got shape {f.shape}")
    if num.orthogonality_residual(f) > 1e-9:
        raise ValidationError("normalizer_check expects an orthogonal matrix")
    return bool(np.all(group.lookup(f @ group.elements @ f.T) >= 0))


_SECTOR_ACTIONS = ("so2xso3-r5", "so2-tensor-so3-r6")


def non_lift_demo(action_id: str, *, sample_count: int = 2000,
                  seed: int = 0) -> str:
    """Text demo: a quotient isometry that admits no equivariant lift.

    The orbit space is a planar sector; reflecting it across the bisecting
    ray is an isometry swapping the two boundary rays. The singular orbits
    over the rays are non-isometric (metadata), so no ambient equivariant
    isometry can induce the swap. The computed content is the sector angle;
    the obstruction text is carried as catalog metadata.
    """
    if action_id not in _SECTOR_ACTIONS:
        raise ValidationError(
            f"non_lift_demo supports {', '.join(_SECTOR_ACTIONS)}; got {action_id!r}")
    action = get_action(action_id)
    md = action.metadata
    angle = sector_angle_estimate(action, sample_count, seed)
    lines = [
        f"action: {action.id} (R^{action.dimension})",
        f"sector angle estimate: {angle:.6f} rad "
        f"(expected {md.expected_sector_angle:.6f}, {sample_count} samples)",
        "the orbit space is a planar sector of this angle; the reflection",
        "across its bisecting ray is an isometry of the quotient that swaps",
        "the two boundary rays.",
        f"obstruction: the singular orbits over the two rays are {md.singular_isotropy_note}, "
        "so no equivariant isometry upstairs can swap them, and the",
        "reflection does not lift. Only the identity component is covered",
        "by equivariant isometries.",
    ]
    return "\n".join(lines)
