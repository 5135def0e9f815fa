"""Built-in catalog of continuous compact actions.

Three entries, keyed by id:

  hopf-u1-r4        circle acting diagonally on R^4 = C^2 (free away from 0)
  so2xso3-r5        SO(2) x SO(3) acting blockwise on R^2 + R^3
  so2-tensor-so3-r6 SO(2) x SO(3) acting on R^2 (x) R^3

An action is data: one skew generator X_j per parameter axis, and the group
element at parameters t is the product of one-parameter subgroups

  g(t) = exp(t_1 X_1) ... exp(t_k X_k).

Any skew X is allowed. With P_w the spectral projector of -X^2 for its
eigenvalue w^2, w a frequency of X,

  exp(t X) = sum_w cos(w t) P_w + sin(w t) X P_w / w      (X P_0 = 0),

the form of ``_numerics.expm`` grouped by frequency; ``CatalogAction``
computes the P_w once. The circle of SO(2) is exp(t J); SO(3) is reached
through the Euler angles Rz(alpha) Ry(beta) Rz(gamma). The parameters
serve the grids and the quadrature only: the quotient-metric refinement,
a Newton ascent, moves group elements, g -> g exp(S) with S in the Lie
algebra below, whose chart has no polar singularity.

Each action exposes two discretizations, tuned to their consumers, each
built from the generators in one batched product:

* ``grid(density)``: a deterministic parameter grid with roughly ``density``
  elements total (density counts samples per compact 1-parameter subgroup;
  multi-parameter groups split the budget across axes). Used by the
  quotient-metric oracle; the chordal min-distance error is O(1/m).
* ``fs_sample()``: a Haar quadrature, the tensor product of per-axis rules
  (uniform nodes on periodic angles, Gauss-Legendre in cos(beta) for the
  SO(3) polar angle). Characters of g^2 are low-degree trigonometric
  polynomials, so indicator sums computed with it are exact to roundoff.
  Only the verification route uses it: the analysis reads Schur types
  from the commutant, and the structural suite compares the two.

Everything else is read off the Lie algebra g of the image, the span of
the generators closed under commutators (``algebra()``): its center gives
the central circles (``central_directions()``), the orbit rank at random
points the cohomogeneity, and a point is generic when g.x has the generic
orbit dimension d - cohomogeneity (``is_generic``). G is connected, so
commuting with every X_j is commuting with G.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _numerics as num
from .errors import ValidationError

DEFAULT_DENSITY = 2048
# Skewness must hold to this absolute accuracy, and squared frequencies of
# a generator this close share a spectral projector.
GENERATOR_TOL = 1e-12
# Absolute rank floor of the Lie-algebra systems, whose rows have unit
# scale; the RANK_GUARD band above it aborts instead of guessing.
LIE_RANK_FLOOR = 1e-9
# ``is_generic`` needs the r-th singular value of the orbit tangent vectors
# A x (r = d - cohomogeneity) to be at least this fraction of |x|.
GENERIC_MARGIN = 0.02


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2)
    out[:a.shape[0], :a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


@dataclass(frozen=True)
class ParamAxis:
    """One sampler parameter: [0, length), periodic unless it is a polar
    angle on [0, length] (weight scales the share of the grid budget;
    haar_nodes is the size of the axis' Haar quadrature rule)."""

    length: float
    periodic: bool
    weight: float
    haar_nodes: int

    def haar_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) integrating the axis' share of Haar measure:
        uniform on a periodic angle, proportional to sin(pi t / length) on a
        polar one (sin(beta) for the SO(3) polar angle of length pi,
        sin(2 beta) for its half-angle on Sp(1) = SU(2))."""
        if self.periodic:
            nodes = np.arange(self.haar_nodes) * (self.length / self.haar_nodes)
            return nodes, np.full(self.haar_nodes, 1.0 / self.haar_nodes)
        u_nodes, u_weights = np.polynomial.legendre.leggauss(self.haar_nodes)
        return np.arccos(u_nodes) * (self.length / math.pi), u_weights / 2.0


@dataclass(frozen=True)
class ActionMetadata:
    has_boundary: bool
    expected_sector_angle: float | None


@dataclass(frozen=True, eq=False)
class CatalogAction:
    """A continuous compact action g(t) = exp(t_1 X_1) ... exp(t_k X_k),
    given by one skew generator per parameter axis, with deterministic
    samplers."""

    id: str
    generators: tuple[np.ndarray, ...]
    axes: tuple[ParamAxis, ...]
    metadata: ActionMetadata
    # Row r of _basis is P_w of X_j (w = freq[r], coefficient cos(w t_j)) or,
    # if sine[r], X_j P_w / w (coefficient sin(w t_j)), in column block
    # j = axis[r] and zero elsewhere: one product gives every exp(t_j X_j).
    _basis: np.ndarray = field(init=False, repr=False)
    _rows: tuple = field(init=False, repr=False)  # (axis, freq, sine)
    # Grids, the Haar quadrature, the Lie algebra, its center and the
    # cohomogeneity, per instance: they follow from the generators, which
    # two actions sharing an id need not share.
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        gens = tuple(np.array(x, dtype=float) for x in self.generators)
        k = len(gens)
        if k == 0:
            raise ValidationError(f"{self.id}: an action needs at least one generator")
        if k != len(self.axes):
            raise ValidationError(f"{self.id}: {k} generators for {len(self.axes)} axes")
        d = gens[0].shape[0]
        rows = []
        for j, x in enumerate(gens):
            if x.shape != (d, d):
                raise ValidationError(f"{self.id}: generator {j} is not {d}x{d}")
            if not np.abs(x + x.T).max() <= GENERATOR_TOL:  # false for NaN too
                raise ValidationError(
                    f"{self.id}: generator {j} is not skew (within {GENERATOR_TOL:.0e})")
            q, omega = num.skew_spectrum(x)
            # A squared frequency more than GENERATOR_TOL above the one before
            # starts a new frequency; group 0 is frequency 0.
            group = np.cumsum(np.diff(omega ** 2, prepend=0.0) > GENERATOR_TOL)
            for c in sorted(set(group.tolist())):
                qc = q[:, group == c]
                w = float(omega[group == c].mean()) if c else 0.0
                p = qc @ qc.T
                rows.append((j, w, False, p))
                if c:
                    rows.append((j, w, True, x @ p / w))
        axis, freq, sine, blocks = (np.array(v) for v in zip(*rows))
        basis = np.zeros((len(rows), k, d * d))
        basis[np.arange(len(rows)), axis] = blocks.reshape(len(rows), d * d)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_basis", basis.reshape(len(rows), k * d * d))
        object.__setattr__(self, "_rows", (axis, freq, sine))

    @property
    def dimension(self) -> int:
        return self.generators[0].shape[0]

    def element(self, params) -> np.ndarray:
        return self.elements(np.asarray(params, dtype=float)[None])[0]

    def _batch_factors(self, t: np.ndarray) -> np.ndarray:
        """(N, k, d, d) factors exp(t_j X_j) for every row of ``t``; the (N, rows)
        coefficients die on return, before ``elements`` multiplies them."""
        if t.ndim != 2 or t.shape[1] != len(self.axes):
            raise ValueError(f"{self.id}: params of shape {t.shape}, not (N, {len(self.axes)})")
        axis, freq, sine = self._rows
        wt = t[:, axis] * freq
        coeffs = np.where(sine, np.sin(wt), np.cos(wt))
        return (coeffs @ self._basis).reshape((len(t), len(self.axes)) + self.generators[0].shape)

    def elements(self, params: np.ndarray) -> np.ndarray:
        """g(t) for every row of ``params`` (N, k), as one batched product
        of (N, d, d) stacks."""
        factors = self._batch_factors(np.asarray(params, dtype=float))
        out = factors[:, 0]
        for j in range(1, factors.shape[1]):
            out = out @ factors[:, j]
        return out

    def grid_counts(self, density: int) -> tuple[int, ...]:
        """Samples per axis of the grid of ``density``, at least 3 each."""
        if density < 1:
            raise ValidationError(f"the grid density must be at least 1, got {density}")
        weights = [ax.weight for ax in self.axes]
        prod_w = math.prod(weights)
        base = (density / prod_w) ** (1.0 / len(self.axes))
        return tuple(max(3, int(round(w * base))) for w in weights)

    def grid(self, density: int | None = None):
        """(params (N, k), elements (N, d, d)) for the coarse search grid.

        Periodic axes use endpoint-excluded uniform grids that include 0, so
        the identity is always on the grid. Cached per density.
        """
        density = DEFAULT_DENSITY if density is None else int(density)
        cached = self._cache.get(density)
        if cached is not None:
            return cached
        counts = self.grid_counts(density)
        axes_vals = []
        for ax, n in zip(self.axes, counts):
            if ax.periodic:
                axes_vals.append(np.arange(n) * (ax.length / n))
            else:
                axes_vals.append(np.linspace(0.0, ax.length, n))
        params = _mesh(axes_vals)
        self._cache[density] = (params, self.elements(params))
        return self._cache[density]

    def fs_sample(self):
        """(elements, weights) Haar quadrature for the verification route's
        indicator sums: the tensor product of the per-axis rules."""
        cached = self._cache.get("haar")
        if cached is None:
            nodes, weights = zip(*(ax.haar_rule() for ax in self.axes))
            cached = (self.elements(_mesh(nodes)), _mesh(weights).prod(axis=1))
            self._cache["haar"] = cached
        return cached

    def algebra(self) -> np.ndarray:
        """Orthonormal (r, d, d) basis of the Lie algebra g of the image:
        the span of the generators closed under commutators. The generators
        alone need not span it; the Euler generators (L_z, L_y, L_z) of
        SO(3) miss L_x = [L_y, L_z]."""
        alg = self._cache.get("algebra")
        if alg is None:
            alg = num.span_basis(np.stack(self.generators), rank_tol=LIE_RANK_FLOOR,
                                 what="orbit algebra")
            while len(alg):
                grown = num.span_basis(
                    np.concatenate([alg, _brackets(alg).reshape((-1,) + alg.shape[1:])]),
                    rank_tol=LIE_RANK_FLOOR, what="orbit algebra")
                if len(grown) == len(alg):
                    break
                alg = grown
            self._cache["algebra"] = alg
        return alg

    def central_directions(self) -> np.ndarray:
        """Orthonormal (c, d, d) basis of the center of g, the generators of
        the central circles of the image: the combinations sum_a c_a A_a of
        the algebra basis with sum_a c_a [A_a, A_b] = 0 for every b."""
        center = self._cache.get("center")
        if center is None:
            alg, d = self.algebra(), self.dimension
            rows = np.moveaxis(_brackets(alg), 0, -1).reshape(len(alg) * d * d, len(alg))
            null, _ = num.nullspace(rows, rank_tol=LIE_RANK_FLOOR, what="algebra center")
            center = np.tensordot(null.T, alg, axes=1)
            self._cache["center"] = center
        return center

    @property
    def cohomogeneity(self) -> int:
        """d minus the generic orbit dimension: the largest rank of the
        tangent vectors A x over the algebra basis at four seeded random
        unit points, which are generic almost surely. The rows have unit
        scale, so the ranks take the absolute floor LIE_RANK_FLOOR."""
        if "cohomogeneity" not in self._cache:
            x = num.random_unit_rows(np.random.default_rng(7919), (4, self.dimension))
            tangents = np.einsum("aij,pj->pai", self.algebra(), x)
            s = np.linalg.svd(tangents, compute_uv=False)
            rank = max(num.split_spectrum(row, LIE_RANK_FLOOR, "orbit rank") for row in s)
            self._cache["cohomogeneity"] = self.dimension - rank
        return self._cache["cohomogeneity"]

    def is_generic(self, x: np.ndarray) -> bool:
        """Whether the orbit through x has the generic dimension
        r = d - cohomogeneity with margin: the r-th singular value of the
        tangent vectors A x over the algebra basis is at least
        GENERIC_MARGIN |x|. With r = 0 every nonzero x is generic."""
        x = np.asarray(x, dtype=float)
        r = self.dimension - self.cohomogeneity
        if r == 0:
            return bool(np.any(x))
        scale = float(np.linalg.norm(x))
        s = np.linalg.svd(self.algebra() @ x, compute_uv=False)
        return bool(scale > 0.0 and len(s) >= r and s[r - 1] >= GENERIC_MARGIN * scale)


def _brackets(alg: np.ndarray) -> np.ndarray:
    """(r, r, d, d) stack of the commutators [A_a, A_b]."""
    return np.einsum("aij,bjk->abik", alg, alg) - np.einsum("bij,ajk->abik", alg, alg)


def _mesh(axes_vals) -> np.ndarray:
    """All combinations of the per-axis values, first axis slowest, as rows."""
    mesh = np.meshgrid(*axes_vals, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
# Rz(t) = exp(t L_z) and Ry(t) = exp(t L_y) in R^3.
_LZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_LY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
_I2, _I3 = np.eye(2), np.eye(3)
_Z2, _Z3 = np.zeros((2, 2)), np.zeros((3, 3))

# (phi, alpha, beta, gamma): the SO(2) angle, then Euler angles of SO(3).
_FOUR_AXES = (
    ParamAxis(2.0 * math.pi, True, 1.0, 8),
    ParamAxis(2.0 * math.pi, True, 1.0, 8),
    ParamAxis(math.pi, False, 0.5, 8),
    ParamAxis(2.0 * math.pi, True, 1.0, 8),
)

CATALOG: dict[str, CatalogAction] = {
    "hopf-u1-r4": CatalogAction(
        id="hopf-u1-r4",
        generators=(_block_diag(_J2, _J2),),
        axes=(ParamAxis(2.0 * math.pi, True, 1.0, 64),),
        metadata=ActionMetadata(
            has_boundary=False,
            expected_sector_angle=None,
        ),
    ),
    "so2xso3-r5": CatalogAction(
        id="so2xso3-r5",
        generators=(_block_diag(_J2, _Z3), _block_diag(_Z2, _LZ),
                    _block_diag(_Z2, _LY), _block_diag(_Z2, _LZ)),
        axes=_FOUR_AXES,
        metadata=ActionMetadata(
            has_boundary=True,
            expected_sector_angle=math.pi / 2.0,
        ),
    ),
    "so2-tensor-so3-r6": CatalogAction(
        id="so2-tensor-so3-r6",
        generators=(np.kron(_J2, _I3), np.kron(_I2, _LZ),
                    np.kron(_I2, _LY), np.kron(_I2, _LZ)),
        axes=_FOUR_AXES,
        metadata=ActionMetadata(
            has_boundary=True,
            expected_sector_angle=math.pi / 4.0,
        ),
    ),
}


def get_action(action_id: str) -> CatalogAction:
    try:
        return CATALOG[action_id]
    except KeyError:
        raise ValidationError(
            f"unknown catalog id {action_id!r}; known: {sorted(CATALOG)}"
        ) from None


def catalog_summary() -> list[dict]:
    """Stable listing used by the CLI catalog command."""
    out = []
    for action_id in sorted(CATALOG):
        act = CATALOG[action_id]
        md = act.metadata
        out.append({
            "id": action_id,
            "dimension": act.dimension,
            "parameters": len(act.axes),
            "boundary": md.has_boundary,
            "cohomogeneity": act.cohomogeneity,
            "expectedSectorAngle": md.expected_sector_angle,
        })
    return out


def trivial_action(dimension: int) -> CatalogAction:
    """Degenerate identity-only action on R^dimension.

    Not a catalog entry (no id lookup); it exists so the sector-angle
    estimator has a known-exact test case: for dimension 2 the sphere
    quotient is the whole circle, whose half-diameter is pi. Its one
    generator is zero, so every element is the identity.
    """
    if dimension < 1:
        raise ValidationError("trivial_action needs dimension >= 1")
    return CatalogAction(
        id=f"trivial-r{dimension}",
        generators=(np.zeros((dimension, dimension)),),
        axes=(ParamAxis(2.0 * math.pi, True, 1.0, 1),),
        metadata=ActionMetadata(
            has_boundary=False,
            expected_sector_angle=math.pi if dimension == 2 else None,
        ),
    )
