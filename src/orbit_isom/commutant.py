"""Commutant algebra, isotypic decomposition, and the equivariant isometry
group Isom_G(V)_0.

The commutant Hom_G(V, V) is the null space of the stacked Sylvester
operators A -> A g - g A over the generators (commuting with generators is
equivalent to commuting with the whole group). Isotypic components are
recovered by the commutant-center split: eigenspaces of a randomly sampled
symmetric element of the commutant's center. The skew part of the same
center holds each Complex component's central circle, its unit complex
scalar J_i; the split hands it to the component, and no second system is
solved for it. A component's type and multiplicity follow from its
restricted commutant E = P C P alone. E is M_n(R), M_n(C) or M_n(H) with
the transpose as its *-involution, so with c = dim E and k = dim Skew(E)
the difference t = dim Sym(E) - dim Skew(E) = c - 2k is the
Frobenius-Schur indicator sum (1/|G|) sum_g trace(P g^2 P). Its sign picks
the type's record in ``SCHUR_TYPES``, the one table of every number that
depends on the type alone, and n = isqrt(c / weight), checked by
c = weight n^2 and t = indicator n.

All of these are integer comparisons; the group average itself is the
second route, which the verification suite compares with t. The identity
component of the equivariant isometry group is then the product of
SO(n)/U(n)/Sp(n) factors, with Lie algebra the skew-symmetric part of the
commutant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .errors import InternalCheckError, IsotypicSeparationError, TypeInconsistencyError

GAP_TOL = 1e-6
CLUSTER_TIGHT = 1e-9
MAX_SPLIT_RETRIES = 10

REAL = "Real"
COMPLEX = "Complex"
QUATERNIONIC = "Quaternionic"


@dataclass(frozen=True)
class SchurType:
    """One Frobenius-Schur type of an isotypic component W = V_i^(n): its
    restricted commutant is M_n(K), K = R, C or H, and the component's
    factor of the equivariant isometry group is SO(n), U(n) or Sp(n)."""

    name: str                # Real | Complex | Quaternionic
    prefix: str              # SO | U | Sp
    weight: int              # dim_R K
    indicator: int           # Frobenius-Schur indicator of one copy of V_i
    irreducible_class: str   # what Isom(V/G)_0 can be when W is irreducible

    def factor_name(self, n: int) -> str:
        return f"{self.prefix}({n})"

    def dim(self, n: int) -> int:
        """dim Skew(M_n(K)) = (c - t) / 2."""
        return (self.weight * n * n - self.indicator * n) // 2

    def rank(self, n: int) -> int:
        return n // 2 if self.weight == 1 else n

    def has_circle(self, n: int) -> bool:
        """Whether the factor has a center circle: U(n) and SO(2)."""
        return self.weight == 2 or self.dim(n) == 1

    def contains_minus_i(self, n: int) -> bool:
        """Whether -I lies in the factor: in all but SO(odd n)."""
        return self.weight > 1 or n % 2 == 0

    def minus_i_discrete(self, n: int) -> bool:
        """Whether -I lies in the factor off its circle: Sp(n), SO(2k >= 4)."""
        return self.contains_minus_i(n) and not self.has_circle(n)


SCHUR_TYPES = {t.name: t for t in (
    SchurType(REAL, "SO", 1, 1, "finite-group"),
    SchurType(COMPLEX, "U", 2, 0, "trivial-or-U1"),
    SchurType(QUATERNIONIC, "Sp", 4, -2, "trivial-or-Sp1-or-SO3"),
)}


def _sylvester_rows(mat: np.ndarray) -> np.ndarray:
    """Row-major vec operator of A -> A m - m A."""
    d = mat.shape[0]
    eye = np.eye(d)
    return np.kron(eye, mat.T) - np.kron(mat, eye)


def commutant_basis(generators) -> np.ndarray:
    """Orthonormal (Frobenius) basis of {A : A g = g A for all generators},
    returned as a (k, d, d) stack."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    d = gens[0].shape[0]
    if d == 0:
        return np.zeros((0, 0, 0))
    stacked = np.vstack([_sylvester_rows(g) for g in gens])
    null_basis, _ = num.nullspace(stacked, what="commutant")
    k = null_basis.shape[1]
    return null_basis.T.reshape(k, d, d).copy()


def commutant_center(generators, commutant: np.ndarray) -> np.ndarray:
    """Basis of the center: matrices commuting with all generators and with
    every commutant basis element."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    d = commutant.shape[1]
    rows = [_sylvester_rows(g) for g in gens]
    rows.extend(_sylvester_rows(b) for b in commutant)
    null_basis, _ = num.nullspace(np.vstack(rows), what="commutant center")
    k = null_basis.shape[1]
    return null_basis.T.reshape(k, d, d).copy()


@dataclass(frozen=True)
class ComponentSubspace:
    """One isotypic eigenspace, as orthonormal basis columns, and the unit
    skew element of the commutant's center on it, if there is one."""

    basis: np.ndarray          # (d, m) orthonormal columns
    circle: np.ndarray | None  # (d, d) unit skew central element

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[1])

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def isotypic_split(commutant: np.ndarray, generators, seed: int) -> list[ComponentSubspace]:
    """Isotypic components as eigenspaces of a random symmetric center
    element, each with its circle from the center's skew part.

    The center is span{P_i} + span{J_i : i Complex}, J_i the unit complex
    scalar on a Complex component. A random symmetric center element is
    sum a_i P_i with generic coefficients, and its eigenvalue clusters are
    the components. Clusters must be separated by more than GAP_TOL and
    internally tight; otherwise the draw is repeated with an advanced seed,
    up to MAX_SPLIT_RETRIES times. The components come out in eigenvalue
    order, which depends on the seed; equivariant_isometry_group orders
    them.
    """
    d = commutant.shape[1]
    center = commutant_center(generators, commutant)
    if center.shape[0] == 0:
        raise InternalCheckError("commutant center is empty (identity is always central)")
    circles = _skew_subbasis(center)

    for attempt in range(MAX_SPLIT_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        coeff = rng.standard_normal(center.shape[0])
        x = np.tensordot(coeff, center, axes=1)
        x = (x + x.T) / 2.0
        scale = num.max_abs(x)
        if scale < 1e-8:
            continue
        x /= scale
        evals, evecs = np.linalg.eigh(x)

        clusters: list[list[int]] = [[0]]
        for i in range(1, d):
            if evals[i] - evals[i - 1] > GAP_TOL:
                clusters.append([i])
            else:
                clusters[-1].append(i)
        tight = all(evals[c[-1]] - evals[c[0]] < CLUSTER_TIGHT for c in clusters)
        if not tight:
            continue

        return [_with_circle(evecs[:, c[0]:c[-1] + 1].copy(), circles)
                for c in clusters]

    raise IsotypicSeparationError(
        f"isotypic separation failed after {MAX_SPLIT_RETRIES} re-randomizations"
    )


def _with_circle(basis: np.ndarray, circles: np.ndarray) -> ComponentSubspace:
    """The component spanned by ``basis``, with the span of P S P over the
    center's skew elements S as its circle: one unit element, or none."""
    p = basis @ basis.T
    on = num.span_basis(np.einsum("ij,kjl,lm->kim", p, circles, p),
                        rank_tol=1e-8, what="component circle")
    if on.shape[0] > 1:
        raise InternalCheckError(f"{on.shape[0]} central circles on one component")
    return ComponentSubspace(basis=basis, circle=on[0] if on.shape[0] else None)


@dataclass(frozen=True)
class IsotypicComponent(ComponentSubspace):
    """A classified isotypic component W = V_i^(n) inside the active space."""

    multiplicity: int        # n
    schur_type: str          # Real | Complex | Quaternionic
    skew_basis: np.ndarray   # (k, d, d) orthonormal basis of Skew(E)


def classify_component(subspace: ComponentSubspace, commutant: np.ndarray) -> IsotypicComponent:
    """Type and multiplicity of one isotypic component from its restricted
    commutant E = P C P: c = dim E, k = dim Skew(E) and t = c - 2k (see the
    module docstring). Raises TypeInconsistencyError when c does not have
    the form the sign of t asks for, or n does not divide dim W, or when the
    type is Complex and the component has no circle, or the reverse.
    """
    p = subspace.projector
    block = num.span_basis(np.einsum("ij,kjl,lm->kim", p, commutant, p),
                           rank_tol=1e-8, what="component block")
    skew = _skew_subbasis(block)
    c, k, m = block.shape[0], skew.shape[0], subspace.dimension
    t = c - 2 * k
    kind = SCHUR_TYPES[REAL if t > 0 else COMPLEX if t == 0 else QUATERNIONIC]
    schur, n = kind.name, math.isqrt(c // kind.weight)
    if c != kind.weight * n * n or t != kind.indicator * n or n < 1 or m % n != 0:
        raise TypeInconsistencyError(
            f"restricted commutant of dim {c} with {k} skew elements (t = {t}) "
            f"reads {schur}({n}), which needs dim {kind.weight * n * n}, "
            f"t = {kind.indicator * n} and n dividing {m}"
        )
    if (schur == COMPLEX) != (subspace.circle is not None):
        raise TypeInconsistencyError(
            f"restricted commutant reads {schur}({n}), but the commutant's "
            f"center has {'a' if subspace.circle is not None else 'no'} circle on it")
    return IsotypicComponent(basis=subspace.basis, circle=subspace.circle,
                             multiplicity=n, schur_type=schur, skew_basis=skew)


@dataclass(frozen=True)
class Factor:
    """One classical factor SO(n)/U(n)/Sp(n) acting on one component."""

    schur_type: str
    multiplicity: int
    lie_start: int
    lie_stop: int
    center_circle_index: int | None  # global lie-basis index of the central circle

    @property
    def name(self) -> str:
        return SCHUR_TYPES[self.schur_type].factor_name(self.multiplicity)

    @property
    def dim(self) -> int:
        return SCHUR_TYPES[self.schur_type].dim(self.multiplicity)

    @property
    def rank(self) -> int:
        return SCHUR_TYPES[self.schur_type].rank(self.multiplicity)


@dataclass(frozen=True)
class EquivariantIsometryGroup:
    """Identity component of the G-equivariant isometries of the active
    space, as a product of classical factors with its Lie algebra basis."""

    factors: tuple[Factor, ...]
    components: tuple[IsotypicComponent, ...]
    lie_basis: np.ndarray  # (K, d, d), orthonormal, exactly skew
    dimension: int

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def factor_lie_basis(self, factor: Factor) -> np.ndarray:
        return self.lie_basis[factor.lie_start:factor.lie_stop]


def _skew_subbasis(block_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the skew-symmetric part of span{block_basis},
    which is closed under transposition T: the span of (B - B^T) / 2. That
    stack's Gram matrix is (I - T) / 2, T being an orthogonal involution, so
    its singular values are 0 or 1 and an absolute floor separates them (a
    relative one misreads an all-symmetric stack's roundoff as rank)."""
    skew = (block_basis - block_basis.swapaxes(1, 2)) / 2.0
    return num.span_basis(skew, rank_tol=1e-8, what="skew part")


def equivariant_isometry_group(components, commutant: np.ndarray,
                               generators) -> EquivariantIsometryGroup:
    """Assemble the factor list and an orthonormal Lie algebra basis.

    Components are ordered by (dimension, Schur type, multiplicity), which
    depends on the representation only. The Lie basis is grouped factor by
    factor; for U(n) and SO(2) factors the first element of the factor's
    slice generates the central circle. Every element is exactly skew and
    commutes with the generators within 1e-8.
    """
    components = tuple(sorted(components, key=lambda c: (
        c.dimension, c.schur_type, c.multiplicity)))
    d = commutant.shape[1] if commutant.size else (
        components[0].basis.shape[0] if components else 0)
    blocks: list[np.ndarray] = []
    factors: list[Factor] = []
    cursor = 0

    for idx, comp in enumerate(components):
        skew = comp.skew_basis
        k = skew.shape[0]
        kind = SCHUR_TYPES[comp.schur_type]
        center_index = cursor if kind.has_circle(comp.multiplicity) else None
        ordered = skew
        # so(2) is its own circle; a Complex component's is its scalar J.
        if comp.circle is not None:
            # Sign convention for determinism: first significant entry positive.
            flat = comp.circle.ravel()
            j = comp.circle * np.sign(flat[np.argmax(np.abs(flat) > 1e-8)])
            rest = skew - np.einsum("kij,ij->k", skew, j)[:, None, None] * j
            rest = num.span_basis(rest, rank_tol=1e-8, what="non-central skew")
            if rest.shape[0] != k - 1:
                raise InternalCheckError(
                    f"component {idx}: central complement dim {rest.shape[0]}"
                )
            ordered = np.concatenate([j[None], rest])

        factors.append(Factor(
            schur_type=comp.schur_type,
            multiplicity=comp.multiplicity,
            lie_start=cursor,
            lie_stop=cursor + k,
            center_circle_index=center_index,
        ))
        cursor += k
        if k:
            blocks.append(ordered)

    lie_basis = (np.concatenate(blocks) if blocks else np.zeros((0, d, d)))
    for a in lie_basis:
        if num.max_abs(a + a.T) > 1e-12:
            raise InternalCheckError("lie basis element is not skew within 1e-12")
        for g in generators:
            if num.max_abs(a @ g - g @ a) > 1e-8:
                raise InternalCheckError("lie basis element does not commute with a generator")
    return EquivariantIsometryGroup(
        factors=tuple(factors),
        components=components,
        lie_basis=lie_basis,
        dimension=lie_basis.shape[0],
    )


def exponential(equiv: EquivariantIsometryGroup, coefficients) -> np.ndarray:
    """exp of a coefficient combination of the Lie basis."""
    coefficients = np.asarray(coefficients, dtype=float)
    d = equiv.lie_basis.shape[1]
    if equiv.lie_basis.shape[0] == 0:
        return np.eye(d)
    a = np.tensordot(coefficients, equiv.lie_basis, axes=1)
    return num.expm(a)


def sample_equivariant_isometry(equiv: EquivariantIsometryGroup, t: float,
                                seed: int) -> np.ndarray:
    """exp(t * A) for a seeded random unit-Frobenius-norm direction A in the
    Lie algebra. Returns the identity when the Lie algebra is trivial."""
    k = equiv.lie_basis.shape[0]
    d = equiv.lie_basis.shape[1]
    if k == 0:
        return np.eye(d)
    rng = np.random.default_rng([seed])
    coeff = num.random_unit_vector(rng, k)
    x = exponential(equiv, t * coeff)
    resid = num.orthogonality_residual(x)
    if resid > 1e-9:
        raise InternalCheckError(f"sampled isometry lost orthogonality: {resid:.3e}")
    return x
