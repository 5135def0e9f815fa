"""Commutant algebra, isotypic decomposition, and the equivariant isometry
group Isom_G(V)_0.

The commutant Hom_G(V, V) is the null space of the stacked Sylvester
operators A -> A g - g A over the generators (commuting with generators is
equivalent to commuting with the whole group). Isotypic components are
recovered by the commutant-center split: eigenspaces of a randomly sampled
symmetric element of the commutant's center. A component's type and
multiplicity follow from its restricted commutant E = P C P alone. E is
M_n(R), M_n(C) or M_n(H) with the transpose as its *-involution, so with
c = dim E and k = dim Skew(E) the difference t = dim Sym(E) - dim Skew(E)
= c - 2k is the Frobenius-Schur indicator sum (1/|G|) sum_g trace(P g^2 P):

    t > 0  -> Real         n = t            check c = n^2
    t = 0  -> Complex      n = isqrt(c/2)   check c = 2 n^2
    t < 0  -> Quaternionic n = -t/2         check c = 4 n^2

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

_FACTOR_PREFIX = {REAL: "SO", COMPLEX: "U", QUATERNIONIC: "Sp"}


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
    """One isotypic eigenspace, as orthonormal basis columns."""

    basis: np.ndarray  # (d, m) orthonormal columns

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[1])

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def isotypic_split(commutant: np.ndarray, generators, seed: int) -> list[ComponentSubspace]:
    """Isotypic components as eigenspaces of a random symmetric center element.

    The symmetric part of the center is exactly span{P_i} over the isotypic
    projectors, so a random symmetric center element is sum a_i P_i with
    generic coefficients and its eigenvalue clusters are the components.
    Clusters must be separated by more than GAP_TOL and internally tight;
    otherwise the draw is repeated with an advanced seed, up to
    MAX_SPLIT_RETRIES times. The components come out in eigenvalue order,
    which depends on the seed; equivariant_isometry_group orders them.
    """
    d = commutant.shape[1]
    center = commutant_center(generators, commutant)
    if center.shape[0] == 0:
        raise InternalCheckError("commutant center is empty (identity is always central)")

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

        return [ComponentSubspace(basis=evecs[:, c[0]:c[-1] + 1].copy())
                for c in clusters]

    raise IsotypicSeparationError(
        f"isotypic separation failed after {MAX_SPLIT_RETRIES} re-randomizations"
    )


@dataclass(frozen=True)
class IsotypicComponent:
    """A classified isotypic component W = V_i^(n) inside the active space."""

    basis: np.ndarray        # (d, dim) orthonormal columns
    multiplicity: int        # n
    irreducible_dim: int     # dim V_i
    schur_type: str          # Real | Complex | Quaternionic
    block_basis: np.ndarray  # (c, d, d) orthonormal basis of E = P C P
    skew_basis: np.ndarray   # (k, d, d) orthonormal basis of Skew(E)

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[1])

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def classify_component(subspace: ComponentSubspace, commutant: np.ndarray) -> IsotypicComponent:
    """Type and multiplicity of one isotypic component from its restricted
    commutant E = P C P: c = dim E, k = dim Skew(E) and t = c - 2k (see the
    module docstring). Raises TypeInconsistencyError when c does not have
    the form the sign of t asks for, or n does not divide dim W.
    """
    p = subspace.projector
    block = num.span_basis(np.einsum("ij,kjl,lm->kim", p, commutant, p),
                           rank_tol=1e-8, what="component block")
    skew = _skew_subbasis(block)
    c, k, m = block.shape[0], skew.shape[0], subspace.dimension
    t = c - 2 * k
    if t > 0:
        schur, n, want = REAL, t, t * t
    elif t == 0:
        n = math.isqrt(c // 2)
        schur, want = COMPLEX, 2 * n * n
    else:
        n = -t // 2
        schur, want = QUATERNIONIC, 4 * n * n
    if c != want or n < 1 or m % n != 0:
        raise TypeInconsistencyError(
            f"restricted commutant of dim {c} with {k} skew elements (t = {t}) "
            f"reads {schur}({n}), which needs dim {want} and n dividing {m}"
        )
    return IsotypicComponent(
        basis=subspace.basis,
        multiplicity=n,
        irreducible_dim=m // n,
        schur_type=schur,
        block_basis=block,
        skew_basis=skew,
    )


def _skew_dim_formula(schur_type: str, n: int) -> int:
    if schur_type == REAL:
        return n * (n - 1) // 2
    if schur_type == COMPLEX:
        return n * n
    return n * (2 * n + 1)


def _factor_rank(schur_type: str, n: int) -> int:
    return n // 2 if schur_type == REAL else n


@dataclass(frozen=True)
class Factor:
    """One classical factor SO(n)/U(n)/Sp(n) acting on one component."""

    schur_type: str
    multiplicity: int
    component_index: int
    lie_start: int
    lie_stop: int
    center_circle_index: int | None  # global lie-basis index of the central circle

    @property
    def name(self) -> str:
        return f"{_FACTOR_PREFIX[self.schur_type]}({self.multiplicity})"

    @property
    def dim(self) -> int:
        return _skew_dim_formula(self.schur_type, self.multiplicity)

    @property
    def rank(self) -> int:
        return _factor_rank(self.schur_type, self.multiplicity)


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


def _block_center_skew(block_basis: np.ndarray) -> np.ndarray:
    """Skew part of the center of the block algebra span{block_basis}."""
    k = block_basis.shape[0]
    rows = []
    for b in block_basis:
        comm = np.einsum("kij,jl->kil", block_basis, b) - np.einsum(
            "ij,kjl->kil", b, block_basis)
        rows.append(comm.reshape(k, -1).T)
    # Absolute tolerance: for a commutative block algebra the whole stack is
    # numerically zero and a relative cutoff would report an empty center.
    coeff_null, _ = num.nullspace(np.vstack(rows), rank_tol=1e-8, what="block center")
    if coeff_null.shape[1] == 0:
        return block_basis[:0]
    center = np.einsum("kc,kij->cij", coeff_null, block_basis)
    center = (center - np.transpose(center, (0, 2, 1))) / 2.0
    kept = num.span_basis(center, rank_tol=1e-8, what="center skew")
    return kept


def equivariant_isometry_group(components, commutant: np.ndarray,
                               generators) -> EquivariantIsometryGroup:
    """Assemble the factor list and an orthonormal Lie algebra basis.

    Components are ordered by (dimension, Schur type, multiplicity,
    irreducible dimension), which depends on the representation only. The
    Lie basis is grouped factor by factor; for U(n) and SO(2) factors the
    first element of the factor's slice generates the central circle. Every
    element is exactly skew and commutes with the generators within 1e-8.
    """
    components = tuple(sorted(components, key=lambda c: (
        c.dimension, c.schur_type, c.multiplicity, c.irreducible_dim)))
    d = commutant.shape[1] if commutant.size else (
        components[0].basis.shape[0] if components else 0)
    blocks: list[np.ndarray] = []
    factors: list[Factor] = []
    cursor = 0

    for idx, comp in enumerate(components):
        skew = comp.skew_basis
        k = skew.shape[0]
        center_index = None
        ordered = skew
        if comp.schur_type == REAL and comp.multiplicity == 2:
            # so(2) is 1-dimensional: the factor is its own central circle.
            center_index = cursor
        elif comp.schur_type == COMPLEX:
            center_skew = _block_center_skew(comp.block_basis)
            if center_skew.shape[0] != 1:
                raise InternalCheckError(
                    f"component {idx}: expected a 1-dim central circle, got "
                    f"{center_skew.shape[0]}"
                )
            j = center_skew[0]
            # Sign convention for determinism: first significant entry positive.
            flat = j.ravel()
            lead = flat[np.argmax(np.abs(flat) > 1e-8)]
            if lead < 0:
                j = -j
            rest = skew - np.einsum("kij,ij->k", skew, j)[:, None, None] * j
            rest = num.span_basis(rest, rank_tol=1e-8, what="non-central skew")
            if rest.shape[0] != k - 1:
                raise InternalCheckError(
                    f"component {idx}: central complement dim {rest.shape[0]}"
                )
            ordered = np.concatenate([j[None], rest])
            center_index = cursor

        factors.append(Factor(
            schur_type=comp.schur_type,
            multiplicity=comp.multiplicity,
            component_index=idx,
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
