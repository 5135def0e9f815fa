"""Identity component of the isometry group of an orbit space.

One pipeline serves finite groups and catalog actions alike: split off the
fixed subspace (it contributes a flat Euclidean factor and its full motion
group), build the equivariant isometry group Isom_G(V)_0 = prod H_i over the
isotypic components, then identify the kernel of the descent homomorphism
p: Isom_G(V)_0 -> Isom(V/G)_0. Only the preamble differs: a finite spec is
enumerated and restricted to the moving part of V, and a catalog action is
checked to move every vector and contributes the span of its generators.
For a finite G the kernel is computed exactly, with or without boundary: it
is the set of central elements of G lying in the identity component, picked
by their signs ±I on the components (Schur's lemma). For a
catalog action its identity component is computed from its Lie algebra, the
equivariant directions tangent to every orbit, a linear system over generic
points; only the -I blocks outside it are tested against the orbit oracle.
Without boundary a catalog kernel is checked to be the center of the image
(Proposition 4.1b): its circles are the central circles of the action, and
it holds no whole factor.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .catalog import DEFAULT_DENSITY, LIE_RANK_FLOOR, CatalogAction, get_action
from .commutant import (
    COMPLEX,
    QUATERNIONIC,
    SCHUR_TYPES,
    EquivariantIsometryGroup,
    classify_component,
    commutant_basis,
    equivariant_isometry_group,
    isotypic_split,
)
from .errors import InternalCheckError, KernelAmbiguityError, OrbitIsomError, ValidationError
from .orbit_geometry import (check_sampling, has_boundary, orbit_equivalence_test,
                             sample_generic_point)
from .repr_model import (
    DEDUP_GUARD,
    DEDUP_TOL,
    DEFAULT_SEED,
    FiniteGroupData,
    RepresentationSpec,
    TrivialSplit,
    enumerate_group,
    fixed_subspace,
    load_spec,
    parse_spec,
    restrict_group,
)

# Samples per orbit test of a -I block in the catalog kernel search, the
# report's notes.sampleCount.
DEFAULT_SAMPLE_COUNT = 200
CENTRAL_TOL = 1e-8
COMMUTATOR_TOL = 1e-9
# Elements whose commutators with a generator are formed at once.
_CENTER_BLOCK = 1024
# The center screen's weight matrix comes from a constant seed, not the
# user's: it decides which elements get the exact commutator test.
_SCREEN_SEED = 5

FORMULA_BOUNDARY_FREE = "proposition-4.1b"
FORMULA_SEARCH = "central-kernel-search"


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OrbitIsomError as err:
        if getattr(err, "stage", None) is None:
            err.stage = name
        raise


def _moving_split(action: CatalogAction) -> TrivialSplit:
    """The trivial split of a catalog action, which must have no invariant
    vectors. G is connected, so it fixes exactly the common null space of
    the X_j; exp(X_j) may fix more, once a frequency is a multiple of 2 pi."""
    null, _ = num.nullspace(np.vstack(action.generators), rank_tol=LIE_RANK_FLOOR,
                            what="fixed subspace")
    if null.shape[1] != 0:
        raise InternalCheckError(
            f"catalog action {action.id} has invariant vectors; the catalog "
            f"assumes a fully moving action")
    return TrivialSplit(np.zeros((action.dimension, 0)), np.eye(action.dimension),
                        action.generators)


def center_of_group(group: FiniteGroupData) -> np.ndarray:
    """Elements commuting with the whole group, as an (k, d, d) stack in
    element order.

    Commuting with the generators is equivalent and much cheaper than
    testing against every element, and each generator is tested only on the
    elements that commute with the ones before it. A commutator decides at
    COMMUTATOR_TOL, with a guard band above it: if z does not commute with
    g, then zgz^-1 and g are distinct stored elements, more than
    DEDUP_GUARD * DEDUP_TOL apart in max norm, so ||zg - gz||_max =
    ||(zgz^-1 - g) z||_max exceeds DEDUP_GUARD * DEDUP_TOL / d. A commutator
    between the two bounds raises KernelAmbiguityError; past d = 100 the
    band is empty.

    A screen spares most elements the commutator. For a fixed W with
    ||W||_F = 1, <W, zg - gz> = <W g^T - g^T W, z>, so one product of the
    flat element stack with W g^T - g^T W gives <W, [z, g]> for every
    element still in question. As |<W, C>| <= ||W||_1 ||C||_max, an
    element with |<W, [z, g]>| > ||W||_1 band, plus the rounding of both
    sides, has a commutator provably past the band: it is neither central
    nor ambiguous. Only the other elements get the exact test, so the
    screen changes no verdict and no error.
    """
    d = group.dimension
    band = max(DEDUP_GUARD * DEDUP_TOL / max(d, 1), COMMUTATOR_TOL)
    w = np.random.default_rng(_SCREEN_SEED).standard_normal((d, d))
    w /= np.linalg.norm(w)
    # Past this, |<W, C>| / ||W||_1 exceeds band plus the rounding of the
    # computed commutator (3 d eps per entry); the rounding of the score
    # itself is at most 5 d^(5/2) eps for orthogonal z and g.
    limit = np.abs(w).sum() * band + 8.0 * d**3 * np.finfo(float).eps
    flat = group.elements.reshape(group.order, d * d)
    central = np.arange(group.order)
    for g in group.generators:
        screen = (w @ g.T - g.T @ w).ravel()
        rows = flat if len(central) == group.order else flat[central]
        maybe = central[np.abs(rows @ screen) <= limit]
        comm = np.empty(len(maybe))
        for i in range(0, len(maybe), _CENTER_BLOCK):  # in blocks, to stay in cache
            z = group.elements[maybe[i:i + _CENTER_BLOCK]]
            comm[i:i + len(z)] = num.banded_row_max(
                (z @ g - g @ z).reshape(len(z), -1), COMMUTATOR_TOL, band)
        ambiguous = (comm > COMMUTATOR_TOL) & (comm <= band)
        if np.any(ambiguous):
            raise KernelAmbiguityError(
                f"commutator with a generator of max norm {comm[ambiguous].min():.3e}, "
                f"inside ({COMMUTATOR_TOL:.0e}, {band:.3e}]: neither central nor "
                "separated from the center")
        central = maybe[comm <= COMMUTATOR_TOL]
    return group.elements[central]


def center_in_component(center_elements, equiv: EquivariantIsometryGroup):
    """Central elements lying in the identity component prod H_i.

    By Schur's lemma a central z is eps I on a Real or Quaternionic
    component W, eps = tr(B^T z B) / dim W = ±1, and a unit complex scalar,
    which U(n) contains, on a Complex one. So z is in prod H_i unless
    eps = -1 on a component whose factor does not contain -I, SO(n) for odd
    n. That z keeps each component and is ±I on it is checked at
    CENTRAL_TOL.
    """
    z = np.asarray(center_elements, dtype=float)
    restricted = [np.einsum("ji,kjl,lm->kim", c.basis, z, c.basis)
                  for c in equiv.components]
    rebuilt = sum(c.basis @ zw @ c.basis.T for c, zw in zip(equiv.components, restricted))
    if num.max_abs(z - rebuilt) > CENTRAL_TOL:
        raise InternalCheckError(
            "central element does not preserve the isotypic components")
    kept = np.ones(len(z), dtype=bool)
    for comp, zw in zip(equiv.components, restricted):
        if comp.schur_type == COMPLEX:
            continue
        eps = np.trace(zw, axis1=1, axis2=2) / comp.dimension
        off = max(num.max_abs(zw - eps[:, None, None] * np.eye(comp.dimension)),
                  num.max_abs(np.abs(eps) - 1.0))
        if off > CENTRAL_TOL:
            raise InternalCheckError(
                f"central element is off ±I on a {comp.schur_type} component by {off:.3e}")
        if not SCHUR_TYPES[comp.schur_type].contains_minus_i(comp.multiplicity):
            kept &= eps > 0
    return list(z[kept])


# What ker p holds of one factor, besides nothing (None), spelled as the
# factor's annotation in the report.
MINUS_I = "{±I}"         # its -I block
CIRCLE = "center"        # its center circle
WHOLE = "whole-factor"   # the whole factor


@dataclass(frozen=True)
class KernelDescription:
    """ker(p) for p: Isom_G(V)_0 -> Isom(V/G)_0.

    finite_part lists the elements of the kernel's finite part, a group that
    always contains the identity: exactly Z(G) meet Isom_G(V)_0 for a finite
    G, and the products of the orbit-trivial -I blocks for a catalog action.
    parts holds, per factor of H, what of it the kernel holds: None,
    MINUS_I, CIRCLE or WHOLE. For a catalog action the whole factors and
    the center circles span the kernel algebra exactly.

    contains_center_of_g: for a finite G, whether the kernel is all of
    Z(G); for a catalog action, whether it holds the identity component of
    the center of the image, which ``compute_kernel`` checks.
    """

    finite_part: tuple
    parts: tuple
    contains_center_of_g: bool

    def circle_indices(self, factors) -> list[int]:
        """Lie-basis indices of the kernel circles: the center circle of
        each factor whose circle or whole self is in the kernel."""
        return [f.center_circle_index for f, part in zip(factors, self.parts)
                if part in (CIRCLE, WHOLE) and f.center_circle_index is not None]


def _discrete_center_candidate(comp, dim: int) -> np.ndarray | None:
    """The -I block of a component where it lies off its factor's circle;
    on U(n) and SO(2) it sits on the circle, tested separately."""
    if SCHUR_TYPES[comp.schur_type].minus_i_discrete(comp.multiplicity):
        return np.eye(dim) - 2.0 * comp.projector
    return None


def orbit_normal_space(algebra: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the normal space of the orbit through
    the unit vector x: the orthogonal complement of g.x = span{A x}."""
    normal, _ = num.nullspace(algebra @ x, rank_tol=LIE_RANK_FLOOR,
                              what="orbit tangent space")
    return normal


def kernel_algebra(equiv: EquivariantIsometryGroup, action: CatalogAction,
                   seed: int = DEFAULT_SEED):
    """Lie(ker p)_0 as (null, complement): orthonormal coefficient columns
    over ``equiv.lie_basis`` spanning the kernel algebra and its complement.

    X in Lie H descends trivially iff X x lies in the orbit tangent space
    g.x for every x, and generic x suffice. With N_x the orthonormal normal
    space of the orbit (``orbit_normal_space`` over ``action.algebra()``), the
    condition reads N_x^T [A_i x]_i c = 0 on the coefficients c, one block
    of rows per point. Points are unit vectors and the bases orthonormal,
    so the rows have unit scale and the ranks take the absolute floor
    LIE_RANK_FLOOR. The null space of d stacked points must survive d
    more.
    """
    algebra = action.algebra()
    basis = equiv.lie_basis
    d = action.dimension
    rng = np.random.default_rng([seed, 104729])
    rows = []
    dims = []
    for _ in range(2):
        for _ in range(d):
            x = sample_generic_point(action, rng)
            rows.append(orbit_normal_space(algebra, x).T @ (basis @ x).T)
        null, complement = num.nullspace(np.vstack(rows), rank_tol=LIE_RANK_FLOOR,
                                         what="kernel algebra")
        dims.append(null.shape[1])
    if dims[0] != dims[1]:
        raise KernelAmbiguityError(
            f"kernel algebra dimension unstable: {dims[0]} from {d} generic "
            f"points, {dims[1]} from {2 * d}")
    return null, complement


def _in_kernel_algebra(complement: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether the coefficient vectors (columns) lie in the kernel algebra:
    their component along the complement is roundoff or aborts in-band."""
    off = float(np.linalg.norm(complement.T @ coeffs))
    return num.split_spectrum(np.array([off]), CENTRAL_TOL, "kernel membership") == 0


def compute_kernel(equiv: EquivariantIsometryGroup, ctx, *,
                   seed: int = DEFAULT_SEED) -> KernelDescription:
    """ker(p), computed for a finite G and for a catalog action.

    Finite G: the kernel is Z(G) meet Isom_G(V)_0, with or without boundary.
    If z in Isom_G(V)_0 maps every orbit to itself, V is the union of the
    subspaces ker(z - g) over the finitely many g in G; a vector space is no
    finite union of proper subspaces, so z is some g, and it commutes with G.
    No element is tested against the orbit oracle.

    Catalog action: the identity component comes from ``kernel_algebra``.
    A factor is whole when its Lie slice lies in that algebra, and a center
    circle is in when its generator does; the algebra must be exactly the
    whole factors plus those circles (anything else, such as a diagonal
    subtorus, aborts as ambiguous), and must hold every central direction
    of the action. Only the -I blocks of Sp(n) and even SO(n >= 4) factors
    that are neither whole nor circle-in go to the orbit oracle, at
    DEFAULT_SAMPLE_COUNT samples.
    """
    d = ctx.dimension
    if isinstance(ctx, FiniteGroupData):
        center = center_of_group(ctx)
        finite_part = tuple(center_in_component(center, equiv))
        # A -I block commutes with G and lies in H_0: in the kernel iff in G.
        blocks = [_discrete_center_candidate(c, d) for c in equiv.components]
        parts = tuple(None if z is None or ctx.find(z) is None else MINUS_I for z in blocks)
        return KernelDescription(finite_part, parts, len(finite_part) == len(center))

    null, complement = kernel_algebra(equiv, ctx, seed)
    eye = np.eye(equiv.lie_basis.shape[0])
    parts = []
    # The -I blocks sit on distinct components, so they are commuting
    # involutions and their group is the set of their 2^k subset products.
    finite_part = [np.eye(d)]
    explained: list[int] = []  # lie-basis indices of whole factors and circles

    for factor, comp in zip(equiv.factors, equiv.components):
        circle = factor.center_circle_index
        z = _discrete_center_candidate(comp, d)
        part = None
        # an SO(1) factor has no Lie slice and is never in the kernel
        if factor.dim and _in_kernel_algebra(
                complement, eye[:, factor.lie_start:factor.lie_stop]):
            part = WHOLE
            explained += range(factor.lie_start, factor.lie_stop)
        elif circle is not None and _in_kernel_algebra(complement, eye[:, circle]):
            part = CIRCLE
            explained.append(circle)
        elif z is not None and orbit_equivalence_test(ctx, z, DEFAULT_SAMPLE_COUNT, seed):
            part = MINUS_I
            finite_part += [k @ z for k in finite_part]
        parts.append(part)

    if null.shape[1] != len(explained):
        residual = null - eye[:, explained] @ null[explained]
        touched = [f"{f.name} (factor {fi})" for fi, f in enumerate(equiv.factors)
                   if num.max_abs(residual[f.lie_start:f.lie_stop]) > CENTRAL_TOL]
        raise KernelAmbiguityError(
            f"the kernel algebra has {null.shape[1] - len(explained)} direction(s) "
            f"beyond whole factors and center circles (residual "
            f"{np.linalg.norm(residual):.3e} on {', '.join(touched)}); the "
            f"report cannot express it")

    for a in ctx.central_directions():
        coeffs = np.einsum("kij,ij->k", equiv.lie_basis, a)
        off_h = num.max_abs(a - np.tensordot(coeffs, equiv.lie_basis, axes=1))
        if off_h > CENTRAL_TOL or not _in_kernel_algebra(complement, coeffs):
            raise InternalCheckError(
                "a central circle of the action is outside the computed "
                "kernel algebra; the kernel must contain the center of the image")

    return KernelDescription(tuple(finite_part), tuple(parts), contains_center_of_g=True)


def _assert_boundary_free_kernel(kernel: KernelDescription, action: CatalogAction,
                                 equiv: EquivariantIsometryGroup) -> None:
    """Hard check: without boundary the kernel of a catalog action is the
    center of the action's image (Proposition 4.1b), whose identity
    component is its central circles. ``compute_kernel`` has put every
    central direction in the kernel; this checks that no whole factor and
    no non-central circle is in it. The finite part may exceed the
    identity: the center of SU(2) acting on H^2 is {±I}."""
    if WHOLE in kernel.parts:
        raise InternalCheckError(
            "boundary-free catalog quotient has a whole factor in its kernel")
    span = action.central_directions()
    for i in kernel.circle_indices(equiv.factors):
        a = equiv.lie_basis[i]
        proj = np.tensordot(np.einsum("kij,ij->k", span, a), span, axes=1)
        if num.max_abs(a - proj) > CENTRAL_TOL:
            raise InternalCheckError(
                "a kernel circle is not central in the image despite the "
                "quotient having no boundary")


def _annotated_name(factor, part) -> str:
    """The factor's name over what of it the kernel holds; a whole factor
    with a center circle is annotated as its center."""
    if part == WHOLE and factor.center_circle_index is not None:
        part = CIRCLE
    return factor.name if part is None else f"{factor.name}/{part}"


def verify_theorem_B(report: dict) -> str:
    """Structural validation: every factor is named SO(n), U(n) or Sp(n)
    for its own Schur type and multiplicity n, and its annotation names a
    central subgroup that factor has: {±I} where -I lies off the center
    circles, center where there is a circle, whole-factor on a factor of
    positive dimension without one."""
    for entry in report["compactFactors"]:
        kind, n = SCHUR_TYPES.get(entry["type"]), entry["multiplicity"]
        if kind is None or n < 1:
            return "fail"
        annotations = {"": True, f"/{MINUS_I}": kind.minus_i_discrete(n),
                       f"/{CIRCLE}": kind.has_circle(n),
                       f"/{WHOLE}": kind.dim(n) > 0 and not kind.has_circle(n)}
        if not any(ok and entry["name"] == kind.factor_name(n) + a
                   for a, ok in annotations.items()):
            return "fail"
    return "pass"


def classify_irreducible(report: dict) -> str:
    """Trichotomy for an irreducible representation, by Schur type.

    Applicable when there is no fixed subspace and exactly one component of
    multiplicity one; otherwise returns "not-irreducible".
    """
    if report["euclideanFactorDim"] != 0:
        return "not-irreducible"
    if len(report["compactFactors"]) != 1:
        return "not-irreducible"
    entry = report["compactFactors"][0]
    if entry["multiplicity"] != 1:
        return "not-irreducible"
    return SCHUR_TYPES[entry["type"]].irreducible_class


def _quotient_description(factors, kernel: KernelDescription,
                          euclidean_dim: int) -> str:
    """The annotated names, with SO(1) and whole factors dropped (they
    quotient to a point) and PSU(n) and SO(3) = Sp(1)/{±I} named."""
    pieces = [f"Isom(R^{euclidean_dim})_0"] if euclidean_dim > 0 else []
    for factor, part in zip(factors, kernel.parts):
        n = factor.multiplicity
        if factor.dim == 0 or part == WHOLE:
            continue
        if part == CIRCLE and factor.schur_type == COMPLEX and n >= 2:
            pieces.append(f"PSU({n})" + (" (= SO(3))" if n == 2 else ""))
        elif part == MINUS_I and factor.schur_type == QUATERNIONIC and n == 1:
            pieces.append("SO(3) (= Sp(1)/{±I})")
        else:
            pieces.append(_annotated_name(factor, part))
    return " x ".join(pieces) if pieces else "trivial"


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the pipeline computed, plus the JSON-ready report."""

    source: str
    split: TrivialSplit | None
    context: object                     # reduced FiniteGroupData or CatalogAction
    equiv: EquivariantIsometryGroup | None
    kernel: KernelDescription
    boundary: bool
    report: dict


def _build_report(*, euclidean_dim: int, equiv, kernel: KernelDescription,
                  boundary: bool, seed: int, catalog: CatalogAction | None) -> dict:
    factors = () if equiv is None else equiv.factors
    compact = [{"name": _annotated_name(f, part), "type": f.schur_type,
                "multiplicity": int(f.multiplicity)} for f, part in zip(factors, kernel.parts)]
    # rank(H / ker p) = rank H - rank(ker p)_0: whole factors drop out and
    # every other kernel circle takes one.
    rank = sum(f.rank - (part == CIRCLE)
               for f, part in zip(factors, kernel.parts) if part != WHOLE)

    report = {
        "euclideanFactorDim": int(euclidean_dim),
        "compactFactors": compact,
        "kernel": {
            "finiteOrder": len(kernel.finite_part),
            "circleDirections": len(kernel.circle_indices(factors)),
            "containsCenterOfG": bool(kernel.contains_center_of_g),
        },
        "boundary": bool(boundary),
        "formulaApplied": FORMULA_SEARCH if boundary else FORMULA_BOUNDARY_FREE,
        "rank": int(rank),
        "theoremB": "",
        "theoremC": "",
        "seed": int(seed),
        "irreducible": False,
        "notes": {},
    }
    report["theoremB"] = verify_theorem_B(report)

    trichotomy = classify_irreducible(report)
    irreducible = trichotomy != "not-irreducible"
    report["irreducible"] = irreducible
    if not irreducible:
        report["theoremC"] = "n/a"
    else:
        ok = rank <= 1
        if trichotomy == "finite-group":
            ok = ok and rank == 0
        report["theoremC"] = "pass" if ok else "fail"

    notes = {
        "method": "commutant-center split",
        "kernelMethod": _kernel_method_text(boundary, catalog is None),
        "rng": "numpy-pcg64",
        "sampleCount": DEFAULT_SAMPLE_COUNT,
        "equivariantGroupDim": 0 if equiv is None else int(equiv.dimension),
        "euclideanIsometryDim": int(euclidean_dim + euclidean_dim * (euclidean_dim - 1) // 2),
        "quotientDescription": _quotient_description(factors, kernel, euclidean_dim),
        "irreducibleClass": trichotomy,
    }
    if WHOLE in kernel.parts:
        notes["kernelWholeFactors"] = [f.name for f, part in zip(factors, kernel.parts)
                                       if part == WHOLE]
    if catalog is not None:
        notes["catalogDiscretization"] = {
            "density": DEFAULT_DENSITY,
            "gridCounts": [int(c) for c in catalog.grid_counts(DEFAULT_DENSITY)],
            "chordalErrorOrder": "O(1/density) per 1-parameter subgroup",
        }
    report["notes"] = notes
    return report


def _kernel_method_text(boundary: bool, finite: bool) -> str:
    if not boundary:
        return ("no boundary: the kernel equals the central elements inside "
                "the identity component (verified exactly)")
    if finite:
        return ("boundary present: G is finite, so the kernel is exactly the "
                "central elements inside the identity component (computed, "
                "not searched)")
    return ("boundary present: the kernel's identity component is computed "
            "from its Lie algebra (equivariant directions tangent to every "
            "orbit at generic points), not searched; only -I blocks outside "
            "it are tested against the orbit oracle")


def _resolve_source(source):
    """Returns (label, spec | None, action | None).

    A spec of catalog kind resolves to its catalog action whether it
    arrives as a path, a dict or a RepresentationSpec, and must describe
    that action: its dimension, and no generators of its own.
    """
    if isinstance(source, CatalogAction):
        return f"catalog:{source.id}", None, source
    if isinstance(source, str) and source.startswith("catalog:"):
        return source, None, get_action(source.split(":", 1)[1])
    if isinstance(source, str):
        label, spec = source, load_spec(source)
    elif isinstance(source, dict):
        label, spec = "finite-spec", parse_spec(source)
    elif isinstance(source, RepresentationSpec):
        label, spec = "finite-spec", source
    else:
        raise ValidationError(f"unsupported analysis source: {type(source).__name__}")
    if spec.catalog_id is None:
        return label, spec, None
    action = get_action(spec.catalog_id)
    if spec.dimension != action.dimension:
        raise ValidationError(
            f"{spec.kind} acts on R^{action.dimension}, the spec has dimension {spec.dimension}")
    if spec.generators:
        raise ValidationError(f"a {spec.kind} spec takes no generators")
    return spec.kind, None, action


def quotient_isometry_group(source, *, seed: int = DEFAULT_SEED) -> AnalysisResult:
    """Full pipeline: source -> Isom(V/G)_0 structure report.

    ``source`` may be a spec file path, a parsed spec/dict, a catalog id of
    the form "catalog:<id>", or a CatalogAction. Only the preamble depends
    on the kind of source: it yields the action context restricted to the
    moving part of V and generators whose commutant is the commutant of G.
    The stages from ``commutant`` on are the same for both kinds and need
    only those generators: the components are classified from the
    commutant, with no average over G.

    A finite source is analyzed with OpenBLAS on one thread
    (``num.one_blas_thread``), as the oracle runs: its products are too
    small for a second thread to speed up. A catalog source keeps the
    caller's thread count for now: ``benchmark/run.py`` keeps every pass's
    reports, so faster catalog passes raise its catalog-analyze peak RSS
    past its 5 % bound.
    """
    _stage("parse", check_sampling, DEFAULT_SAMPLE_COUNT, seed)
    label, spec, action = _stage("parse", _resolve_source, source)
    with num.one_blas_thread() if action is None else nullcontext():
        return _analyze(label, spec, action, seed)


def _analyze(label: str, spec, action: CatalogAction | None, seed: int) -> AnalysisResult:
    """The stages of ``quotient_isometry_group`` after the parse."""
    if action is None:
        group = _stage("enumerate", enumerate_group, spec)
        split = _stage("trivial-split", fixed_subspace, group.generators,
                       group.dimension, tolerance=spec.tolerance)
        if split.complement_dim == 0:
            kernel = KernelDescription((np.eye(0),), parts=(), contains_center_of_g=True)
            report = _build_report(
                euclidean_dim=split.fixed_dim, equiv=None, kernel=kernel,
                boundary=False, seed=seed, catalog=None)
            return AnalysisResult(
                source=label, split=split, context=None,
                equiv=None, kernel=kernel, boundary=False, report=report)
        ctx = _stage("restrict", restrict_group, group, split)
        gens = ctx.generators
    else:
        # G is connected: commuting with the span of the X_j is commuting
        # with G. The span is smaller than the list when an Euler
        # parametrization repeats a generator, and every generator costs d^2
        # rows in the systems below.
        ctx = action
        split = _stage("trivial-split", _moving_split, action)
        gens = num.span_basis(np.stack(action.generators), rank_tol=LIE_RANK_FLOOR,
                              what="generator span")

    commutant = _stage("commutant", commutant_basis, gens)
    parts = _stage("isotypic-split", isotypic_split, commutant, gens, seed)
    components = [_stage("classify", classify_component, p, commutant) for p in parts]
    equiv = _stage("equivariant-group", equivariant_isometry_group,
                   components, commutant, gens)
    boundary = _stage("boundary", has_boundary, ctx)
    kernel = _stage("kernel", compute_kernel, equiv, ctx, seed=seed)
    if action is not None and not boundary:
        _stage("kernel-consistency", _assert_boundary_free_kernel, kernel, action, equiv)
    report = _build_report(
        euclidean_dim=split.fixed_dim, equiv=equiv, kernel=kernel, boundary=boundary,
        seed=seed, catalog=action)
    return AnalysisResult(
        source=label, split=split, context=ctx,
        equiv=equiv, kernel=kernel, boundary=boundary, report=report)


_REPORT_SCHEMA = {
    "euclideanFactorDim": int,
    "compactFactors": list,
    "kernel": dict,
    "boundary": bool,
    "formulaApplied": str,
    "rank": int,
    "theoremB": str,
    "theoremC": str,
    "seed": int,
}
_KERNEL_SCHEMA = {
    "finiteOrder": int,
    "circleDirections": int,
    "containsCenterOfG": bool,
}


def _has_type(value, typ) -> bool:
    """isinstance, except that a bool is no int and only a bool is a bool."""
    return isinstance(value, typ) and isinstance(value, bool) == (typ is bool)


def validate_report_schema(report: dict) -> None:
    """Raises ValidationError unless the report matches the JSON contract."""
    if not isinstance(report, dict):
        raise ValidationError("report must be a JSON object")
    for key, typ in _REPORT_SCHEMA.items():
        if key not in report:
            raise ValidationError(f"report is missing the key {key!r}")
        if not _has_type(report[key], typ):
            raise ValidationError(f"report key {key!r} has the wrong type")
    for entry in report["compactFactors"]:
        if not isinstance(entry, dict):
            raise ValidationError("compactFactors entries must be objects")
        for key, typ in (("name", str), ("type", str), ("multiplicity", int)):
            if key not in entry or not _has_type(entry[key], typ):
                raise ValidationError(f"compactFactors entry key {key!r} invalid")
    for key, typ in _KERNEL_SCHEMA.items():
        if key not in report["kernel"]:
            raise ValidationError(f"kernel is missing the key {key!r}")
        if not _has_type(report["kernel"][key], typ):
            raise ValidationError(f"kernel key {key!r} has the wrong type")
    if report["formulaApplied"] not in (FORMULA_BOUNDARY_FREE, FORMULA_SEARCH):
        raise ValidationError("formulaApplied has an unknown value")
    if report["theoremB"] not in ("pass", "fail"):
        raise ValidationError("theoremB must be pass or fail")
    if report["theoremC"] not in ("pass", "fail", "n/a"):
        raise ValidationError("theoremC must be pass, fail, or n/a")


def report_json(report: dict) -> str:
    """Canonical serialization: stable key order, two-space indent."""
    return json.dumps(report, indent=2) + "\n"
