"""Identity component of the isometry group of an orbit space.

One pipeline serves finite groups and catalog actions alike: split off the
fixed subspace (it contributes a flat Euclidean factor and its full motion
group), build the equivariant isometry group Isom_G(V)_0 = prod H_i over the
isotypic components, then identify the kernel of the descent homomorphism
p: Isom_G(V)_0 -> Isom(V/G)_0. Only the preamble differs: a finite spec is
enumerated and restricted to the moving part of V, and a catalog action is
checked to move every vector and contributes the span of its generators.
For a finite G the kernel is computed exactly, with or without boundary: it
is the set of central elements of G lying in the identity component. For a
catalog action its identity component is computed from its Lie algebra, the
equivariant directions tangent to every orbit, a linear system over generic
points; only the -I blocks outside it are tested against the orbit oracle.
Without boundary a catalog kernel is checked to be the center of the image
(Proposition 4.1b): its circles are the central circles of the action, and
it holds no whole factor.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .catalog import DEFAULT_DENSITY, LIE_RANK_FLOOR, CatalogAction, get_action
from .commutant import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EquivariantIsometryGroup,
    classify_component,
    commutant_basis,
    equivariant_isometry_group,
    isotypic_split,
)
from .errors import InternalCheckError, KernelAmbiguityError, OrbitIsomError, ValidationError
from .orbit_geometry import has_boundary, orbit_equivalence_test, sample_generic_point
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
    restrict_group,
)

DEFAULT_SAMPLE_COUNT = 200
CENTRAL_TOL = 1e-8
COMMUTATOR_TOL = 1e-9
# Elements whose commutators with a generator are formed at once.
_CENTER_BLOCK = 1024

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
    vectors: exp(X_j) fixes exactly ker X_j (X_j^3 = -X_j)."""
    split = fixed_subspace(action.elements(np.eye(len(action.generators))),
                           action.dimension)
    if split.fixed_dim != 0:
        raise InternalCheckError(
            f"catalog action {action.id} has invariant vectors; the catalog "
            f"assumes a fully moving action")
    return split


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
    """
    band = max(DEDUP_GUARD * DEDUP_TOL / max(group.dimension, 1), COMMUTATOR_TOL)
    central = group.elements
    for g in group.generators:
        # in blocks, so that the commutators stay in cache
        blocks = np.split(central, range(_CENTER_BLOCK, len(central), _CENTER_BLOCK))
        comm = np.concatenate([
            num.banded_row_max((z @ g - g @ z).reshape(len(z), -1), COMMUTATOR_TOL, band)
            for z in blocks])
        ambiguous = (comm > COMMUTATOR_TOL) & (comm <= band)
        if np.any(ambiguous):
            raise KernelAmbiguityError(
                f"commutator with a generator of max norm {comm[ambiguous].min():.3e}, "
                f"inside ({COMMUTATOR_TOL:.0e}, {band:.3e}]: neither central nor "
                "separated from the center")
        central = central[comm <= COMMUTATOR_TOL]
    return central


def _central_element_in_component(z: np.ndarray, equiv: EquivariantIsometryGroup) -> bool:
    total = np.zeros_like(z)
    for comp in equiv.components:
        p = comp.projector
        total += p @ z @ p
    if num.max_abs(z - total) > CENTRAL_TOL:
        raise InternalCheckError(
            "central element does not preserve the isotypic components")

    for factor in equiv.factors:
        if factor.schur_type != REAL:
            continue  # U(n), Sp(n) connected: no condition
        comp = equiv.components[factor.component_index]
        b = comp.basis
        zc = b.T @ z @ b
        if num.max_abs(zc.T @ zc - np.eye(zc.shape[0])) > CENTRAL_TOL:
            raise InternalCheckError(
                "coordinate extraction residual too large for a central element")
        # sign of det of the multiplicity-space coordinate matrix C: each
        # -1 eigenvalue of C appears irreducible_dim times in zc, complex
        # pairs contribute +1, so sign(det C) = (-1)^(m_minus / dim V_i).
        s = np.linalg.svd(zc + np.eye(zc.shape[0]), compute_uv=False)
        m_minus = int((s < 1e-6).sum())
        rest = s[s >= 1e-6]
        if rest.size and float(rest.min()) < 1e-3:
            raise InternalCheckError(
                "cannot resolve the -1 eigenvalue multiplicity of a central element")
        di = comp.irreducible_dim
        if m_minus % di != 0:
            raise InternalCheckError(
                "central element eigenvalues violate the isotypic block structure")
        if (m_minus // di) % 2 == 1:
            return False
    return True


def center_in_component(center_elements, equiv: EquivariantIsometryGroup):
    """Central elements lying in the identity component prod H_i.

    Real-type factors require the multiplicity-space coordinate matrix to
    have positive determinant (membership in SO(n)); Complex and
    Quaternionic factors impose no condition.
    """
    kept = []
    for z in center_elements:
        z = np.asarray(z, dtype=float)
        if _central_element_in_component(z, equiv):
            kept.append(z)
    return kept


@dataclass(frozen=True)
class KernelDescription:
    """ker(p) for p: Isom_G(V)_0 -> Isom(V/G)_0.

    finite_part lists the elements of the kernel's finite part, a group that
    always contains the identity: exactly Z(G) meet Isom_G(V)_0 for a finite
    G, and the products of the orbit-trivial -I blocks for a catalog action.
    continuous_part lists the center-circle lie-basis indices inside the
    kernel algebra (catalog actions only); with the whole factors they span
    it exactly.
    """

    finite_part: tuple
    continuous_part: tuple
    contains_center_of_g: bool
    whole_factors: tuple        # factor indices entirely orbit-trivial
    factor_discrete: tuple      # factor indices whose -I block is in the kernel

    @property
    def finite_order(self) -> int:
        return len(self.finite_part)


def _discrete_center_candidate(factor, equiv: EquivariantIsometryGroup,
                               dim: int) -> np.ndarray | None:
    # -I_block is central in Sp(n) always and in SO(n) for even n >= 4;
    # for U(n) and SO(2) it sits on the center circle, tested separately.
    n = factor.multiplicity
    if factor.schur_type == QUATERNIONIC or (
            factor.schur_type == REAL and n >= 4 and n % 2 == 0):
        comp = equiv.components[factor.component_index]
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
                   sample_count: int = DEFAULT_SAMPLE_COUNT,
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
    that are neither whole nor circle-in go to the orbit oracle.
    """
    d = ctx.dimension
    if isinstance(ctx, FiniteGroupData):
        finite_part = center_in_component(center_of_group(ctx), equiv)
        factor_discrete = []
        for fi, factor in enumerate(equiv.factors):
            z = _discrete_center_candidate(factor, equiv, d)
            if z is not None and any(num.max_abs(z - k) <= DEDUP_TOL for k in finite_part):
                factor_discrete.append(fi)
        return KernelDescription(
            finite_part=tuple(finite_part), continuous_part=(),
            contains_center_of_g=True, whole_factors=(),
            factor_discrete=tuple(factor_discrete))

    null, complement = kernel_algebra(equiv, ctx, seed)
    eye = np.eye(equiv.lie_basis.shape[0])
    continuous: list[int] = []
    whole: list[int] = []
    factor_discrete: list[int] = []
    # The -I blocks sit on distinct components, so they are commuting
    # involutions and their group is the set of their 2^k subset products.
    finite_part = [np.eye(d)]
    explained: list[int] = []  # lie-basis indices of whole factors and circles

    for fi, factor in enumerate(equiv.factors):
        if factor.dim == 0:
            continue  # SO(1): trivial factor
        circle = factor.center_circle_index
        if _in_kernel_algebra(complement, eye[:, factor.lie_start:factor.lie_stop]):
            whole.append(fi)
            explained += range(factor.lie_start, factor.lie_stop)
            if circle is not None:
                continuous.append(circle)
            continue
        if circle is not None and _in_kernel_algebra(complement, eye[:, circle]):
            continuous.append(circle)
            explained.append(circle)
            continue
        z = _discrete_center_candidate(factor, equiv, d)
        if z is not None and orbit_equivalence_test(ctx, z, sample_count, seed):
            factor_discrete.append(fi)
            finite_part += [k @ z for k in finite_part]

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

    return KernelDescription(
        finite_part=tuple(finite_part),
        continuous_part=tuple(continuous),
        contains_center_of_g=True,
        whole_factors=tuple(whole),
        factor_discrete=tuple(factor_discrete),
    )


def _assert_boundary_free_kernel(kernel: KernelDescription, action: CatalogAction,
                                 equiv: EquivariantIsometryGroup) -> None:
    """Hard check: without boundary the kernel of a catalog action is the
    center of the action's image (Proposition 4.1b), whose identity
    component is its central circles. ``compute_kernel`` has put every
    central direction in the kernel; this checks that no whole factor and
    no non-central circle is in it. The finite part may exceed the
    identity: the center of SU(2) acting on H^2 is {±I}."""
    if kernel.whole_factors:
        raise InternalCheckError(
            "boundary-free catalog quotient has a whole factor in its kernel")
    span = action.central_directions()
    for i in kernel.continuous_part:
        a = equiv.lie_basis[i]
        proj = np.tensordot(np.einsum("kij,ij->k", span, a), span, axes=1)
        if num.max_abs(a - proj) > CENTRAL_TOL:
            raise InternalCheckError(
                "a kernel circle is not central in the image despite the "
                "quotient having no boundary")


_FACTOR_NAME_RE = re.compile(r"^(SO|U|Sp)\((\d+)\)$")
_CENTRAL_ANNOTATIONS = ("", "/{±I}", "/center", "/whole-factor")


def _annotated_name(fi: int, factor, kernel: KernelDescription) -> str:
    if fi in kernel.whole_factors:
        suffix = "/center" if factor.center_circle_index is not None else "/whole-factor"
        return factor.name + suffix
    if (factor.center_circle_index is not None
            and factor.center_circle_index in kernel.continuous_part):
        return factor.name + "/center"
    if fi in kernel.factor_discrete:
        return factor.name + "/{±I}"
    return factor.name


def verify_theorem_B(report: dict) -> str:
    """Structural validation: every factor is SO/U/Sp and every kernel
    annotation quotients by a central subgroup only."""
    for entry in report["compactFactors"]:
        name = entry["name"]
        base, sep, rest = name.partition("/")
        annotation = sep + rest if sep else ""
        if not _FACTOR_NAME_RE.match(base):
            return "fail"
        if annotation not in _CENTRAL_ANNOTATIONS:
            return "fail"
        if entry["type"] not in (REAL, COMPLEX, QUATERNIONIC):
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
    return {
        REAL: "finite-group",
        COMPLEX: "trivial-or-U1",
        QUATERNIONIC: "trivial-or-Sp1-or-SO3",
    }[entry["type"]]


def _quotient_description(equiv, kernel: KernelDescription,
                          euclidean_dim: int) -> str:
    pieces = []
    if euclidean_dim > 0:
        pieces.append(f"Isom(R^{euclidean_dim})_0")
    if equiv is not None:
        for fi, factor in enumerate(equiv.factors):
            if factor.dim == 0:
                continue  # SO(1) contributes nothing
            if fi in kernel.whole_factors:
                continue  # quotients to a point
            circle_in = (factor.center_circle_index is not None
                         and factor.center_circle_index in kernel.continuous_part)
            if circle_in:
                if factor.schur_type == COMPLEX and factor.multiplicity >= 2:
                    piece = f"PSU({factor.multiplicity})"
                    if factor.multiplicity == 2:
                        piece += " (= SO(3))"
                else:
                    piece = factor.name + "/center"
            elif fi in kernel.factor_discrete:
                if factor.schur_type == QUATERNIONIC and factor.multiplicity == 1:
                    piece = "SO(3) (= Sp(1)/{±I})"
                else:
                    piece = factor.name + "/{±I}"
            else:
                piece = factor.name
            pieces.append(piece)
    return " x ".join(pieces) if pieces else "trivial"


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the pipeline computed, plus the JSON-ready report."""

    source: str
    split: TrivialSplit | None
    context: object                     # reduced FiniteGroupData or CatalogAction
    ambient_group: FiniteGroupData | None
    equiv: EquivariantIsometryGroup | None
    kernel: KernelDescription
    boundary: bool
    report: dict


def _build_report(*, euclidean_dim: int, equiv, kernel: KernelDescription,
                  boundary: bool, seed: int, sample_count: int,
                  catalog: CatalogAction | None) -> dict:
    factors = [] if equiv is None else list(equiv.factors)
    compact = [
        {
            "name": _annotated_name(fi, f, kernel),
            "type": f.schur_type,
            "multiplicity": int(f.multiplicity),
        }
        for fi, f in enumerate(factors)
    ]
    # rank(H / ker p) = rank H - rank(ker p)_0: whole factors drop out and
    # every other kernel circle takes one.
    rank = sum(f.rank - (f.center_circle_index in kernel.continuous_part)
               for fi, f in enumerate(factors) if fi not in kernel.whole_factors)

    report = {
        "euclideanFactorDim": int(euclidean_dim),
        "compactFactors": compact,
        "kernel": {
            "finiteOrder": int(kernel.finite_order),
            "circleDirections": int(len(kernel.continuous_part)),
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
        "sampleCount": int(sample_count),
        "equivariantGroupDim": 0 if equiv is None else int(equiv.dimension),
        "euclideanIsometryDim": int(euclidean_dim + euclidean_dim * (euclidean_dim - 1) // 2),
        "quotientDescription": _quotient_description(equiv, kernel, euclidean_dim),
        "irreducibleClass": trichotomy,
    }
    if kernel.whole_factors and equiv is not None:
        notes["kernelWholeFactors"] = [equiv.factors[i].name for i in kernel.whole_factors]
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
    """Returns (label, spec | None, action | None)."""
    if isinstance(source, CatalogAction):
        return f"catalog:{source.id}", None, source
    if isinstance(source, RepresentationSpec):
        if source.kind.startswith("catalog:"):
            return source.kind, None, get_action(source.catalog_id)
        return "finite-spec", source, None
    if isinstance(source, str):
        if source.startswith("catalog:"):
            return source, None, get_action(source.split(":", 1)[1])
        return source, load_spec(source), None
    if isinstance(source, dict):
        from .repr_model import parse_spec
        spec = parse_spec(source)
        if spec.kind.startswith("catalog:"):
            return spec.kind, None, get_action(spec.catalog_id)
        return "finite-spec", spec, None
    raise ValidationError(f"unsupported analysis source: {type(source).__name__}")


def quotient_isometry_group(source, *, seed: int = DEFAULT_SEED,
                            sample_count: int = DEFAULT_SAMPLE_COUNT) -> AnalysisResult:
    """Full pipeline: source -> Isom(V/G)_0 structure report.

    ``source`` may be a spec file path, a parsed spec/dict, a catalog id of
    the form "catalog:<id>", or a CatalogAction. Only the preamble depends
    on the kind of source: it yields the action context restricted to the
    moving part of V, generators whose commutant is the commutant of G, and
    a weighted sample of G for the indicator sums. The stages from
    ``commutant`` on are the same for both kinds.
    """
    label, spec, action = _stage("parse", _resolve_source, source)
    group = None
    if action is None:
        group = _stage("enumerate", enumerate_group, spec)
        split = _stage("trivial-split", fixed_subspace, group.generators,
                       group.dimension, tolerance=spec.tolerance)
        if split.complement_dim == 0:
            kernel = KernelDescription(
                finite_part=(np.eye(0),), continuous_part=(),
                contains_center_of_g=True, whole_factors=(), factor_discrete=())
            report = _build_report(
                euclidean_dim=split.fixed_dim, equiv=None, kernel=kernel,
                boundary=False, seed=seed, sample_count=sample_count, catalog=None)
            return AnalysisResult(
                source=label, split=split, context=None, ambient_group=group,
                equiv=None, kernel=kernel, boundary=False, report=report)
        ctx = _stage("restrict", restrict_group, group, split)
        gens, elements = ctx.generators, ctx.elements
        weights = np.full(ctx.order, 1.0 / ctx.order)
    else:
        # G is connected: commuting with the span of the X_j is commuting
        # with G. The span is smaller than the list when an Euler
        # parametrization repeats a generator, and every generator costs d^2
        # rows in the systems below.
        ctx = action
        split = _stage("trivial-split", _moving_split, action)
        gens = num.span_basis(np.stack(action.generators), rank_tol=LIE_RANK_FLOOR,
                              what="generator span")
        elements, weights = action.fs_sample()

    commutant = _stage("commutant", commutant_basis, gens)
    parts = _stage("isotypic-split", isotypic_split, commutant, gens, seed)
    components = [
        _stage("classify", classify_component, p, elements, weights, commutant)
        for p in parts
    ]
    equiv = _stage("equivariant-group", equivariant_isometry_group,
                   components, commutant, gens)
    boundary = _stage("boundary", has_boundary, ctx)
    kernel = _stage("kernel", compute_kernel, equiv, ctx,
                    sample_count=sample_count, seed=seed)
    if action is not None and not boundary:
        _stage("kernel-consistency", _assert_boundary_free_kernel, kernel, action, equiv)
    report = _build_report(
        euclidean_dim=split.fixed_dim, equiv=equiv, kernel=kernel, boundary=boundary,
        seed=seed, sample_count=sample_count, catalog=action)
    return AnalysisResult(
        source=label, split=split, context=ctx, ambient_group=group,
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


def validate_report_schema(report: dict) -> None:
    """Raises ValidationError unless the report matches the JSON contract."""
    if not isinstance(report, dict):
        raise ValidationError("report must be a JSON object")
    for key, typ in _REPORT_SCHEMA.items():
        if key not in report:
            raise ValidationError(f"report is missing the key {key!r}")
        if not isinstance(report[key], typ) or isinstance(report[key], bool) != (typ is bool):
            raise ValidationError(f"report key {key!r} has the wrong type")
    for entry in report["compactFactors"]:
        if not isinstance(entry, dict):
            raise ValidationError("compactFactors entries must be objects")
        for key, typ in (("name", str), ("type", str), ("multiplicity", int)):
            if key not in entry or not isinstance(entry[key], typ):
                raise ValidationError(f"compactFactors entry key {key!r} invalid")
    for key, typ in _KERNEL_SCHEMA.items():
        if key not in report["kernel"]:
            raise ValidationError(f"kernel is missing the key {key!r}")
        val = report["kernel"][key]
        if not isinstance(val, typ) or isinstance(val, bool) != (typ is bool):
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
