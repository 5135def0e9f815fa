"""Acceptance verification suites.

Nine numbered suites, each checking one acceptance contract end to end:
the Hopf pipeline and its quotient metric, the lifting construction, the
sector-angle estimates, the irreducible trichotomy, the kernel/center
laws, the descend property of equivariant isometries, the structural
report validators (with the group-average indicator sums, the second route
to each component's type), and determinism of repeated runs.

`run_suites` executes a substring-filtered subset in numeric order and
returns one SuiteResult per suite. Suite output never contains wall-clock
numbers, so two runs with the same seed print byte-identical tables;
runtime budgets are enforced internally and reported only as verdicts.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _numerics as num
from .catalog import CATALOG, get_action, trivial_action
from .commutant import SCHUR_TYPES, commutant_basis, sample_equivariant_isometry
from .fixtures import FIXTURE_NAMES, fixture_document
from .isom_quotient import (
    CIRCLE,
    DEFAULT_SAMPLE_COUNT,
    MINUS_I,
    WHOLE,
    _discrete_center_candidate,
    center_in_component,
    center_of_group,
    classify_irreducible,
    quotient_isometry_group,
    report_json,
    validate_report_schema,
    verify_theorem_B,
)
from .lift_verify import descend_check, lift_rotation, verify_hopf_metric
from .orbit_geometry import orbit_equivalence_test, sector_angle_estimate
from .repr_model import FiniteGroupData

LIFT_TOL = 1e-8
DESCEND_TOL = 1e-8
SECTOR_TOL = 1e-2
HOPF_METRIC_TOL = 1e-3
INDICATOR_TOL = 1e-6
HOPF_BUDGET_SECONDS = 30.0
SECTOR_BUDGET_SECONDS = 60.0
CATALOG_LABELS = tuple(f"catalog:{action_id}" for action_id in CATALOG)
CIRCLE_TEST_TIMES = (0.1, 0.37, 1.01)


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    passed: bool
    details: str


class _AnalysisMemo:
    """One analysis per source per run; suites share the results. The
    sample count is for the suites' own orbit tests; the analysis runs at
    its constant DEFAULT_SAMPLE_COUNT."""

    def __init__(self, seed: int, sample_count: int):
        self.seed = seed
        self.sample_count = sample_count
        self._cache: dict = {}

    def analysis(self, label: str):
        if label not in self._cache:
            self._cache[label] = self.fresh(label)
        return self._cache[label]

    def fresh(self, label: str):
        source = label if label.startswith("catalog:") else fixture_document(label)
        return quotient_isometry_group(source, seed=self.seed)


def _suite_hopf_pipeline(memo: _AnalysisMemo) -> SuiteResult:
    t0 = time.monotonic()
    result = memo.analysis("catalog:hopf-u1-r4")
    elapsed = time.monotonic() - t0
    rep = result.report
    checks = {
        "equivariant group is U(2) (Lie dim 4)": (
            result.equiv.dimension == 4
            and [f["name"] for f in rep["compactFactors"]] == ["U(2)/center"]
            and rep["compactFactors"][0]["type"] == "Complex"
            and rep["compactFactors"][0]["multiplicity"] == 2
        ),
        "no boundary": rep["boundary"] is False,
        "kernel is exactly the central circle": (
            rep["kernel"] == {"finiteOrder": 1, "circleDirections": 1,
                              "containsCenterOfG": True}
        ),
        "lifting formula applies": rep["formulaApplied"] == "proposition-4.1b",
        "quotient group is SO(3)": "SO(3)" in rep["notes"]["quotientDescription"],
        "rank 1": rep["rank"] == 1,
        "runtime within budget": elapsed < HOPF_BUDGET_SECONDS,
    }
    failed = [k for k, ok in checks.items() if not ok]
    return SuiteResult(
        "1-hopf-pipeline",
        not failed,
        "; ".join(failed) if failed else
        "U(2) acting on R^4, kernel = central circle, quotient SO(3), rank 1",
    )


def _suite_hopf_metric(memo: _AnalysisMemo) -> SuiteResult:
    residuals = {
        m: verify_hopf_metric(100, memo.seed, density=m)
        for m in (2048, 4096, 8192)
    }
    ok_tol = residuals[4096] <= HOPF_METRIC_TOL
    ok_decreasing = residuals[2048] > residuals[4096] > residuals[8192]
    details = ", ".join(f"m={m}: {r:.3e}" for m, r in residuals.items())
    if not ok_tol:
        details += f"; residual at m=4096 above {HOPF_METRIC_TOL:g}"
    if not ok_decreasing:
        details += "; residual did not decrease under doubling"
    return SuiteResult("2-hopf-metric", ok_tol and ok_decreasing, details)


def _suite_hopf_lift(memo: _AnalysisMemo) -> SuiteResult:
    rng = np.random.default_rng([memo.seed, 31])
    worst = max(lift_rotation(num.random_rotation(rng, 3), seed=memo.seed).residual
                for _ in range(50))
    if worst > LIFT_TOL:
        return SuiteResult("3-hopf-lift", False,
                           f"worst lift residual {worst:.3e} above {LIFT_TOL:g}")

    worst_pair = 0.0
    for _ in range(20):
        r1, r2 = num.random_rotation(rng, 3), num.random_rotation(rng, 3)
        l1 = lift_rotation(r1, seed=memo.seed).lift
        l2 = lift_rotation(r2, seed=memo.seed).lift
        l12 = lift_rotation(r1 @ r2, seed=memo.seed).lift
        sign_gap = min(num.max_abs(l12 - l1 @ l2), num.max_abs(l12 + l1 @ l2))
        worst_pair = max(worst_pair, sign_gap)
    passed = worst_pair <= LIFT_TOL
    return SuiteResult(
        "3-hopf-lift", passed,
        f"50 lifts within {LIFT_TOL:g}; double-cover sign gap {worst_pair:.3e}"
        if passed else f"double-cover sign gap {worst_pair:.3e} above {LIFT_TOL:g}",
    )


def _suite_sector_angles(memo: _AnalysisMemo) -> SuiteResult:
    """The estimates against each action's declared expected_sector_angle."""
    parts = []
    passed = True
    for action_id in ("so2xso3-r5", "so2-tensor-so3-r6"):
        action = get_action(action_id)
        want = action.metadata.expected_sector_angle
        t0 = time.monotonic()
        got = sector_angle_estimate(action, 5000, memo.seed)
        elapsed = time.monotonic() - t0
        ok = abs(got - want) <= SECTOR_TOL and elapsed < SECTOR_BUDGET_SECONDS
        passed = passed and ok
        parts.append(f"{action_id}: {got:.4f} (want {want:.4f})"
                     + ("" if elapsed < SECTOR_BUDGET_SECONDS else ", over budget"))
    trivial = trivial_action(2)
    want = trivial.metadata.expected_sector_angle
    got = sector_angle_estimate(trivial, 400, memo.seed)
    passed = passed and abs(got - want) <= SECTOR_TOL
    parts.append(f"trivial R^2: {got:.4f} (want {want:.4f})")
    return SuiteResult("4-sector-angles", passed, "; ".join(parts))


def _suite_irreducible_trichotomy(memo: _AnalysisMemo) -> SuiteResult:
    expectations = [
        ("d4", "finite-group", lambda rep: rep["rank"] == 0),
        ("c5", "trivial-or-U1",
         lambda rep: [f["name"] for f in rep["compactFactors"]] == ["U(1)"]),
        ("q8", "trivial-or-Sp1-or-SO3",
         lambda rep: "SO(3)" in rep["notes"]["quotientDescription"]),
    ]
    problems = []
    for name, want_class, extra in expectations:
        rep = memo.analysis(name).report
        got_class = classify_irreducible(rep)
        if got_class != want_class:
            problems.append(f"{name}: class {got_class!r}, want {want_class!r}")
        if rep["theoremC"] != "pass":
            problems.append(f"{name}: theoremC {rep['theoremC']!r}")
        if not extra(rep):
            problems.append(f"{name}: shape check failed")
    return SuiteResult(
        "5-irreducible-trichotomy",
        not problems,
        "; ".join(problems) if problems else
        "D4 -> finite-group (rank 0), C5 -> U(1), Q8 -> SO(3); rank <= 1 throughout",
    )


def _matched(element: np.ndarray, pool) -> bool:
    return any(num.max_abs(element - other) <= 1e-8 for other in pool)


def _catalog_kernel_problems(label: str, memo: _AnalysisMemo) -> list[str]:
    """The orbit oracle against a catalog kernel computed from its Lie
    algebra: each kernel circle fixes every orbit at several angles, a
    random element of each whole factor does, and a random element of each
    factor outside the kernel does not."""
    result = memo.analysis(label)
    ctx, equiv, kernel = result.context, result.equiv, result.kernel
    rng = np.random.default_rng([memo.seed, 104729])

    def orbit_trivial(z):
        return orbit_equivalence_test(ctx, z, memo.sample_count, memo.seed)

    problems = []
    for i in kernel.circle_indices(equiv.factors):
        if not all(orbit_trivial(num.expm(t * equiv.lie_basis[i])) for t in CIRCLE_TEST_TIMES):
            problems.append(f"{label}: kernel circle {i} moves an orbit")
    for factor, part in zip(equiv.factors, kernel.parts):
        if factor.dim == 0:
            continue
        coeff = num.random_unit_vector(rng, factor.dim)
        whole = part == WHOLE
        if part == CIRCLE and factor.dim > 1:
            # A probe near a kernel circle would move orbits by too little
            # to fail cleanly.
            coeff[factor.center_circle_index - factor.lie_start] = 0.0
            coeff /= np.linalg.norm(coeff)
        probe = num.expm(np.tensordot(coeff, equiv.factor_lie_basis(factor), axes=1))
        if orbit_trivial(probe) != whole:
            problems.append(
                f"{label}: a random element of {factor.name} "
                + ("moves an orbit, but the factor is in the kernel" if whole else
                   "fixes every orbit, but the factor is not in the kernel"))
    return problems


def _finite_kernel_problems(name: str, memo: _AnalysisMemo) -> list[str]:
    """The kernel of a finite group equals its in-component center; the
    orbit oracle checks it by the route that does not go through the
    structure theory: every kernel element maps every orbit to itself, and
    every -I block left out of the kernel moves some orbit. (Central
    elements outside the identity component lie in G and map every orbit
    to itself, so the oracle cannot reject them; only the comparison with
    the in-component center keeps them out.) A factor's kernel part reads
    MINUS_I exactly when its -I block is in the finite part, and
    containsCenterOfG exactly when all of Z(G) is."""
    problems = []
    result = memo.analysis(name)
    rep = result.report
    if CIRCLE in result.kernel.parts or WHOLE in result.kernel.parts:
        problems.append(f"{name}: continuous kernel parts on a finite group")
    if rep["kernel"]["circleDirections"] != 0:
        problems.append(f"{name}: reported circle directions nonzero")
    ctx = result.context
    if ctx is None:
        return problems
    kernel = result.kernel.finite_part
    center = center_of_group(ctx)
    in_component = center_in_component(center, result.equiv)
    missing = [z for z in in_component if not _matched(z, kernel)]
    if missing:
        problems.append(
            f"{name}: {len(missing)} central in-component elements not in kernel")
    if rep["kernel"]["containsCenterOfG"] is not all(_matched(z, kernel) for z in center):
        problems.append(f"{name}: containsCenterOfG flag inconsistent")
    extra = [k for k in kernel if not _matched(k, in_component)]
    if extra:
        problems.append(
            f"{name}: {len(extra)} kernel elements outside the in-component center")

    def orbit_trivial(z):
        return orbit_equivalence_test(ctx, z, memo.sample_count, memo.seed)

    moving = [k for k in kernel if not orbit_trivial(k)]
    if moving:
        problems.append(f"{name}: {len(moving)} kernel elements move an orbit")
    for factor, comp, part in zip(result.equiv.factors, result.equiv.components,
                                  result.kernel.parts):
        z = _discrete_center_candidate(comp, ctx.dimension)
        in_kernel = z is not None and _matched(z, kernel)
        if (part == MINUS_I) != in_kernel:
            problems.append(f"{name}: the kernel part of {factor.name} disagrees "
                            f"with the finite part")
        if z is not None and not in_kernel and orbit_trivial(z):
            problems.append(
                f"{name}: the -I block of {factor.name} fixes every orbit "
                f"but is not in the kernel")
    if not result.boundary and rep["formulaApplied"] != "proposition-4.1b":
        problems.append(f"{name}: wrong formula tag")
    return problems


def _suite_kernel_center_laws(memo: _AnalysisMemo) -> SuiteResult:
    """The kernels of the fixtures (``_finite_kernel_problems``) and of the
    catalog actions (``_catalog_kernel_problems``), each cross-checked with
    the orbit oracle."""
    problems = []
    for name in FIXTURE_NAMES:
        problems += _finite_kernel_problems(name, memo)
    for label in CATALOG_LABELS:
        problems += _catalog_kernel_problems(label, memo)
    return SuiteResult(
        "6-kernel-center-laws",
        not problems,
        "; ".join(problems) if problems else
        "on all fixtures the kernel is finite, holds exactly the in-component "
        "center, and the orbit oracle passes each kernel element and fails "
        "each -I block left out; on the catalog actions it passes each kernel "
        "circle and whole factor and fails each factor outside the kernel",
    )


def _suite_descend(memo: _AnalysisMemo) -> SuiteResult:
    worst = 0.0
    tested = 0
    for idx, name in enumerate(FIXTURE_NAMES):
        result = memo.analysis(name)
        if result.context is None:
            continue
        for k in range(15):
            x = sample_equivariant_isometry(result.equiv, 0.25 + 0.05 * k,
                                            memo.seed * 1009 + 17 * k + idx)
            worst = max(worst, descend_check(x, result.context, 100, memo.seed + k))
            tested += 1
    hopf = memo.analysis("catalog:hopf-u1-r4")
    for k in range(3):
        x = sample_equivariant_isometry(hopf.equiv, 0.4 + 0.2 * k, memo.seed * 977 + k)
        worst = max(worst, descend_check(x, hopf.context, 100, memo.seed + k))
        tested += 1
    passed = tested >= 100 and worst <= DESCEND_TOL
    return SuiteResult(
        "7-descend", passed,
        f"{tested} equivariant isometries x 100 pairs, worst residual {worst:.3e}",
    )


def _expected_commutant_dim(rep: dict) -> int:
    return sum(SCHUR_TYPES[f["type"]].weight * f["multiplicity"] ** 2
               for f in rep["compactFactors"])


def _expected_skew_dim(rep: dict) -> int:
    return sum(SCHUR_TYPES[f["type"]].dim(f["multiplicity"])
               for f in rep["compactFactors"])


def indicator_sums(result) -> list[float]:
    """The group average (1/|G|) sum_g trace(P g^2 P) over each component
    of an analysis, over the context's ``fs_sample()``: every element of a
    finite group with weight 1/|G|, or a catalog action's Haar quadrature.
    The analysis reads type and multiplicity from the restricted commutant
    instead; this is the second route, n, 0 or -2n by Frobenius-Schur."""
    if result.equiv is None:
        return []
    elements, weights = result.context.fs_sample()
    mean_square = np.tensordot(weights, elements @ elements, axes=1)
    return [float(np.sum(c.basis * (mean_square @ c.basis)))
            for c in result.equiv.components]


def _suite_structural(memo: _AnalysisMemo) -> SuiteResult:
    labels = list(FIXTURE_NAMES) + list(CATALOG_LABELS)
    problems = []
    for label in labels:
        result = memo.analysis(label)
        rep = result.report
        try:
            validate_report_schema(rep)
        except Exception as exc:
            problems.append(f"{label}: schema: {exc}")
            continue
        if verify_theorem_B(rep) != "pass":
            problems.append(f"{label}: factor-structure validator failed")
        if result.context is None:
            generators, reduced_dim = (), 0
        elif isinstance(result.context, FiniteGroupData):
            generators = result.context.elements
            reduced_dim = result.context.dimension
        else:
            generators = result.context.generators
            reduced_dim = result.context.dimension
        if reduced_dim:
            measured = len(commutant_basis(generators))
            if measured != _expected_commutant_dim(rep):
                problems.append(
                    f"{label}: commutant dim {measured} != "
                    f"sum n_i^2 t_i = {_expected_commutant_dim(rep)}")
        elif _expected_commutant_dim(rep) != 0:
            problems.append(f"{label}: nonzero commutant on a zero space")
        lie_dim = 0 if result.equiv is None else result.equiv.dimension
        if lie_dim != _expected_skew_dim(rep):
            problems.append(
                f"{label}: Lie dim {lie_dim} != factor formula "
                f"{_expected_skew_dim(rep)}")
        if rep["notes"]["equivariantGroupDim"] != lie_dim:
            problems.append(f"{label}: reported equivariant dim inconsistent")
        comps = () if result.equiv is None else result.equiv.components
        for comp, s in zip(comps, indicator_sums(result)):
            want = SCHUR_TYPES[comp.schur_type].indicator * comp.multiplicity
            if abs(s - want) > INDICATOR_TOL:
                problems.append(
                    f"{label}: indicator sum {s!r} != {want} for "
                    f"{comp.schur_type}({comp.multiplicity})")
    return SuiteResult(
        "8-structural",
        not problems,
        "; ".join(problems) if problems else
        "schema, factor structure, commutant dimension identity, "
        "skew-dimension formulas, and group-average indicator sums hold on "
        "all eleven sources",
    )


def _suite_determinism(memo: _AnalysisMemo) -> SuiteResult:
    labels = list(FIXTURE_NAMES) + ["catalog:hopf-u1-r4"]
    diffs = []
    for label in labels:
        first = report_json(memo.analysis(label).report)
        second = report_json(memo.fresh(label).report)
        if first != second:
            diffs.append(label)
    return SuiteResult(
        "9-determinism",
        not diffs,
        f"reports differ for: {', '.join(diffs)}" if diffs else
        "repeated analyses are byte-identical on all nine sources",
    )


_SUITES = (
    ("1-hopf-pipeline", _suite_hopf_pipeline),
    ("2-hopf-metric", _suite_hopf_metric),
    ("3-hopf-lift", _suite_hopf_lift),
    ("4-sector-angles", _suite_sector_angles),
    ("5-irreducible-trichotomy", _suite_irreducible_trichotomy),
    ("6-kernel-center-laws", _suite_kernel_center_laws),
    ("7-descend", _suite_descend),
    ("8-structural", _suite_structural),
    ("9-determinism", _suite_determinism),
)

SUITE_IDS = tuple(suite_id for suite_id, _ in _SUITES)


def run_suites(only: str | None = None, *, seed: int = 0,
               sample_count: int = DEFAULT_SAMPLE_COUNT,
               memo: _AnalysisMemo | None = None) -> list[SuiteResult]:
    """Run the acceptance suites whose id contains ``only`` (all if None).

    ``memo`` lets repeated calls share cached analyses; seed and sample
    count are taken from it when given.
    """
    if memo is None:
        memo = _AnalysisMemo(seed, sample_count)
    results = []
    for suite_id, fn in _SUITES:
        if only is not None and only not in suite_id:
            continue
        try:
            results.append(fn(memo))
        except Exception as exc:  # a crashed suite is a failed suite
            results.append(SuiteResult(suite_id, False, f"error: {exc}"))
    return results
