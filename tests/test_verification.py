import dataclasses

import numpy as np

from conftest import with_kernel_edit
from orbit_isom import _numerics as num
from orbit_isom.catalog import CATALOG, ActionMetadata
from orbit_isom.isom_quotient import WHOLE
from orbit_isom.verification import (
    SUITE_IDS,
    _AnalysisMemo,
    _catalog_kernel_problems,
    _finite_kernel_problems,
    run_suites,
)


def test_suite_ids_ordered():
    assert len(SUITE_IDS) == 9
    assert [s.split("-")[0] for s in SUITE_IDS] == [str(i) for i in range(1, 10)]


def test_filter_returns_empty_on_no_match():
    assert run_suites("zzz") == []


def test_filter_substring(memo):
    results = run_suites("hopf", memo=memo)
    assert [r.suite_id for r in results] == [
        "1-hopf-pipeline", "2-hopf-metric", "3-hopf-lift"]


def test_results_carry_details(memo):
    (result,) = run_suites("5-", memo=memo)
    assert result.passed
    assert result.details
    assert result.suite_id == "5-irreducible-trichotomy"


def test_the_sector_suite_targets_the_declared_angles(monkeypatch):
    action = CATALOG["so2xso3-r5"]
    moved = dataclasses.replace(action, metadata=ActionMetadata(True, 1.0))
    monkeypatch.setitem(CATALOG, "so2xso3-r5", moved)
    (result,) = run_suites("4-", memo=_AnalysisMemo(seed=0))
    assert not result.passed
    assert "so2xso3-r5: 1.5708 (want 1.0000)" in result.details


def _finite_kernel_with(label, edit):
    """Suite 6's fixture check of ``label`` on a memo whose kernel has its
    finite part replaced by ``edit(finite_part)``."""
    bad = _AnalysisMemo(seed=0)
    result = bad.analysis(label)
    kernel = dataclasses.replace(result.kernel,
                                 finite_part=tuple(edit(result.kernel.finite_part)))
    bad._cache[label] = dataclasses.replace(result, kernel=kernel)
    return _finite_kernel_problems(label, bad)


def test_kernel_suite_fails_when_q8_loses_minus_identity():
    minus_i = -np.eye(4)
    problems = _finite_kernel_with(
        "q8", lambda part: [k for k in part if num.max_abs(k - minus_i) > 1e-8])
    assert "q8: the -I block of Sp(1) fixes every orbit but is not in the kernel" in problems


def test_kernel_suite_fails_when_q8_loses_the_part_of_its_factor():
    bad = _AnalysisMemo(seed=0)
    bad._cache["q8"] = with_kernel_edit(bad.analysis("q8"), parts=(None,))
    assert _finite_kernel_problems("q8", bad) == [
        "q8: the kernel part of Sp(1) disagrees with the finite part"]


def test_kernel_suite_fails_when_c5_gains_a_noncentral_element():
    reflection = np.diag([1.0, -1.0])
    problems = _finite_kernel_with("c5", lambda part: list(part) + [reflection])
    assert "c5: 1 kernel elements move an orbit" in problems


def _catalog_kernel_with(label, **edit):
    """Oracle cross-check of ``label`` on a memo whose analysis has the
    ``with_kernel_edit`` ``edit``."""
    bad = _AnalysisMemo(seed=0)
    bad._cache[label] = with_kernel_edit(bad.analysis(label), **edit)
    return _catalog_kernel_problems(label, bad)


def test_catalog_kernel_check_fails_when_hopf_claims_its_whole_factor():
    problems = _catalog_kernel_with("catalog:hopf-u1-r4", parts=(WHOLE,))
    assert problems == ["catalog:hopf-u1-r4: a random element of U(2) moves an orbit, "
                        "but the factor is in the kernel"]


def test_catalog_kernel_check_fails_when_r5_loses_its_whole_factor():
    problems = _catalog_kernel_with("catalog:so2xso3-r5", parts=(None, None))
    assert problems == ["catalog:so2xso3-r5: a random element of U(1) fixes every "
                        "orbit, but the factor is not in the kernel"]


def test_catalog_kernel_check_fails_when_hopf_claims_a_moving_circle():
    # the kernel holds the center circle of U(2), which is made to point at
    # lie-basis index 1, a direction of su(2)
    problems = _catalog_kernel_with("catalog:hopf-u1-r4", center_circle_index=1)
    assert problems == ["catalog:hopf-u1-r4: kernel circle 1 moves an orbit"]
