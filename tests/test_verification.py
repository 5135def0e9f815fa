import dataclasses

import numpy as np

from orbit_isom import _numerics as num
from orbit_isom.verification import SUITE_IDS, _AnalysisMemo, run_suites


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


def _kernel_suite_with(label, edit):
    """Suite 6 on a memo whose ``label`` analysis has its kernel's finite
    part replaced by ``edit(finite_part)``."""
    bad = _AnalysisMemo(seed=0, sample_count=200)
    result = bad.analysis(label)
    kernel = dataclasses.replace(result.kernel,
                                 finite_part=tuple(edit(result.kernel.finite_part)))
    bad._cache[label] = dataclasses.replace(result, kernel=kernel)
    (suite,) = run_suites("6-", memo=bad)
    return suite


def test_kernel_suite_fails_when_q8_loses_minus_identity():
    minus_i = -np.eye(4)
    suite = _kernel_suite_with(
        "q8", lambda part: [k for k in part if num.max_abs(k - minus_i) > 1e-8])
    assert not suite.passed
    assert "the -I block of Sp(1) fixes every orbit" in suite.details


def test_kernel_suite_fails_when_c5_gains_a_noncentral_element():
    reflection = np.diag([1.0, -1.0])
    suite = _kernel_suite_with("c5", lambda part: list(part) + [reflection])
    assert not suite.passed
    assert "c5: 1 kernel elements move an orbit" in suite.details
