"""The oracle and the finite-group analysis run OpenBLAS on one thread and
give the caller's count back; a catalog analysis keeps the caller's count.

The OpenBLAS get/set pair is replaced by a fake, so these tests read the
same on any BLAS build, or none. The report comparisons at the end use the
real libraries.
"""
import sys
import threading

import numpy as np
import pytest

from conftest import stall_newton_ascent
from orbit_isom import _numerics as num
from orbit_isom import isom_quotient, lift_verify, orbit_geometry
from orbit_isom.catalog import get_action
from orbit_isom.errors import AmbiguityError, GroupSizeCapError
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.isom_quotient import quotient_isometry_group, report_json
from orbit_isom.orbit_geometry import (
    QuotientPoint,
    orbit_equivalence_test,
    quotient_distance,
    sector_angle_estimate,
    sphere_quotient_distance,
)

CALLER_THREADS = 4


class FakeBlas:
    """One library's thread count, with a log of every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def blas(monkeypatch):
    fake = FakeBlas(CALLER_THREADS)
    monkeypatch.setattr(num, "_openblas", lambda: ((fake.get, fake.set),))
    yield fake
    assert num._blas_depth == 0


def _hopf_pair():
    action = get_action("hopf-u1-r4")
    x, y = np.random.default_rng(13).standard_normal((2, action.dimension))
    return action, x, y


def _unit(v):
    return v / np.linalg.norm(v)


def test_the_count_is_one_inside_and_the_callers_after(blas):
    with num.one_blas_thread():
        assert blas.count == 1
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


def test_a_single_threaded_caller_sees_no_set(blas):
    blas.count = 1
    with num.one_blas_thread():
        assert blas.count == 1
    assert blas.sets == []


def test_the_count_is_read_at_every_outermost_entry(blas):
    with num.one_blas_thread():
        pass
    blas.count = 3
    with num.one_blas_thread():
        assert blas.count == 1
    assert blas.count == 3
    assert blas.sets == [1, CALLER_THREADS, 1, 3]


def test_the_count_is_restored_after_a_stalled_ascent(blas, monkeypatch):
    stall_newton_ascent(monkeypatch, converged=False)
    action, x, y = _hopf_pair()
    with pytest.raises(AmbiguityError, match="did not converge"):
        quotient_distance(QuotientPoint(x, action), QuotientPoint(y, action))
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


def test_nested_entries_set_and_restore_once(blas):
    # descend_check enters once per quotient distance, inside the caller's
    # entry: only the outermost one sets and restores.
    action = get_action("hopf-u1-r4")
    lift = lift_verify.lift_rotation(np.eye(3)).lift
    with num.one_blas_thread():
        lift_verify.descend_check(lift, action, 2, 0)
        assert blas.count == 1
        assert blas.sets == [1]
    assert blas.sets == [1, CALLER_THREADS]


def test_the_last_thread_out_restores(blas):
    both_inside = threading.Barrier(2, timeout=10)
    first_out = threading.Event()
    seen = []

    def first():
        with num.one_blas_thread():
            both_inside.wait()
        first_out.set()

    def second():
        with num.one_blas_thread():
            both_inside.wait()
            first_out.wait(timeout=10)
            seen.append(blas.count)

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1]
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


def test_many_threads_entering_and_leaving_keep_the_count(blas):
    # More threads than cores, switching as often as the interpreter allows:
    # a lost update of the depth would leave the count at 1, or restore it
    # while another thread is still inside.
    wrong = []

    def worker():
        for _ in range(200):
            with num.one_blas_thread():
                if blas.count != 1:
                    wrong.append(blas.count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS] * (len(blas.sets) // 2)


def _entry_points():
    action, x, y = _hopf_pair()
    lift = lift_verify.lift_rotation(np.eye(3)).lift
    return {
        "quotient_distance": lambda: quotient_distance(
            QuotientPoint(x, action), QuotientPoint(y, action)),
        "sphere_quotient_distance": lambda: sphere_quotient_distance(
            _unit(x), _unit(y), action),
        "orbit_equivalence_test": lambda: orbit_equivalence_test(
            action, np.eye(4)[[1, 0, 3, 2]], 3, 0),
        "sector_angle_estimate": lambda: sector_angle_estimate(
            get_action("so2xso3-r5"), 50, 0),
        "descend_check": lambda: lift_verify.descend_check(lift, action, 2, 0),
        "verify_hopf_metric": lambda: lift_verify.verify_hopf_metric(20, 0),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_grid_scans_run_on_one_thread(entry, blas, monkeypatch):
    seen = []
    for name in ("_grid_argmax", "_grid_maxima"):
        scan = getattr(orbit_geometry, name)

        def spy(*args, scan=scan):
            seen.append(blas.count)
            return scan(*args)

        monkeypatch.setattr(orbit_geometry, name, spy)
    _entry_points()[entry]()
    assert seen and set(seen) == {1}
    assert blas.count == CALLER_THREADS


def test_outputs_do_not_depend_on_finding_a_library(monkeypatch):
    def outputs():
        return [f() for _, f in sorted(_entry_points().items())]

    found = outputs()
    monkeypatch.setattr(num, "_openblas", lambda: ())
    assert outputs() == found


# The stages quotient_isometry_group looks up by name; a finite analysis
# with a moving part calls all of them, one without calls the first two
# and the report.
_STAGES = ("enumerate_group", "fixed_subspace", "restrict_group", "commutant_basis",
           "isotypic_split", "classify_component", "equivariant_isometry_group",
           "has_boundary", "compute_kernel", "_build_report")


def _spy_stages(monkeypatch, blas):
    """The thread count each stage saw, by stage name."""
    seen = {}
    for name in _STAGES:
        stage = getattr(isom_quotient, name)

        def spy(*args, name=name, stage=stage, **kwargs):
            seen.setdefault(name, []).append(blas.count)
            return stage(*args, **kwargs)

        monkeypatch.setattr(isom_quotient, name, spy)
    return seen


@pytest.mark.parametrize("name", ["q8", "trivial-r3"])
def test_a_finite_analysis_runs_its_stages_on_one_thread(name, blas, monkeypatch):
    seen = _spy_stages(monkeypatch, blas)
    quotient_isometry_group(fixture_document(name))
    expected = set(_STAGES) if name == "q8" else {"enumerate_group", "fixed_subspace",
                                                 "_build_report"}
    assert set(seen) == expected
    assert {c for counts in seen.values() for c in counts} == {1}
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


def test_the_count_is_restored_after_a_group_size_cap_error(blas):
    doc = dict(fixture_document("q8"), groupSizeCap=2)
    with pytest.raises(GroupSizeCapError):
        quotient_isometry_group(doc)
    assert blas.count == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


def test_inside_a_callers_entry_the_analysis_sets_nothing(blas):
    with num.one_blas_thread():
        quotient_isometry_group(fixture_document("q8"))
        assert blas.sets == [1]
    assert blas.sets == [1, CALLER_THREADS]


def test_a_catalog_analysis_keeps_the_callers_count(blas, monkeypatch):
    seen = _spy_stages(monkeypatch, blas)
    quotient_isometry_group("catalog:hopf-u1-r4")
    assert "commutant_basis" in seen and "compute_kernel" in seen
    assert {c for counts in seen.values() for c in counts} == {CALLER_THREADS}
    assert blas.count == CALLER_THREADS


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_finite_report_does_not_depend_on_the_callers_threads(name, monkeypatch):
    doc = fixture_document(name)
    alone = report_json(quotient_isometry_group(doc).report)
    with num.one_blas_thread():
        inside = report_json(quotient_isometry_group(doc).report)
    monkeypatch.setattr(num, "_openblas", lambda: ())
    unswitched = report_json(quotient_isometry_group(doc).report)
    assert inside == alone
    assert unswitched == alone
