"""Tests of the benchmark's own parts: inputs, references and tracing.

Run with ``PYTHONPATH=src python -m pytest benchmark``.
"""
import json
import math

import numpy as np
import pytest

from orbit_isom.catalog import get_action
from orbit_isom.fixtures import fixture_document
from orbit_isom.isom_quotient import quotient_isometry_group
from orbit_isom.repr_model import enumerate_group, parse_spec

import inputs
import reference as ref
import run
import tracing
import workloads


def _generated_specs(seed):
    rng = np.random.default_rng([seed, 1])
    for n in workloads.SIGNED_PERMUTATION_SIZES:
        yield f"B{n}", inputs.signed_permutation_doc(n, rng), inputs.signed_permutation_order(n)
    for n in workloads.CYCLIC_ORDERS:
        yield f"C{n}", inputs.cyclic_weight_doc(n, workloads.CYCLIC_WEIGHTS, rng), n


@pytest.mark.parametrize("label,doc,order", list(_generated_specs(seed=7)),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_generated_spec_parses_and_enumerates_to_its_order(label, doc, order):
    group = enumerate_group(parse_spec(doc))
    assert group.order == order, label


def _seeded(op):
    return "@random-basis" in op.label or op.kind in ("distance", "descend")


def test_inputs_repeat_at_a_fixed_seed_and_change_with_it():
    def inputs_of(seed):
        ops = workloads.finite_ops(seed) + workloads.oracle_ops(seed)
        return ops, [json.dumps(op.data, default=np.ndarray.tolist) for op in ops]

    ops, first = inputs_of(3)
    _, again = inputs_of(3)
    _, other = inputs_of(4)
    assert first == again
    for op, a, b in zip(ops, first, other):
        assert (a != b) == _seeded(op), op.label
    rotations = [op.data for op in ops if op.kind == "descend"]
    for q in rotations:
        assert np.allclose(q.T @ q, np.eye(3)) and np.linalg.det(q) > 0.0


def test_hopf_closed_form_matches_a_dense_circle_search():
    rng = np.random.default_rng(11)
    thetas = np.linspace(0.0, 2.0 * math.pi, 200001)
    c, s = np.cos(thetas), np.sin(thetas)
    for _ in range(3):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        gy = np.stack([c * y[0] - s * y[1], s * y[0] + c * y[1],
                       c * y[2] - s * y[3], s * y[2] + c * y[3]], axis=1)
        brute = np.linalg.norm(x[None, :] - gy, axis=1).min()
        assert abs(brute - ref.CLOSED_FORM_DISTANCE["hopf-u1-r4"](x, y)) < 1e-8


def _small_ops(seed):
    """One operation of each kind, built from the workloads' own helpers."""
    rng = np.random.default_rng([seed, 1])
    conjugated = inputs.finite_doc(parse_spec(fixture_document("c3xd4-r4")).generators, rng)
    ops = [workloads.analyze_op(n, fixture_document(n), ref.FIXTURES[n], seed)
           for n in ("c5", "q8")]
    ops += [
        workloads.analyze_op("c3xd4-r4@random-basis", conjugated, ref.FIXTURES["c3xd4-r4"], seed),
        workloads.analyze_op("B4", inputs.signed_permutation_doc(4, rng),
                             ref.signed_permutation_expected(), seed),
        workloads.analyze_op("C24", inputs.cyclic_weight_doc(24, workloads.CYCLIC_WEIGHTS, rng),
                             ref.cyclic_weight_expected(24, workloads.CYCLIC_WEIGHTS), seed),
        workloads.analyze_op("catalog:hopf-u1-r4", "catalog:hopf-u1-r4",
                             ref.CATALOG["hopf-u1-r4"], seed),
    ]
    for a in workloads.CATALOG_IDS:
        dim = get_action(a).dimension
        ops.append(workloads.distance_op(a, *inputs.point_pairs(rng, dim, 1)[0], 0))
    ops.append(workloads.descend_op(inputs.random_rotation(rng, 3), seed, 0))
    return ops


def test_traced_pass_matches_untraced_and_self_times_add_up():
    ops = _small_ops(seed=2)
    untraced = run.run_pass(ops)
    tracer = tracing.Tracer()
    with tracer.active():
        traced = run.run_pass(ops, tracer)
    assert untraced.failed == [] and traced.failed == []
    assert traced.outputs == untraced.outputs

    # Every wrapped function is restored.
    for owner, attr, _, _ in tracing.WRAPPED:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")

    own = tracer.self_times()
    assert min(own) >= 0.0
    durations = tracer.durations()
    roots = [i for i, name in enumerate(tracer.name) if tracer.names[name] == tracing.OP]
    assert len(roots) == len(ops)
    for i in roots:
        in_op = [own[j] for j in range(len(tracer)) if tracer.op[j] == tracer.op[i]]
        assert math.isclose(sum(in_op), durations[i], rel_tol=1e-9, abs_tol=1e-9)

    metrics = run.layer_metrics(tracer, traced, ops, tracing.span_cost())
    assert metrics["repr_model.elements"]["value"] == 5 + 8 + 24 + 384 + 24
    assert metrics["catalog.element_calls"]["value"] > 0
    assert metrics["orbit_geometry.distance_calls"]["value"] == 3 + 2 * workloads.DESCEND_PAIRS
    assert 0.0 < metrics["trace.overhead_s"]["value"] < traced.wall

    # The run reports exactly the metrics BENCHMARK.json declares.
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, reported in (("per_layer", metrics),
                              ("end_to_end", run.end_to_end([untraced], [1.0], len(ops)))):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: m["unit"] for name, m in reported.items()}


@pytest.mark.xfail(reason="fixed-subspace and commutant rank tolerances scale with a "
                          "numerically zero matrix in a random basis", strict=True)
@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name", workloads.BASIS_DEFECT_FIXTURES)
def test_basis_defect_fixtures_in_a_random_basis(name, seed):
    gens = parse_spec(fixture_document(name)).generators
    doc = inputs.finite_doc(gens, np.random.default_rng([seed, 1]))
    report = quotient_isometry_group(doc, seed=seed).report
    assert ref.report_mismatches(report, ref.FIXTURES[name]) == []
