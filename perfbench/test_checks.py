"""Tests of the benchmark's own checks: each must pass a true output and
reject one with a planted error.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from corona_lab import cli, operators  # noqa: E402


def brute_diameter(phases):
    z = np.exp(1j * np.asarray(phases))
    return float(np.abs(z[:, None] - z[None, :]).max())


def test_circle_diameters_match_brute_force():
    rng = np.random.default_rng(0)
    phases = rng.uniform(-10, 10, 500)
    starts = rng.integers(0, 450, 200)
    ends = starts + rng.integers(0, 50, 200)
    got = checks.circle_diameters(phases, starts, ends)
    want = [brute_diameter(phases[s:e]) if e - s >= 2 else 0.0 for s, e in zip(starts, ends)]
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert checks.circle_diameters([0.0, np.pi], [0], [2])[0] >= 2.0 - 1e-15


@pytest.fixture(scope="module")
def tree_doc(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tree") / "tree.json")
    assert cli.main(["tree", "--depth", "2", "--horizon", "1200", "--z-variant", "--out", out]) == 0
    with open(out) as fh:
        return json.load(fh)


TREE_ARGS = {"depth": 2, "eps": 0.1, "j0": 10, "z_variant": True}


def _tree_fails(doc):
    return checks.check_tree(doc, TREE_ARGS, workloads.TREE_MIN_M, np.random.default_rng(0), 10**6)


def test_tree_check_passes_true_output(tree_doc):
    assert _tree_fails(tree_doc) == []


def test_tree_check_rejects_shifted_phase(tree_doc):
    doc = json.loads(json.dumps(tree_doc))
    doc["nodes"]["11"]["phases"][1000] += np.pi
    assert _tree_fails(doc)


def test_tree_check_rejects_flat_divergence_block(tree_doc):
    doc = json.loads(json.dumps(tree_doc))
    doc["nodes"]["1"]["phases"] = list(doc["nodes"][""]["phases"])
    assert any("divergence" in msg for _, msg in _tree_fails(doc))


def test_tree_check_rejects_missing_node(tree_doc):
    doc = json.loads(json.dumps(tree_doc))
    del doc["nodes"]["10"]
    assert _tree_fails(doc)


def test_tree_check_rejects_dropped_certificates(tree_doc):
    for kind in ("divergence", "coherence", "jump_bound"):
        doc = json.loads(json.dumps(tree_doc))
        doc["certificates"] = [c for c in doc["certificates"] if c["kind"] != kind]
        doc["z_variant"] = kind != "jump_bound"
        assert _tree_fails(doc), kind


def _stratified(dim=40, seed=3):
    rng = np.random.default_rng(seed)
    sizes = workloads._mixed_blocks(rng, dim)
    m = workloads._unit_matrix(rng, dim)
    w = operators.stratify(m, operators.BlockStructure(sizes))
    return m, sizes, w


def _stratify_fails(m, sizes, w, **changes):
    parts = dict(X_elements=w.X.elements, m_e=w.m_e, m_o=w.m_o, a=w.a, tail_bounds=w.tail_bounds)
    parts.update(changes)
    return checks.check_stratify(m, sizes, **parts)


def test_stratify_check_passes_true_output():
    assert _stratify_fails(*_stratified()) == []


def test_stratify_check_rejects_lowered_tail_bound():
    m, sizes, w = _stratified()
    bounds = list(w.tail_bounds)
    bounds[0] -= 1e-9
    assert [k for k, _ in _stratify_fails(m, sizes, w, tail_bounds=bounds)] == [checks.BELOW_NORM]


def test_stratify_check_rejects_forbidden_corner():
    m, sizes, w = _stratified()
    m_e, a = w.m_e.copy(), w.a.copy()
    m_e[-1, 0], a[-1, 0] = a[-1, 0], 0.0
    assert _stratify_fails(m, sizes, w, m_e=m_e, a=a)


def test_stratify_check_rejects_wrong_sum():
    m, sizes, w = _stratified()
    a = w.a.copy()
    a[-1, 0] += 1e-15
    assert _stratify_fails(m, sizes, w, a=a)


def test_stratify_check_rejects_non_minimal_selection():
    m, sizes, w = _stratified()
    X = w.X.elements.copy()
    X[1] += 1
    if X[1] >= X[2]:
        pytest.skip("no room to move the second point")
    assert _stratify_fails(m, sizes, w, X_elements=X)


def test_stratify_fixed_iterative_input_hits_the_named_fault(tmp_path):
    k, dim = workloads.ITERATIVE_INPUTS[0]
    op = workloads._stratify_op("iter", [workloads.FIXED, k], dim, str(tmp_path), None)
    op.prepare()
    fails = op.check(op.run())
    assert fails and workloads.op_norm_lower_bound(fails, None)


def _limits_doc(tmp_path, tower):
    path, out = str(tmp_path / "tower.json"), str(tmp_path / "out.json")
    with open(path, "w") as fh:
        json.dump(tower, fh)
    assert cli.main(["limits", path, "--out", out]) == 0
    with open(out) as fh:
        return json.load(fh)


@pytest.mark.parametrize("make", [workloads.torsion_tower, workloads.free_tower])
@pytest.mark.parametrize("seed", range(6))
def test_limits_answers_known_by_construction(tmp_path, make, seed):
    tower, expected = make(np.random.default_rng(seed), 2 + seed % 2, 3 + seed % 3)
    assert checks.check_limits(_limits_doc(tmp_path, tower), expected) == []


def test_limits_check_rejects_wrong_torsion(tmp_path):
    tower, expected = workloads.torsion_tower(np.random.default_rng(1), 3, 3)
    doc = _limits_doc(tmp_path, tower)
    doc["lim"]["invariants"]["torsion"].append(7)
    assert checks.check_limits(doc, expected)


def test_paper_model_answers(tmp_path):
    out = str(tmp_path / "paper.json")
    for depth in (2, 5):
        assert cli.main(["limits", "--paper-model", "--depth", str(depth), "--out", out]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        expected = workloads.paper_model_expected(depth)
        assert checks.check_limits(doc, expected) == []
        doc["six_term"]["lim1_F"] = "Zero"
        assert checks.check_limits(doc, expected)


def test_verify_check():
    assert checks.check_verify(0, {"ok": True, "failures": []}) == []
    assert checks.check_verify(1, {"ok": False, "failures": ["tree"]})
    assert checks.check_verify(0, {"ok": False, "failures": []})


def _op(tmp_path, fn, fault=None):
    return workloads.Op(key="op", run=fn, check=lambda r: [], out=str(tmp_path / "x"), fault=fault)


def test_deadline_stops_and_counts_an_operation(tmp_path):
    w = workloads.Workload(deadline_s=0.05, round_s=1.0)
    runner = run.Runner(w)
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    runner.attempt(_op(tmp_path, lambda: time.sleep(5)))
    # a stop outside smith_normal_form is not the named fault
    runner.attempt(_op(tmp_path, lambda: time.sleep(5), fault=workloads.smith_normal_form_explosion))
    assert runner.raw_times == [0.05, 0.05]
    assert (runner.attempted, runner.failed, len(runner.wrong)) == (2, 2, 2)


def test_tracer_wraps_every_holder_and_restores():
    tracer = tracing.Tracer()
    original = operators.op_norm
    tracer.install()
    try:
        from corona_lab import weak_units

        assert weak_units.op_norm is operators.op_norm is not original
        _stratified(dim=20)
    finally:
        tracer.uninstall()
    assert operators.op_norm is original
    metrics = tracer.metrics(0.0)
    assert metrics["operators.op_norm.calls"]["value"] > 0
    assert metrics["operators.op_norm.dense_calls"]["value"] == metrics[
        "operators.op_norm.calls"]["value"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
