"""Tests of the benchmark's correctness gate and tracer.

Every planted fault must count as a failed op, not crash the run and not
pass.  The file name keeps it out of a plain ``pytest`` run of the repo; run
it by name::

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py
"""

import copy
import json
import random

import pytest

import gqlab.checks
import gqlab.exports
import gqlab.gf2
import gqlab.planes

import run
from tracer import Tracer, gqlab_modules

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload(name, tmp_path, reference=REFERENCE):
    w = run.WORKLOADS[name](reference, random.Random(0), tmp_path)
    w.load()
    return w


def one_op(w, tracer=None):
    tally = run.Tally()
    elapsed = tally.run(lambda: w.op(w.draw(), tracer))
    return tally, elapsed


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a gqlab function in every gqlab module that bound it."""
    for module in gqlab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_correct_ops_pass(tmp_path):
    for name in ("verify", "export", "cli-classify"):
        tally, elapsed = one_op(workload(name, tmp_path), None)
        assert (tally.attempted, tally.failed) == (1, 0), tally.errors
        assert elapsed > 0


def test_wrong_export_body_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setitem(gqlab.exports.EXPORTERS, ("atlas", "json"), lambda: "[]\n")
    tally, elapsed = one_op(workload("export", tmp_path))
    assert (tally.attempted, tally.failed, elapsed) == (1, 1, None)


def test_failing_check_is_a_failed_op(tmp_path, monkeypatch):
    det3 = gqlab.gf2.det3
    patch_everywhere(monkeypatch, det3, lambda m: 1 - det3(m))  # a wrong kernel fails checks
    tally, elapsed = one_op(workload("verify", tmp_path))
    assert (tally.attempted, tally.failed, elapsed) == (1, 1, None)


def test_raising_check_is_a_failed_op(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("planted fault")

    patch_everywhere(monkeypatch, gqlab.quadrangle.verify_gq_axioms, boom)
    w = workload("verify", tmp_path)
    tally = run.Tally()
    samples = run.measure(w, 0.0, tally, run.Speed())
    # whether the suite lets the exception out or reports it as a failed
    # check, the op fails and the run goes on
    assert samples == {} and (tally.attempted, tally.failed) == (1, 1)


def test_wrong_cli_exit_code_is_a_failed_op(tmp_path):
    reference = copy.deepcopy(REFERENCE)
    reference["cli"]["classify"]["00110x"]["exit"] = 0  # the CLI rightly exits 2
    w = workload("cli-classify", tmp_path, reference)
    tally = run.Tally()
    elapsed = tally.run(lambda: w.op("00110x", None))
    assert (tally.attempted, tally.failed, elapsed) == (1, 1, None)


def test_cache_discovery_clears_every_builder(tmp_path):
    w = workload("export", tmp_path)
    assert w.caches
    gqlab.planes.family_planes()
    w.prepare_op()
    assert all(builder.cache_info().currsize == 0 for builder in w.caches)


def test_traced_op_partitions_its_wall_time_and_restores_gqlab(tmp_path):
    rref, registry = gqlab.gf2.rref, gqlab.checks.REGISTRY
    w = workload("export", tmp_path)
    tracer = Tracer()
    tally, elapsed = one_op(w, tracer)
    assert tally.failed == 0, tally.errors
    assert gqlab.gf2.rref is rref and gqlab.planes.rref is rref
    assert gqlab.checks.REGISTRY is registry
    (root,) = [s for s in tracer.spans if s[1] == "op"]
    wall = root[3] - root[2]
    assert sum(s for _, s in tracer.stats.values()) == pytest.approx(wall, rel=1e-9)
    assert {s[1] for s in tracer.spans if s[4] == root[0]} >= {f"exports.{k}" for k in REFERENCE["exports"]}
    names = [m["name"] for m in SPEC["per_layer"]]
    op = {"wall_s": elapsed, "bytes": w.op_bytes, "stats": tracer.stats, "spans": tracer.spans}
    metrics = run.layer_metrics(names, w, {None: {"untraced": [elapsed], "traced": [op]}}, tmp_path)
    assert set(metrics) == set(names)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layers + metrics["trace.untraced_ms"] == pytest.approx(metrics["trace.op_ms"])
    assert metrics["exports.quadric-json.self_ms"] > 0 and metrics["pg.lines_in.calls"] > 0


def test_op_time_weighs_every_input_alike():
    # a cheap input drawn often must not outweigh a costly one drawn once
    assert run.op_seconds({"cheap": [1.0, 1.0, 1.0, 9.0], "costly": [5.0]}) == 3.0
