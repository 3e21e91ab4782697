"""The outside-in tracer: rebinding, span bookkeeping and repeatable counts."""

import importlib
import sys

import numpy as np
import pytest

import run
import tracer as tracing
from workloads import WORKLOADS


# Span-name prefixes of the layers each workload is heavy on.
HEAVY = {"exact": ("io_cli.", "fermion.", "encoding.", "reduction.",
                   "pauli.to_matrix", "simulator.qpe_distribution",
                   "spectra."),
         "vqe": ("pauli.apply_to_statevector", "pauli.expectation",
                 "simulator.apply_gate", "simulator.sample_expectation",
                 "vqe."),
         "noise": ("pauli.apply_to_statevector", "pauli.expectation",
                   "simulator.apply_gate", "simulator.run_noisy_trajectory",
                   "mitigation.")}


def _originals():
    return {span: getattr(importlib.import_module(module), attr)
            for span, (module, attr) in tracing.SPANS.items()}


def _hartree_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and name.split(".")[0] == "hartree"]


def test_install_rebinds_every_holder_and_uninstall_restores(cli):
    originals = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        held = {id(f) for f in originals.values()}
        for module in _hartree_modules():
            assert not [k for k, v in vars(module).items() if id(v) in held]
    finally:
        tracer.uninstall()
    assert _originals() == originals


def _traced_pass(bench, pass_index=1):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runs = bench.run_pass(pass_index, tracer)
    finally:
        tracer.uninstall()
    return tracer, runs, tracer.end_pass()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_with_one_seed_give_identical_calls(runner, workload):
    counts = []
    for _ in range(2):
        _, runs, metrics = _traced_pass(runner(workload, seed=3))
        assert all(not r.problems for r in runs), runs
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith(".self_s")})
    assert counts[0] == counts[1]
    for span in tracing.SPANS:
        if span.startswith(HEAVY[workload]):
            assert counts[0][f"{span}.calls"] > 0, span


def test_self_time_is_span_minus_children(runner, tmp_path):
    tracer, _, metrics = _traced_pass(runner("vqe", seed=1))
    names = np.frombuffer(tracer.span_name, dtype=np.uint16)
    parents = np.frombuffer(tracer.span_parent, dtype=np.int64)
    duration = (np.frombuffer(tracer.span_end, dtype=np.float64)
                - np.frombuffer(tracer.span_start, dtype=np.float64))
    assert (duration >= 0).all()
    child = np.zeros_like(duration)
    np.add.at(child, parents[parents >= 0], duration[parents >= 0])
    for k, name in enumerate(tracer.names):
        mine = names == k
        assert metrics[f"{name}.calls"] == mine.sum()
        assert metrics[f"{name}.self_s"] == pytest.approx(
            (duration - child)[mine].sum(), abs=1e-6)
    roots = parents == -1
    assert set(names[roots]) == {tracer.names.index("io_cli.main")}
    tracer.save(tmp_path / "trace.npz")
    saved = np.load(tmp_path / "trace.npz")
    assert len(saved["name"]) == len(names)
    assert list(saved["mark_job"]) == [j.name for j in WORKLOADS["vqe"].jobs]


def test_heavy_lists_cover_every_span():
    covered = {span for prefixes in HEAVY.values() for span in tracing.SPANS
               if span.startswith(prefixes)}
    assert covered == set(tracing.SPANS)


def test_traced_run_reports_every_per_layer_metric():
    record = run.run(WORKLOADS["vqe"], seed=2, seconds=0.0, trace=True,
                     out=run.OUT / "test")
    assert record["failed"] == 0
    assert record["passes"] == {"cold": 1, "warm": 1, "traced": 1}
    assert set(record["per_layer"]) == set(run.layer_units())
    assert run.summary(record)["metrics"].keys() == run.layer_units().keys()
