"""The aggregation of tools/bench_pairs.py, on canned run summaries."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def canned(workload, pair, side, pass_rel, jobs, failed=0):
    """One run as ``main`` collects it: the summary's four metrics and a
    record with a cold pass and ``len(jobs)`` warm ones of job ``a``."""
    metrics = {"pass_rel": pass_rel, "cpu_rel": pass_rel + 0.5,
               "setup_s": 0.2,
               "peak_rss_mb": 80.0 if side == "parent" else 75.0}
    return {"workload": workload, "pair": pair, "seed": 10 + pair,
            "side": side, "first": "parent" if pair % 2 == 0 else "change",
            "summary": {"correct": not failed,
                        "attempted": 4 * (len(jobs) + 1),
                        "failed": failed,
                        "metrics": {name: {"value": value, "unit": "x"}
                                    for name, value in metrics.items()}},
            "record": {"environment": {"nproc": 2, "blas_threads": 1,
                                       "numpy": "2.4.6",
                                       "git_sha": "unknown"},
                       "passes": {"cold": 1, "warm": len(jobs), "traced": 0},
                       "jobs": [[{"job": "a", "seconds": 99.0}]]
                       + [[{"job": "a", "seconds": s}] for s in jobs]}}


RUNS = [
    canned("exact", 0, "parent", 20.0, [0.030, 0.032]),
    canned("exact", 0, "change", 17.0, [0.020, 0.022]),
    canned("exact", 1, "change", 16.0, [0.021]),
    canned("exact", 1, "parent", 19.0, [0.031]),
    canned("exact", 2, "parent", 21.0, [0.033]),
    canned("exact", 2, "change", 21.0, [0.019], failed=1),
    canned("noise", 0, "parent", 8.0, [0.010]),
    canned("noise", 0, "change", 8.5, [0.011]),
]


def test_each_side_gets_its_median_quartiles_and_count():
    exact = bench_pairs.aggregate(RUNS)["exact"]
    assert exact["pairs"] == 3
    assert exact["parent"]["pass_rel"] == {"median": 20.0, "q1": 19.0,
                                           "q3": 21.0, "count": 3}
    assert exact["change"]["pass_rel"]["median"] == 17.0
    assert exact["change"]["cpu_rel"]["median"] == 17.5
    assert exact["change"]["peak_rss_mb"]["count"] == 3


def test_pairs_count_where_the_change_reads_lower_and_ties_count_for_none():
    exact = bench_pairs.aggregate(RUNS)["exact"]
    assert exact["change_lower"] == {"pass_rel": 2, "cpu_rel": 2,
                                     "setup_s": 0, "peak_rss_mb": 3}
    noise = bench_pairs.aggregate(RUNS)["noise"]
    assert noise["change_lower"]["pass_rel"] == 0


def test_job_medians_read_the_warm_passes_only():
    exact = bench_pairs.aggregate(RUNS)["exact"]
    # the 99 s cold pass is left out
    assert exact["parent"]["jobs"] == {"a": pytest.approx(0.0315)}
    assert exact["change"]["jobs"] == {"a": pytest.approx(0.0205)}


def test_operations_and_runs_are_kept_per_pair():
    exact = bench_pairs.aggregate(RUNS)["exact"]
    assert (exact["change"]["attempted"], exact["change"]["failed"]) == (28, 1)
    assert [(r["pair"], r["seed"], r["first"]) for r in exact["runs"]] == [
        (0, 10, "parent"), (1, 11, "change"), (2, 12, "parent")]
    assert exact["runs"][1]["change"]["pass_rel"] == 16.0


def test_one_run_a_side_is_its_own_spread():
    noise = bench_pairs.aggregate(RUNS)["noise"]
    assert noise["parent"]["pass_rel"] == {"median": 8.0, "q1": 8.0,
                                           "q3": 8.0, "count": 1}


def test_the_environment_drops_the_sha_the_export_cannot_know():
    assert bench_pairs.environment(RUNS) == {"nproc": 2, "blas_threads": 1,
                                             "numpy": "2.4.6"}


def test_a_workload_needs_a_positive_pair_count():
    assert bench_pairs.workload_pairs("exact=5") == ("exact", 5)
    for text in ("exact", "exact=0", "=3", "exact=x"):
        with pytest.raises(Exception, match="name=pairs"):
            bench_pairs.workload_pairs(text)
