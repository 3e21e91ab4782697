"""The correctness checks: independent references and bounds that hold."""

import json

import pytest

import checks
from workloads import NOISE, VQE, WORKLOADS


def test_reference_matches_the_lih_ground_energy(refs):
    assert refs.ground["lih_sto3g_1.45"] == pytest.approx(-7.8809823104621,
                                                          abs=1e-9)
    assert refs.ground["h2_sto3g_0.7414"] == pytest.approx(-1.1372701754095,
                                                           abs=1e-9)


def _shifted(runner, workload, job_name, path, delta):
    bench = runner(workload)
    bench.run_pass(0)
    job = next(j for j in bench.workload.jobs if j.name == job_name)
    document = json.loads((bench.out_dir / f"{job.name}.json").read_text())
    target = document["result"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += delta
    return job.check(json.dumps(document), bench.refs)


def test_checks_reject_a_wrong_exact_ground(runner):
    assert _shifted(runner, "exact", "exact-lih-parity-taper", ["ground"],
                    0.0) == []
    assert _shifted(runner, "exact", "exact-lih-parity-taper", ["ground"],
                    1e-6)


def test_checks_reject_an_energy_below_the_ground_state(runner):
    assert _shifted(runner, "vqe", "vqe-h2", ["energy"], -1e-6)


def test_curve_check_rejects_a_missing_row(runner, refs):
    bench = runner("exact")
    bench.run_pass(0)
    text = (bench.out_dir / "curve-hf-fci.csv").read_text()
    assert checks.curve(text, refs) == []
    assert checks.curve("\n".join(text.splitlines()[:-1]) + "\n", refs)


def _stochastic_failures(runner, workload, jobs, passes):
    bench = runner(workload.name, seed=17)
    failures = []
    for pass_index in range(passes):
        for run in bench.run_pass(pass_index):
            if run.job in jobs and run.problems:
                failures.append((pass_index, run.job, run.problems))
    return failures


@pytest.mark.parametrize("workload, jobs, passes", [
    (NOISE, {j.name for j in NOISE.jobs}, 6),
    (VQE, {"vqe-h2-shots"}, 6),
])
def test_stochastic_bounds_hold_across_many_seeds(runner, workload, jobs,
                                                  passes):
    assert _stochastic_failures(runner, workload, jobs, passes) == []


def test_postselect_bounds_hold_across_many_seeds(runner, refs):
    job = next(j for j in NOISE.jobs if j.name == "mitigate-postselect")
    bench = runner("noise")
    for seed in range(40):
        argv = [*job.argv, "--seed", str(seed)]
        out = bench.out_dir / "postselect.json"
        assert bench.cli.main(argv + ["--out", str(out)]) == 0
        assert job.check(out.read_text(), refs) == [], seed


def test_every_workload_has_one_headline_job():
    for workload in WORKLOADS.values():
        assert sum(job.headline for job in workload.jobs) == 1
