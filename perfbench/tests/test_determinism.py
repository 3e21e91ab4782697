"""Seeding: one workload seed replays one sequence of job seeds and outputs."""

import pytest

from workloads import WORKLOADS, job_argv, job_seed


def test_job_seed_depends_only_on_workload_seed_pass_and_position():
    assert job_seed(7, 3, 1) == job_seed(7, 3, 1)
    seeds = {job_seed(s, p, j) for s in range(3) for p in range(3)
             for j in range(3)}
    assert len(seeds) == 27
    assert all(0 <= s < 2 ** 31 for s in seeds)


def test_only_seeded_jobs_receive_a_seed():
    for workload in WORKLOADS.values():
        for position, job in enumerate(workload.jobs):
            argv = job_argv(job, 5, 1, position)
            assert ("--seed" in argv) == job.seeded
            assert "--seed" not in job.argv


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_identical_argv_and_seed_give_byte_identical_documents(runner,
                                                               workload):
    bench = runner(workload, seed=11)
    outputs = []
    for _ in range(2):
        runs = bench.run_pass(1)
        assert all(not r.problems for r in runs), runs
        outputs.append({job.name: (bench.out_dir / f"{job.name}{job.suffix}")
                        .read_bytes() for job in bench.workload.jobs})
    assert outputs[0] == outputs[1]
