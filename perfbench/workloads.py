"""The benchmark's workloads: fixed lists of README-style `hartree` commands.

Each workload is a closed loop with one client. A pass runs its jobs one
after another, in-process, through ``hartree.io_cli.cli.main``; each job
starts only when the previous one has returned. Jobs marked ``seeded`` get
``--seed S``, where S is derived from the workload seed, the pass index and
the job's position, so every run with one workload seed replays the same
sequence of job seeds. The program only ever sees those generated seeds.

Why each workload exists, and what was measured before leaving jobs out, is
recorded in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

H2 = "h2_sto3g_0.7414"
H2_631G = "h2_631g_0.7414"
LIH = "lih_sto3g_1.45"

LIH_TAPERED = ("--fixture", LIH, "--reduce", "--taper", "--encoding", "parity")


@dataclass(frozen=True)
class Job:
    """One CLI command, the check of its output and whether it is seeded."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, checks.References], list[str]]
    seeded: bool = False
    headline: bool = False

    @property
    def suffix(self) -> str:
        return ".csv" if self.argv[0] == "curve" else ".json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixtures: tuple[str, ...]
    jobs: tuple[Job, ...]

    @property
    def headline(self) -> Job:
        return next(job for job in self.jobs if job.headline)


def job_seed(workload_seed: int, pass_index: int, position: int) -> int:
    """The --seed a job receives; a pure function of its three arguments."""
    state = np.random.SeedSequence([workload_seed, pass_index, position])
    return int(state.generate_state(1)[0] >> 1)


def job_argv(job: Job, workload_seed: int, pass_index: int,
             position: int) -> list[str]:
    argv = list(job.argv)
    if job.seeded:
        argv += ["--seed", str(job_seed(workload_seed, pass_index, position))]
    return argv


def _mitigate(technique: str, *extra: str) -> tuple[str, ...]:
    return ("mitigate", "--fixture", H2, "--technique", technique, *extra)


EXACT = Workload(
    name="exact",
    why="exact solves and problem reduction: encoding, reduction and the "
        "dense oracle do the work, the simulator is nearly idle",
    fixtures=(LIH, H2_631G, *checks.H2_CURVE_FIXTURES),
    jobs=(
        Job("exact-lih-parity-taper",
            ("exact", "--fixture", LIH, "--encoding", "parity", "--taper",
             "--k", "4"),
            checks.exact_ground(LIH, checks.EXACT_TOL), headline=True),
        Job("exact-lih-active", ("exact", *LIH_TAPERED),
            checks.exact_ground(LIH, checks.ACTIVE_SPACE_TOL)),
        Job("exact-h2-631g", ("exact", "--fixture", H2_631G, "--k", "4"),
            checks.exact_ground(H2_631G, checks.EXACT_TOL)),
        Job("spectrum-lih-active", ("spectrum", *LIH_TAPERED),
            checks.spectrum(LIH)),
        Job("qpe-lih-active", ("qpe", *LIH_TAPERED, "--ancillas", "8"),
            checks.qpe(LIH)),
        Job("curve-hf-fci", ("curve", "--method", "hf", "--method", "fci"),
            checks.curve),
    ),
)

VQE = Workload(
    name="vqe",
    why="noiseless variational search: many gate applications and H*psi "
        "on 4- and 8-qubit states, encoding and the oracle nearly idle",
    fixtures=(H2, LIH),
    jobs=(
        Job("vqe-h2", ("vqe", "--fixture", H2),
            checks.vqe_exact(H2, checks.EXACT_TOL), seeded=True),
        Job("vqe-h2-shots", ("vqe", "--fixture", H2, "--shots", "10000"),
            checks.vqe_sampled(H2), seeded=True),
        Job("vqe-lih-gradient",
            ("vqe", "--fixture", LIH, "--reduce", "--optimizer",
             "gradient-descent", "--max-evals", "300"),
            checks.vqe_exact(LIH, checks.ACTIVE_SPACE_TOL), seeded=True,
            headline=True),
        Job("vqe-h2-hv",
            ("vqe", "--fixture", H2, "--ansatz", "hamiltonian-variational",
             "--layers", "2"),
            checks.vqe_exact(H2, checks.EXACT_TOL), seeded=True),
    ),
)

NOISE = Workload(
    name="noise",
    why="depolarizing trajectories through all four noisy loops: the "
        "trajectory simulator and mitigation do almost all the work",
    fixtures=(H2,),
    jobs=(
        Job("mitigate-exponential",
            _mitigate("exponential", "--noise-p1", "1e-3", "--noise-p2",
                      "1e-3", "--trajectories", "2000"),
            checks.mitigated(H2, checks.EXPONENTIAL), seeded=True,
            headline=True),
        Job("mitigate-postselect",
            _mitigate("postselect", "--noise-p1", "2e-3", "--noise-p2",
                      "2e-3", "--samples", "300"),
            checks.mitigated(H2, checks.POSTSELECT), seeded=True),
        Job("mitigate-pec",
            _mitigate("pec", "--ansatz", "hardware-efficient", "--samples",
                      "1000"),
            checks.mitigated(H2, checks.PEC), seeded=True),
        # --trajectories 512 is stated on purpose: the noisy objective never
        # forwards it and always runs 512 (see README.md).
        Job("vqe-h2-noisy",
            ("vqe", "--fixture", H2, "--noise-p1", "1e-3", "--noise-p2",
             "1e-3", "--trajectories", "512", "--max-evals", "8"),
            checks.vqe_noisy(H2), seeded=True),
    ),
)

WORKLOADS = {w.name: w for w in (EXACT, VQE, NOISE)}
