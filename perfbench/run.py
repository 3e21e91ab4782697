#!/usr/bin/env python3
"""hartree benchmark: closed-loop passes of CLI jobs, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 35 --trace 0

A run measures set-up (fresh interpreters importing the CLI), computes
reference energies, then runs one cold pass and warm passes within
``--seconds``, checking every job's output, with a fixed reference loop
between the jobs (``reference.py``). BLAS runs one thread. With
``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the traced ones. It prints every metric by name
and unit, with the machine and library versions, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS and inherited by the set-up
# interpreters. On a few shared cores a second BLAS thread spins while a
# neighbour holds the other core, so its timings measure the host's scheduler.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_ENV})

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import hartree.io_cli.cli"
REQUIRED = ("src/hartree/io_cli/cli.py", "tools/gen_fixtures.py")

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload, job_argv  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "pass_rel": "ref_loops",
    "cpu_rel": "ref_loops",
    "peak_rss_mb": "MiB",
}
# End-to-end figures whose run-to-run spread on shared CPUs exceeds the
# largest allowed bound; they are reported with the per-layer metrics.
UNBOUNDED = {
    "pass_s": "s",
    "cpu_s_per_pass": "s",
    "reference_loop_s": "s",
    "cold_pass_s": "s",
    "headline_job_s": "s",
}


@dataclass
class JobRun:
    job: str
    argv: list[str]
    seconds: float
    cpu_s: float
    problems: list[str]
    # The reference loop run after the job: loops, wall and CPU seconds.
    ref_loops: int = 0
    ref_s: float = 0.0
    ref_cpu_s: float = 0.0


class Runner:
    """Runs passes of one workload through the in-process CLI."""

    def __init__(self, workload: Workload, seed: int,
                 refs: checks.References, cli_module, out_dir: Path):
        self.workload, self.seed, self.refs = workload, seed, refs
        self.cli = cli_module
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, pass_index: int, tracer=None) -> list[JobRun]:
        runs = []
        for position, job in enumerate(self.workload.jobs):
            argv = job_argv(job, self.seed, pass_index, position)
            out = self.out_dir / f"{job.name}{job.suffix}"
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.mark(pass_index, job.name)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            code = self.cli.main(argv + ["--out", str(out)])
            wall1, cpu1 = time.perf_counter(), time.process_time()
            loops, ref_s, ref_cpu_s = reference.run_for(
                reference.SHARE * (wall1 - wall0))
            runs.append(JobRun(job.name, argv, wall1 - wall0, cpu1 - cpu0,
                               self._check(job, code, out),
                               loops, ref_s, ref_cpu_s))
        return runs

    def _check(self, job, code: int, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            return job.check(out.read_text(), self.refs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as error:
            return [f"unreadable output: {error!r}"]


def pass_seconds(runs: list[JobRun]) -> float:
    return sum(run.seconds for run in runs)


def typical_pass(passes: list[list[JobRun]], field: str = "seconds") -> float:
    """Sum over the jobs of each job's median over the passes."""
    return sum(statistics.median(getattr(p[position], field) for p in passes)
               for position in range(len(passes[0])))


def loop_seconds(passes: list[list[JobRun]], field: str = "ref_s") -> float:
    """Mean time of one reference loop run between these passes' jobs."""
    runs = [r for p in passes for r in p]
    return sum(getattr(r, field) for r in runs) / sum(r.ref_loops
                                                      for r in runs)


def relative(passes: list[list[JobRun]], cpu: bool = False) -> float:
    """A pass's wall (or CPU) time in reference loops timed alongside it."""
    if cpu:
        return typical_pass(passes, "cpu_s") / loop_seconds(passes,
                                                            "ref_cpu_s")
    return typical_pass(passes) / loop_seconds(passes)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------ environment


def layout_problem(root: Path) -> str | None:
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        return f"not a hartree checkout: {', '.join(missing)} missing"
    return None


def measure_setup(root: Path) -> list[float]:
    """Wall time of fresh interpreters importing the CLI, after one warm-up
    that also leaves compiled bytecode behind."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(command, cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        if k:
            samples.append(time.perf_counter() - start)
    return samples


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is one."""
    base = Path(np.__file__).resolve().parent
    for library in sorted(glob.glob(str(base.parent / "numpy.libs" /
                                        "*openblas*"))):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_sha": git_sha(root)}


def import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("hartree.io_cli.cli")
    source = Path(sys.modules["hartree"].__file__).resolve()
    if (root / "src") not in source.parents:
        raise ImportError(f"hartree was imported from {source}, "
                          f"not from {root / 'src'}")
    return cli


# ------------------------------------------------------------------- run


def end_to_end(setup, warm) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "pass_rel": relative(warm),
        "cpu_rel": relative(warm, cpu=True),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unbounded(cold, warm, headline: str) -> dict[str, float]:
    return {
        "pass_s": typical_pass(warm),
        "cpu_s_per_pass": typical_pass(warm, "cpu_s"),
        "reference_loop_s": loop_seconds(warm),
        "cold_pass_s": pass_seconds(cold),
        "headline_job_s": statistics.median(
            r.seconds for p in warm for r in p if r.job == headline),
    }


def per_layer(tracer: tracing.Tracer, warm, traced) -> dict[str, float]:
    metrics = {name: statistics.median(p[name] for p in tracer.passes)
               for name in tracer.passes[0]}
    metrics["trace.overhead_frac"] = relative(traced) / relative(warm) - 1.0
    return metrics


def layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(tracing.EXTRAS)
    units.update(UNBOUNDED)
    units["trace.overhead_frac"] = "ratio"
    return units


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path = ROOT, out: Path = OUT) -> dict:
    """One benchmark run; returns the full record, metrics included."""
    cli = import_cli(root)
    env = environment(root)
    setup = measure_setup(root)
    refs = checks.References.compute(root, workload.fixtures)
    runner = Runner(workload, seed, refs, cli, out / workload.name)
    tracer = tracing.Tracer() if trace else None
    warm, traced = [], []
    pass_index = 1
    # The window holds the cold pass and whole rounds (a warm pass, and a
    # traced one with --trace 1). It ends at the round boundary nearest to
    # --seconds: a round is started when it would likely end less than half
    # a round after that. The first round always runs.
    start = time.perf_counter()
    cold = runner.run_pass(0)
    while True:
        round_start = time.perf_counter()
        warm.append(runner.run_pass(pass_index))
        pass_index += 1
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(pass_index, tracer))
            finally:
                tracer.uninstall()
            tracer.end_pass()
            pass_index += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            break
    runs = [r for p in [cold, *warm, *traced] for r in p]
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "setup_samples_s": setup,
        "passes": {"cold": 1, "warm": len(warm), "traced": len(traced)},
        "pass_s_quartiles": quartiles([pass_seconds(p) for p in warm]),
        "attempted": len(runs),
        "failures": [{"job": r.job, "argv": r.argv, "problems": r.problems}
                     for r in runs if r.problems],
        "jobs": [[{"job": r.job, "seconds": r.seconds, "cpu_s": r.cpu_s,
                   "ref_loops": r.ref_loops, "ref_s": r.ref_s,
                   "ref_cpu_s": r.ref_cpu_s}
                  for r in p] for p in [cold, *warm, *traced]],
        "end_to_end": end_to_end(setup, warm),
        "unbounded": unbounded(cold, warm, workload.headline.name),
    }
    record["failed"] = len(record["failures"])
    record["failed_frac"] = record["failed"] / record["attempted"]
    if tracer is not None:
        record["per_layer"] = {**per_layer(tracer, warm, traced),
                               **record["unbounded"]}
        tracer.save(out / f"trace-{workload.name}.npz")
    return record


def report(record: dict) -> list[str]:
    env = record["environment"]
    q1, median, q3 = record["pass_s_quartiles"]
    lines = [
        f"hartree benchmark: workload={record['workload']} "
        f"seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"passes: cold=1 warm={record['passes']['warm']} "
        f"traced={record['passes']['traced']}; closed loop, one client",
        f"warm pass wall time (s): median={median:.4f} q1={q1:.4f} "
        f"q3={q3:.4f} n={record['passes']['warm']}",
        f"jobs: attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed_frac']:.4f} ratio",
    ]
    for failure in record["failures"]:
        lines.append(f"FAILED {failure['job']} {' '.join(failure['argv'])}: "
                     + "; ".join(failure["problems"]))
    lines.append("end-to-end metrics"
                 + (" (untraced passes; peak RSS includes held spans)"
                    if record["trace"] else ""))
    for name, value in record["end_to_end"].items():
        lines.append(f"  {name:<44} {value:>14.6f} {END_TO_END[name]}")
    lines.append("end-to-end figures without a bound (per-layer metrics "
                 "in BENCHMARK.json)")
    for name, value in record["unbounded"].items():
        lines.append(f"  {name:<44} {value:>14.6f} {UNBOUNDED[name]}")
    if "per_layer" in record:
        units = layer_units()
        lines.append("per-layer metrics (median over traced passes; "
                     "simulator.error_free_frac is computed, not measured)")
        for name, value in record["per_layer"].items():
            lines.append(f"  {name:<44} {value:>14.6f} {units[name]}")
    return lines


def summary(record: dict) -> dict:
    if record["trace"]:
        units, values = layer_units(), record["per_layer"]
    else:
        units, values = END_TO_END, record["end_to_end"]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    problem = layout_problem(ROOT)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(report(record)))
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
