"""Benchmark a parent commit against this tree in alternating pairs.

Runs ``perfbench/run.py --trace 0`` on the parent, exported with
``git archive`` into a temporary directory (no worktree, nothing written
under ``.git``), and on this working tree, one pair per seed, alternating
which side runs first, and writes one JSON file:

    python tools/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --workload exact=10 --workload vqe=3 --workload noise=3 \\
        --seed 301 --seconds 10

``--workload name=pairs`` may repeat; pair i of a workload runs both sides
at seed ``--seed + i`` and the parent goes first in even pairs. For each
workload and side the file holds the median, quartiles and count of the
four end-to-end metrics, each job's median warm time, the operations
attempted and failed, and the number of pairs in which the change reads
lower; beside them the argv, the two commits, nproc, the BLAS threads and
the library versions the runs report, and every run's metrics. It claims
nothing: the pairs show whether a gain holds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("pass_rel", "cpu_rel", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, as perfbench reports
    them) and count."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "count": len(values)}


def job_medians(records: list[dict]) -> dict[str, float]:
    """Each job's median wall time over the warm passes of the records
    (``jobs`` holds the cold pass first, then the warm ones)."""
    times: dict[str, list[float]] = {}
    for record in records:
        warm = record["jobs"][1:1 + record["passes"]["warm"]]
        for run in (run for passes in warm for run in passes):
            times.setdefault(run["job"], []).append(run["seconds"])
    return {job: statistics.median(seconds) for job, seconds in times.items()}


def aggregate(runs: list[dict]) -> dict:
    """Per workload, from runs of ``{"workload", "pair", "seed", "side",
    "first", "summary", "record"}``: each side's spread of every metric,
    job medians and operation counts, and the pairs the change reads lower
    in (ties count for neither side)."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = sorted({run["pair"] for run in mine})
        value = {(run["pair"], run["side"]):
                 {name: run["summary"]["metrics"][name]["value"]
                  for name in METRICS} for run in mine}
        entry: dict = {"pairs": len(pairs)}
        for side in SIDES:
            ours = [run for run in mine if run["side"] == side]
            entry[side] = {
                **{name: spread([value[run["pair"], side][name]
                                 for run in ours]) for name in METRICS},
                "jobs": job_medians([run["record"] for run in ours]),
                "attempted": sum(run["summary"]["attempted"] for run in ours),
                "failed": sum(run["summary"]["failed"] for run in ours),
            }
        entry["change_lower"] = {
            name: sum(value[pair, "change"][name] < value[pair, "parent"][name]
                      for pair in pairs) for name in METRICS}
        entry["runs"] = [
            {"pair": pair,
             "seed": next(r["seed"] for r in mine if r["pair"] == pair),
             "first": next(r["first"] for r in mine if r["pair"] == pair),
             **{side: value[pair, side] for side in SIDES}}
            for pair in pairs]
        out[workload] = entry
    return out


def environment(runs: list[dict]) -> dict:
    """The machine and libraries the change side's first run reports."""
    record = next(run["record"] for run in runs if run["side"] == "change")
    return {k: v for k, v in record["environment"].items() if k != "git_sha"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of ``rev`` under ``into``, from ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float
          ) -> tuple[dict, dict]:
    """(summary, record) of one ``perfbench/run.py --trace 0`` run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".perfbench" /
                         f"record-{workload}-trace0.json").read_text())
    return summary, record


def workload_pairs(text: str) -> tuple[str, int]:
    name, _, count = text.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected name=pairs, not {text!r}")
    return name, int(count)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the commit to compare against, e.g. HEAD~1")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", type=workload_pairs, action="append",
                        required=True, help="name=pairs, repeatable")
    parser.add_argument("--seed", type=int, default=0,
                        help="the first pair's workload seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    commits = {"parent": {"rev": args.parent,
                          "sha": git("rev-parse", args.parent)},
               "change": {"sha": git("rev-parse", "HEAD"),
                          "dirty": bool(git("status", "--porcelain",
                                            "--untracked-files=no"))}}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        parent = Path(scratch)
        export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        for workload, count in args.workload:
            for pair in range(count):
                seed = args.seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    summary, record = bench(trees[side], workload, seed,
                                            args.seconds)
                    runs.append({"workload": workload, "pair": pair,
                                 "seed": seed, "side": side,
                                 "first": order[0], "summary": summary,
                                 "record": record})
                    values = summary["metrics"]
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          + " ".join(f"{name}={values[name]['value']:.4f}"
                                     for name in METRICS), flush=True)
    document = {
        "argv": [Path(sys.argv[0]).name, *(sys.argv[1:] if argv is None
                                           else argv)],
        **commits,
        "environment": environment(runs),
        "workloads": aggregate(runs),
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
