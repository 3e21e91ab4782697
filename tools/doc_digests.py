"""Print one SHA-256 digest per CLI document, to check two builds byte for byte.

Runs, in-process through ``hartree.io_cli.cli.main``:

  * every job of ``perfbench/workloads.py`` at each seed in SEEDS (a seeded
    job gets the ``--seed`` the benchmark's first pass would give it),
  * each ``hartree ...`` line of the README's command block, once,
  * EXTRA, a short list for paths those two miss, at each seed in SEEDS.

Each output line is ``seed name exit sha256``; ``-`` stands for no seed or
no document. Every JSON document (all but ``curve``'s CSV) must also parse
as strict JSON, without ``NaN`` or ``Infinity``; the jobs whose documents
do not are named on stderr, and the script then exits 1. Every document is
written to one fixed path, because a document echoes its ``--out``.
``hartree`` is imported from PYTHONPATH, so comparing two source trees is

    PYTHONPATH=<parent>/src python tools/doc_digests.py > a
    PYTHONPATH=src python tools/doc_digests.py > b
    diff a b
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the benchmark runs, so dense eigensolves repeat bits.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, job_argv  # noqa: E402

from hartree.io_cli.cli import main as cli_main  # noqa: E402

SEEDS = (3, 11, 29)
OUT = Path(tempfile.gettempdir()) / "hartree-doc-digests.out"

H2 = ("--fixture", "h2_sto3g_0.7414")
EXTRA = (
    ("exact-h2-bktree", ("exact", *H2, "--encoding", "bktree")),
    ("exact-lih-reduce", ("exact", "--fixture", "lih_sto3g_1.45",
                          "--reduce")),
    ("exact-h2-631g-reduce", ("exact", "--fixture", "h2_631g_0.7414",
                              "--reduce", "--taper", "--encoding", "parity")),
    ("exact-lih-jw", ("exact", "--fixture", "lih_sto3g_1.45", "--k", "4")),
    ("exact-lih-jw-k6", ("exact", "--fixture", "lih_sto3g_1.45", "--encoding",
                         "jw", "--k", "6")),
    # LiH under the two Bravyi-Kitaev maps; the jobs above cover JW and
    # parity only.
    ("exact-lih-bk", ("exact", "--fixture", "lih_sto3g_1.45", "--encoding",
                      "bk", "--k", "2")),
    ("exact-lih-bktree", ("exact", "--fixture", "lih_sto3g_1.45",
                          "--encoding", "bktree", "--k", "2")),
    ("qpe-h2-trotter", ("qpe", *H2, "--encoding", "parity", "--taper",
                        "--ancillas", "6", "--trotter-steps", "3")),
    ("qpe-h2-16-ancillas", ("qpe", *H2, "--encoding", "parity", "--taper",
                            "--ancillas", "16")),
    ("mitigate-postselect-p05", ("mitigate", *H2, "--technique",
                                 "postselect", "--noise-p1", "0.05",
                                 "--noise-p2", "0.05", "--samples", "300")),
    ("mitigate-pec-p1-p2", ("mitigate", *H2, "--technique", "pec",
                            "--ansatz", "hardware-efficient", "--noise-p1",
                            "0.02", "--noise-p2", "0.03", "--samples",
                            "1000")),
    ("mitigate-linear", ("mitigate", *H2, "--technique", "linear",
                         "--trajectories", "2000")),
    ("vqe-h2-gradient", ("vqe", *H2, "--optimizer", "gradient-descent",
                         "--max-evals", "200")),
    ("encode-h2-ccpvdz", ("encode", "--fixture", "h2_ccpvdz_0.75")),
    ("encode-h2-ccpvdz-reduce", ("encode", "--fixture", "h2_ccpvdz_0.75",
                                 "--reduce")),
    ("vqe-h2-noisy-shots", ("vqe", *H2, "--noise-p1", "1e-3", "--noise-p2",
                            "1e-3", "--shots", "1000", "--max-evals", "4")),
    ("vqe-h2-ldca-gradient", ("vqe", *H2, "--ansatz", "ldca", "--optimizer",
                              "gradient-descent", "--max-evals", "100")),
    ("vqe-h2-hv-gradient", ("vqe", *H2, "--ansatz",
                            "hamiltonian-variational", "--layers", "2",
                            "--optimizer", "gradient-descent",
                            "--max-evals", "100")),
    ("curve-fci-vqe", ("curve", "--method", "fci", "--method", "vqe")),
    ("vqe-h2-uccsd-2-steps", ("vqe", *H2, "--layers", "2")),
    ("vqe-h2-lbfgs", ("vqe", *H2, "--optimizer", "l-bfgs")),
    ("vqe-h2-631g-shots", ("vqe", "--fixture", "h2_631g_0.7414", "--shots",
                           "10000")),
    # 12-qubit LiH: term order beyond qubit 9 (X10 sorts before X2) in the
    # per-term H psi above TABLE_BYTES and in the UCCSD gate order.
    ("spectrum-lih-jw", ("spectrum", "--fixture", "lih_sto3g_1.45", "--k",
                         "2")),
    ("vqe-lih-jw-lbfgs", ("vqe", "--fixture", "lih_sto3g_1.45", "--optimizer",
                          "l-bfgs", "--max-evals", "3")),
)


def readme_commands() -> list[list[str]]:
    """The argv of each ``hartree`` line in README's ``sh`` blocks, joined
    across backslash continuations and without its own ``--out``."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    commands, in_block = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = line == "```sh"
            continue
        words = shlex.split(line) if in_block else []
        if words[:1] == ["hartree"]:
            if "--out" in words:
                at = words.index("--out")
                del words[at:at + 2]
            commands.append(words[1:])
    return commands


def run_command(argv: list[str]) -> tuple[int, bytes | None]:
    """Exit code of one command and the document it wrote, if any."""
    OUT.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv + ["--out", str(OUT)])
    return code, OUT.read_bytes() if OUT.exists() else None


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(document: bytes) -> bool:
    """Whether the document parses as JSON (RFC 8259): no NaN, no Infinity."""
    try:
        json.loads(document, parse_constant=_refuse_constant)
    except ValueError:
        return False
    return True


def main() -> int:
    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS.values():
            for position, job in enumerate(workload.jobs):
                runs.append((seed, job.name,
                             job_argv(job, seed, 0, position)))
        for name, argv in EXTRA:
            runs.append((seed, name, [*argv, "--seed", str(seed)]))
    for index, argv in enumerate(readme_commands()):
        runs.append(("-", f"readme-{index}-{argv[0]}", argv))
    loose = []
    for seed, name, argv in runs:
        code, document = run_command(argv)
        sha = "-" if document is None else hashlib.sha256(document).hexdigest()
        print(seed, name, code, sha, flush=True)
        if document is not None and argv[0] != "curve" \
                and not strict_json(document):
            loose.append(f"{seed} {name}")
    OUT.unlink(missing_ok=True)
    for job in loose:
        print(f"not strict JSON: {job}", file=sys.stderr)
    return 1 if loose else 0


if __name__ == "__main__":
    sys.exit(main())
