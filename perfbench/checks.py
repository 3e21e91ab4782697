"""Correctness checks on job outputs, against references the program never sees.

Reference ground energies come from the FCIDUMP text of each fixture,
parsed here and diagonalised with ``tools/gen_fixtures.fci_ground``, the
determinant FCI the fixtures were validated with. Neither the parser nor the
eigensolver is the program's own, so a wrong answer from the program's
exact oracle shows up as a failed job rather than as a moving reference.

A check takes the text a job wrote and returns a list of problems; an empty
list means the job passed.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EXACT_TOL = 1e-8
ACTIVE_SPACE_TOL = 5e-4      # frozen-orbital error allowed by criterion 06
VQE_CONVERGED_TOL = 1.6e-3   # chemical accuracy for converged exact-mode VQE
VARIATIONAL_SLACK = 1e-9     # rounding allowed below a variational bound

EXPONENTIAL = "exponential"
POSTSELECT = "postselect"
PEC = "pec"

H2_CURVE_FIXTURES = tuple(f"h2_sto3g_{r:.4f}" for r in
                          (0.35, 0.50, 0.65, 0.7414, 0.75, 0.90, 1.10, 1.50))


def parse_fcidump(text: str):
    """(h, eri, core, n_up, n_down) from FCIDUMP text, 8-fold symmetric."""
    header, end, body = text.partition("&END")
    if not end:
        raise ValueError("FCIDUMP without &END")

    def field(name: str) -> int:
        return int(re.search(rf"{name}\s*=\s*(-?\d+)", header).group(1))

    norb, nelec, ms2 = field("NORB"), field("NELEC"), field("MS2")
    h = np.zeros((norb, norb))
    eri = np.zeros((norb,) * 4)
    core = 0.0
    for line in body.splitlines():
        parts = line.split()
        if not parts:
            continue
        value = float(parts[0])
        i, j, k, l = (int(p) - 1 for p in parts[1:])
        if i == j == k == l == -1:
            core = value
        elif k == l == -1:
            h[i, j] = h[j, i] = value
        else:
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    eri[a, b, c, d] = eri[c, d, a, b] = value
    return h, eri, core, (nelec + ms2) // 2, (nelec - ms2) // 2


def load_fci_ground(root: Path) -> Callable:
    """``fci_ground`` from tools/gen_fixtures.py under ``root``."""
    path = root / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module.fci_ground


@dataclass(frozen=True)
class References:
    """Ground-state energies in Hartree, keyed by fixture name."""

    ground: dict[str, float]

    @classmethod
    def compute(cls, root: Path, fixtures) -> "References":
        fci_ground = load_fci_ground(root)
        ground = {}
        for name in fixtures:
            text = (root / "src" / "hartree" / "fixtures"
                    / f"{name}.fcidump").read_text()
            h, eri, core, n_up, n_down = parse_fcidump(text)
            energy, _ = fci_ground(h, eri, core, n_up, n_down)
            ground[name] = float(energy)
        return cls(ground)


# ------------------------------------------------------------ predicates


def _near(problems, label, value, reference, tol):
    if not (math.isfinite(value) and abs(value - reference) <= tol):
        problems.append(f"{label} {value!r} is not within {tol:g} of the "
                        f"reference {reference!r}")


def _not_below(problems, label, value, reference):
    if not (math.isfinite(value) and value >= reference - VARIATIONAL_SLACK):
        problems.append(f"{label} {value!r} lies below the reference "
                        f"{reference!r}")


def _estimate(problems, label, estimate, positive_error):
    mean, error = estimate["mean"], estimate["std_error"]
    if not math.isfinite(mean):
        problems.append(f"{label} mean {mean!r} is not finite")
    if not (math.isfinite(error) and (error > 0 if positive_error
                                      else error >= 0)):
        problems.append(f"{label} std_error {error!r} is not "
                        f"{'positive' if positive_error else 'non-negative'}")


def _ascending(problems, label, values):
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"{label} are not ascending: {values}")


def _result(text: str) -> dict:
    return json.loads(text)["result"]


# ---------------------------------------------------------------- checks


def exact_ground(fixture: str, tol: float):
    def check(text, refs):
        result, problems = _result(text), []
        _near(problems, "ground", result["ground"], refs.ground[fixture], tol)
        if result["energies"][0] != result["ground"]:
            problems.append("ground is not the first reported energy")
        _ascending(problems, "energies", result["energies"])
        return problems
    return check


def spectrum(fixture: str):
    def check(text, refs):
        result, problems = _result(text), []
        reference = refs.ground[fixture]
        _near(problems, "exact[0]", result["exact"][0], reference,
              ACTIVE_SPACE_TOL)
        _near(problems, "subspace[0]", result["subspace"][0], reference,
              ACTIVE_SPACE_TOL)
        _ascending(problems, "exact energies", result["exact"])
        return problems
    return check


def qpe(fixture: str):
    def check(text, refs):
        result, problems = _result(text), []
        reference = refs.ground[fixture]
        _near(problems, "oracle_ground", result["oracle_ground"], reference,
              ACTIVE_SPACE_TOL)
        _near(problems, "modal_energy", result["modal_energy"], reference,
              result["bin_width"] + ACTIVE_SPACE_TOL)
        return problems
    return check


def curve(text, refs):
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    seen = set()
    for row in rows:
        fixture = json.loads(row["metadata"])["fixture"]
        energy = float(row["energy"])
        seen.add((row["method"], fixture))
        if row["method"] == "fci":
            _near(problems, f"fci {fixture}", energy, refs.ground[fixture],
                  EXACT_TOL)
        else:
            _not_below(problems, f"hf {fixture}", energy, refs.ground[fixture])
    expected = {(m, f) for m in ("hf", "fci") for f in H2_CURVE_FIXTURES}
    if seen != expected or len(rows) != len(expected):
        problems.append(f"curve rows {sorted(seen)} do not cover "
                        f"{sorted(expected)} once each")
    return problems


def vqe_exact(fixture: str, oracle_tol: float):
    """Exact-mode VQE: variational, and converged runs reach the reference."""
    def check(text, refs):
        result, problems = _result(text), []
        reference = refs.ground[fixture]
        _near(problems, "oracle_ground", result["oracle_ground"], reference,
              oracle_tol)
        _not_below(problems, "energy", result["energy"], reference)
        if result["converged"]:
            _near(problems, "converged energy", result["energy"], reference,
                  VQE_CONVERGED_TOL)
        return problems
    return check


def vqe_sampled(fixture: str):
    """Shot-sampled VQE: the estimate may fall below the ground energy."""
    def check(text, refs):
        result, problems = _result(text), []
        _near(problems, "oracle_ground", result["oracle_ground"],
              refs.ground[fixture], EXACT_TOL)
        if not math.isfinite(result["energy"]):
            problems.append(f"energy {result['energy']!r} is not finite")
        if result["shots_used"] <= 0:
            problems.append("no shots were used")
        return problems
    return check


def vqe_noisy(fixture: str):
    """Noisy VQE averages exact expectations of normalised trajectory states,
    so its energy cannot fall below the ground energy of the whole Fock
    space, which for the H2 fixtures is the neutral ground state."""
    def check(text, refs):
        result, problems = _result(text), []
        reference = refs.ground[fixture]
        _near(problems, "oracle_ground", result["oracle_ground"], reference,
              EXACT_TOL)
        _not_below(problems, "energy", result["energy"], reference)
        return problems
    return check


def mitigated(fixture: str, technique: str):
    """Mitigation jobs.

    ``oracle`` is an exact-mode VQE energy and ``raw`` an average of exact
    trajectory expectations, so both are variational. A standard error is
    required to be positive only where the sample is large enough that every
    draw being identical is implausible; README.md gives the measured rates.
    """
    def check(text, refs):
        result, problems = _result(text), []
        reference = refs.ground[fixture]
        if result["technique"] != technique:
            problems.append(f"technique is {result['technique']!r}")
        _not_below(problems, "oracle", result["oracle"], reference)
        _not_below(problems, "raw mean", result["raw"]["mean"], reference)
        _estimate(problems, "raw", result["raw"],
                  positive_error=technique == EXPONENTIAL)
        _estimate(problems, "mitigated", result["mitigated"],
                  positive_error=technique != POSTSELECT)
        if technique == POSTSELECT:
            retained = result["retained_fraction"]
            if not 0.0 < retained <= 1.0:
                problems.append(f"retained_fraction {retained!r} is outside "
                                "(0, 1]")
            _not_below(problems, "post-selected mean",
                       result["mitigated"]["mean"], reference)
        return problems
    return check
