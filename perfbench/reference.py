"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few CPUs of a host with other tenants, and their load
slows everything that runs, CPU time included, by up to 2x in spells of
seconds to minutes. The runner runs this loop between jobs, for a tenth of
each job's time, so that it samples the host in the same stretches as the
jobs; a pass's time divided by the loop's mean time is then a cost that
those spells move far less than seconds do.

The loop does the kinds of work the program does, and none of the program's
code: small-state gate applications with ``tensordot`` (as the simulator),
a small symmetric ``eigh`` (as the oracle) and a Python dictionary loop
(interpreter overhead). Its inputs are fixed, so its work never changes.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.1
QUBITS = 8

_rng = np.random.default_rng(12345)
_STATE = (_rng.standard_normal(2 ** QUBITS)
          + 1j * _rng.standard_normal(2 ** QUBITS)).reshape([2] * QUBITS)
_GATES = [np.linalg.qr(_rng.standard_normal((2, 2))
                       + 1j * _rng.standard_normal((2, 2)))[0]
          for _ in range(QUBITS)]
_MATRIX = _rng.standard_normal((48, 48))
_MATRIX = _MATRIX + _MATRIX.T


def loop() -> float:
    """One pass of the reference work (about 6 ms on an idle 2.1 GHz core)."""
    psi = _STATE
    norm = 0.0
    for _ in range(30):
        for qubit, gate in enumerate(_GATES):
            psi = np.moveaxis(np.tensordot(gate, psi, axes=([1], [qubit])),
                              0, qubit)
        norm += float(np.vdot(psi, psi).real)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return norm + float(np.linalg.eigvalsh(_MATRIX)[0]) + len(counts)


def run_for(seconds: float) -> tuple[int, float, float]:
    """Run whole loops until ``seconds`` have gone by (at least one loop).

    Returns the loop count and the wall and CPU seconds they took."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    loops = 0
    while True:
        loop()
        loops += 1
        wall = time.perf_counter() - wall0
        if wall >= seconds:
            return loops, wall, time.process_time() - cpu0
