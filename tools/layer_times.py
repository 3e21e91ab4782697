"""Print best-of-N wall times of the layer kernels on shipped fixtures.

Each kernel runs once to warm its caches, then ``--repeats`` times; the
table gives the best and the median run in milliseconds. The kernels:

  * ``encode_operator`` of the molecular Hamiltonian under parity,
  * ``PauliSum.from_masks``, the one merge, on the raw kept products of
    the LiH parity encode and on the first of them alone,
  * ``fci_sector_ground``, the sector matrix build and its one-pair solve,
  * ``exact_eigensolve``, the lowest level of the JW Hamiltonian,
  * H psi (``apply_to_statevector``) on a seeded random state,
  * one ``analytic_gradient`` and one optimizer evaluation
    (``estimate_energy``) of the JW UCCSD ansatz at seeded angles,
  * one noisy trajectory layer: a 512-trajectory ``noisy_expectation`` of
    the JW UCCSD circuit at p1 = p2 = 1e-3, each run from one fixed seed.

``hartree`` is imported from PYTHONPATH, so timing two source trees is

    PYTHONPATH=<parent>/src python tools/layer_times.py > a
    PYTHONPATH=src python tools/layer_times.py > b

Times move with the host's load: compare runs made side by side.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

# One BLAS thread, as the benchmark runs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from hartree.encoding import (  # noqa: E402
    JW,
    PARITY,
    EncodingScheme,
    _image_arrays,
    _products,
    encode_operator,
)
from hartree.fermion import (  # noqa: E402
    build_molecular_hamiltonian,
    hf_occupation,
    uccsd_generators,
)
from hartree.io_cli import load_fixture  # noqa: E402
from hartree.io_cli.oracle import exact_eigensolve  # noqa: E402
from hartree.mitigation import noisy_expectation  # noqa: E402
from hartree.pauli import PauliSum, apply_to_statevector  # noqa: E402
from hartree.reduction import fci_sector_ground  # noqa: E402
from hartree.simulator import NoiseModel, make_rng  # noqa: E402
from hartree.vqe import analytic_gradient, build_uccsd, estimate_energy  # noqa: E402

LIH = "lih_sto3g_1.45"
CCPVDZ = "h2_ccpvdz_0.75"


def kernels():
    """(name, fixture, callable) of every kernel, its inputs built once."""
    out = []
    for fixture in (LIH, CCPVDZ, "h2_631g_0.7414"):
        ints = load_fixture(fixture)
        h = build_molecular_hamiltonian(ints)
        scheme = EncodingScheme(PARITY, ints.m)
        out.append(("encode_operator parity", fixture,
                    lambda h=h, scheme=scheme: encode_operator(h, scheme)))
    ints = load_fixture(LIH)
    _, x, z, c = _products([build_molecular_hamiltonian(ints)],
                           _image_arrays(PARITY, ints.m))
    for name, rows in ((f"from_masks {len(c)} products", slice(None)),
                       ("from_masks one term", slice(1))):
        out.append((name, LIH, lambda rows=rows: PauliSum.from_masks(
            x[rows], z[rows], c[rows], n_qubits=ints.m)))
    for fixture in (LIH, CCPVDZ):
        ints = load_fixture(fixture)
        out.append(("fci_sector_ground", fixture,
                    lambda ints=ints: fci_sector_ground(ints)))
    ints, h, ansatz = uccsd_jw(LIH)
    out.append(("exact_eigensolve jw k=1", LIH,
                lambda: exact_eigensolve(h, k=1, n_qubits=ints.m)))
    rng = np.random.default_rng(7)
    psi = rng.normal(size=1 << ints.m) + 1j * rng.normal(size=1 << ints.m)
    psi /= np.linalg.norm(psi)
    out.append(("H psi jw", LIH, lambda: apply_to_statevector(h, psi)))
    theta = rng.uniform(-0.1, 0.1, size=ansatz.n_params)
    out.append(("analytic_gradient uccsd jw", LIH,
                lambda: analytic_gradient(ansatz, theta, h)))
    out.append(("optimizer evaluation uccsd jw", LIH,
                lambda: estimate_energy(ansatz, theta, h)))
    return out + noisy_kernels(rng)


def uccsd_jw(fixture: str):
    """(integrals, JW Hamiltonian, UCCSD ansatz over the HF reference)."""
    ints = load_fixture(fixture)
    scheme = EncodingScheme(JW, ints.m)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    reference = hf_occupation(ints)
    occupied = reference.occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    return ints, h, build_uccsd(uccsd_generators(ints.m, occupied, virtual),
                                scheme, reference)


def noisy_kernels(rng):
    """One noisy trajectory layer per H2 basis: 512 trajectories of the
    UCCSD circuit at seeded angles, every run drawn from one fixed seed."""
    noise = NoiseModel(p1=1e-3, p2=1e-3)
    out = []
    for fixture in ("h2_sto3g_0.7414", "h2_631g_0.7414"):
        _, h, ansatz = uccsd_jw(fixture)
        theta = rng.uniform(-0.1, 0.1, size=ansatz.n_params)
        out.append(("noisy_expectation 512 uccsd jw", fixture,
                    lambda circuit=ansatz.combined(), theta=theta, h=h:
                    noisy_expectation(circuit, theta, h, noise, make_rng(7),
                                      512)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10,
                        help="timed runs per kernel after one warm-up")
    repeats = parser.parse_args().repeats
    print(f"{'kernel':32} {'fixture':16} {'best ms':>9} {'median ms':>10}")
    for name, fixture, run in kernels():
        run()
        times = []
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run()
            times.append((time.perf_counter() - start) * 1e3)
        print(f"{name:32} {fixture:16} {min(times):9.3f} "
              f"{statistics.median(times):10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
