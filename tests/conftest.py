"""Shared test helpers: independent dense oracles and fixture loading."""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from hartree.pauli import (
    DROP_TOLERANCE,
    DimensionMismatch,
    PauliString,
    PauliSum,
    to_matrix,
)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "hartree" / "fixtures"


def kron_string_matrix(string: PauliString, n: int) -> np.ndarray:
    """Oracle: build the dense matrix letter-by-letter with np.kron.

    Qubit 0 is the least-significant tensor factor, so it sits rightmost in
    the kron chain.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, PAULI_MATRICES[string.letter(q)])
    return out


def kron_sum_matrix(s: PauliSum, n: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in s.items():
        out += coeff * kron_string_matrix(string, n)
    return out


LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def jw_mode_matrix(p: int, m: int, dagger: bool) -> np.ndarray:
    """Oracle: a_p (or a+_p) on m modes as Q_p x Z_{p-1} ... Z_0 via np.kron."""
    q = LOWERING.conj().T if dagger else LOWERING
    out = np.array([[1.0 + 0j]])
    for k in range(m - 1, -1, -1):
        if k == p:
            factor = q
        elif k < p:
            factor = PAULI_MATRICES["Z"]
        else:
            factor = PAULI_MATRICES["I"]
        out = np.kron(out, factor)
    return out


def fermion_matrix(fsum, m: int) -> np.ndarray:
    """Oracle: dense matrix of a FermionSum under the kron-built JW map."""
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for term in fsum:
        acc = np.eye(dim, dtype=complex)
        for p, dagger in term.factors:
            acc = acc @ jw_mode_matrix(p, m, dagger)
        out += term.coeff * acc
    return out


def to_csr(s, n=None):
    """The nonzero entries of ``to_matrix`` in CSR form: row i stores column
    i ^ x for every distinct X mask x, in order of first appearance, except
    where the mask's terms cancel to zero. All M * 2^n entries are stacked
    first and the exact zeros dropped after: a row sum that starts at +0.0
    never becomes -0.0, so a stored zero changes no matrix-vector product."""
    import scipy.sparse

    from hartree.pauli import _mask_weights, x_masks

    if n is None:
        n = s.n_qubits
    if n < s.n_qubits:
        raise DimensionMismatch(f"sum acts on {s.n_qubits} qubits, asked for {n}")
    dim = 1 << n
    masks = x_masks(s)
    data = np.empty((dim, len(masks)), dtype=complex)
    for j, (_, weights) in enumerate(_mask_weights(s, dim)):
        data[:, j] = weights
    indices = np.arange(dim)[:, None] ^ np.array(masks, dtype=np.intp)
    indptr = np.arange(dim + 1) * len(masks)
    matrix = scipy.sparse.csr_array((data.ravel(), indices.ravel(), indptr),
                                    shape=(dim, dim))
    matrix.eliminate_zeros()
    return matrix


def count_compiles(monkeypatch) -> list:
    """A list that gains one entry per CompiledCircuit built from now on."""
    from hartree.simulator import CompiledCircuit

    built = []
    init = CompiledCircuit.__init__

    def counted(self, *args, **options):
        built.append(args)
        init(self, *args, **options)

    monkeypatch.setattr(CompiledCircuit, "__init__", counted)
    return built


def random_pauli_string(rng: np.random.Generator, n: int) -> PauliString:
    letters = rng.choice(list("IXYZ"), size=n)
    text = " ".join(f"{letter}{q}" for q, letter in enumerate(letters) if letter != "I")
    return PauliString.from_text(text or "I")


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


# ------------------------------------------- per-gate kernels, kept as oracles
#
# The statevector kernels as they ran before circuits were compiled: every
# call re-derives the Pauli index and sign vector and scatters rather than
# gathers. The compiled kernels must match them bit for bit. The dense
# 2x2/4x4 gate matrices on moved axes, which the simulator ran before every
# gate went through the Pauli tables, are kept beside them.

_PHASES = np.array([1, 1j, -1, -1j])
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_T_PHASE = cmath.exp(1j * math.pi / 4)
_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
                  dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
_AXES = {"rx": _FIXED["x"], "ry": _FIXED["y"], "rz": _FIXED["z"]}
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
# T and its inverse, which only the oracles name: a phase on bit value 1.
_T_PHASES = {"t": _T_PHASE, "tdg": _T_PHASE.conjugate()}


def complex_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: every level of a Hermitian matrix by complex ``eigh``, as the
    dense solves ran before they took real arithmetic and level subsets."""
    return np.linalg.eigh(np.asarray(matrix, dtype=complex))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and identical IEEE bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint64), b.view(np.uint64))


def scatter_apply(string: PauliString, psi: np.ndarray) -> np.ndarray:
    cols = np.arange(psi.shape[0], dtype=np.uint64)
    signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
    out = np.empty_like(psi, dtype=complex)
    out[cols ^ np.uint64(string.x)] = \
        (1j ** bin(string.x & string.z).count("1")) * signs * psi
    return out


def scatter_apply_sum(s: PauliSum, psi: np.ndarray) -> np.ndarray:
    dim = psi.shape[0]
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros(dim, dtype=complex)
    for string, coeff in s.items():
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** bin(string.x & string.z).count("1")
        out[cols ^ np.uint64(string.x)] += phase * signs * psi
    return out


def scatter_to_matrix(s: PauliSum, n: int) -> np.ndarray:
    dim = 1 << n
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in s.items():
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** bin(string.x & string.z).count("1")
        out[cols ^ np.uint64(string.x), cols] += phase * signs
    return out


def _apply_single(amps, n, q, u):
    axis = n - 1 - q
    moved = np.moveaxis(amps.reshape((2,) * n), axis, 0)
    out = (u @ moved.reshape(2, -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis).reshape(-1)


def _apply_pair(amps, n, q_hi, q_lo, u):
    hi, lo = n - 1 - q_hi, n - 1 - q_lo
    moved = np.moveaxis(amps.reshape((2,) * n), (hi, lo), (0, 1))
    out = (u @ moved.reshape(4, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (hi, lo)).reshape(-1)


def pauli_exp_amps(amps, string: PauliString, phi: float) -> np.ndarray:
    if string.is_identity:
        return np.exp(1j * phi) * amps
    return math.cos(phi) * amps + 1j * math.sin(phi) * scatter_apply(string, amps)


def _rotation(axis, angle):
    half = angle / 2.0
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis


def matrix_gate_apply(amps: np.ndarray, n: int, gate, theta=None) -> np.ndarray:
    """One x, y, z, h, t, rotation, cnot or cz gate by its dense matrix."""
    if gate.kind in _FIXED:
        return _apply_single(amps, n, gate.targets[0], _FIXED[gate.kind])
    if gate.kind in _AXES:
        u = _rotation(_AXES[gate.kind], gate.resolve_angle(theta))
        return _apply_single(amps, n, gate.targets[0], u)
    control, target = gate.targets
    return _apply_pair(amps, n, control, target,
                       _CNOT if gate.kind == "cnot" else _CZ)


def _bit_set(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> q) & 1 == 1


def per_gate_apply(amps: np.ndarray, n: int, gate, theta=None) -> np.ndarray:
    """One gate on raw amplitudes by the per-call Pauli formulas."""
    kind = gate.kind
    target = gate.targets[-1] if gate.targets else None
    if kind in ("x", "y", "z"):
        return scatter_apply(PauliString.single(kind, target), amps)
    if kind in ("cnot", "cz"):
        flip = PauliString.single("X" if kind == "cnot" else "Z", target)
        return np.where(_bit_set(n, gate.targets[0]),
                        scatter_apply(flip, amps), amps)
    if kind == "h":
        return _SQRT_HALF * (scatter_apply(PauliString.single("X", target), amps)
                             + scatter_apply(PauliString.single("Z", target), amps))
    if kind in _T_PHASES:
        return np.where(_bit_set(n, target), _T_PHASES[kind] * amps, amps)
    if kind in _AXES:
        return pauli_exp_amps(amps, PauliString.single(kind[1], target),
                              -gate.resolve_angle(theta) / 2)
    evolved = pauli_exp_amps(amps, gate.string, gate.resolve_angle(theta))
    if kind == "exp":
        return evolved
    return np.where(_bit_set(n, gate.targets[0]), evolved, amps)


def per_gate_inverse(gate, theta):
    """The gate undoing ``gate`` at ``theta``; T's is T dagger ("tdg")."""
    from hartree.simulator import Gate

    if gate.kind in ("x", "y", "z", "h", "cnot", "cz"):
        return gate
    if gate.kind == "t":
        return Gate("tdg", gate.targets)
    return Gate(gate.kind, gate.targets, angle=-gate.resolve_angle(theta),
                string=gate.string)


def stored_state_gradient(ansatz, theta, h: PauliSum) -> np.ndarray:
    """The reverse sweep over every stored forward state, gate by gate with
    the per-gate kernels: the gradient as it was computed before psi was
    un-computed beside lambda."""
    n, gates = ansatz.n_qubits, ansatz.combined().gates
    states = [np.zeros(1 << n, dtype=complex)]
    states[0][0] = 1.0
    for gate in gates:
        states.append(per_gate_apply(states[-1], n, gate, theta))
    gradient = np.zeros(ansatz.n_params)
    lam = scatter_apply_sum(h, states[-1])
    for position in range(len(gates) - 1, -1, -1):
        gate = gates[position]
        if gate.slot is not None:
            if gate.kind == "exp":
                weight, string = gate.scale, gate.string
            else:
                weight = -gate.scale / 2.0
                string = PauliString.single(gate.kind[1].upper(), gate.targets[0])
            bracket = np.vdot(lam, scatter_apply(string, states[position + 1]))
            gradient[gate.slot] += 2.0 * (1j * weight * bracket).real
        lam = per_gate_apply(lam, n, per_gate_inverse(gate, theta))
    return gradient


def per_gate_run(gates, n: int, theta, amps: np.ndarray) -> np.ndarray:
    """The compiled circuit's run as it was before runs of commuting exp
    gates became one kernel: every gate by its own compiled kernel."""
    from hartree.simulator import CompiledCircuit

    for gate in gates:
        amps = CompiledCircuit([gate], n).run(theta, amps)
    return amps


def per_gate_gradient(ansatz, theta, h: PauliSum) -> np.ndarray:
    """``analytic_gradient`` as it swept before runs became one kernel:
    one bracket per parametrized gate, each gate undone on its own."""
    from hartree.pauli import apply_to_statevector
    from hartree.simulator import CompiledCircuit

    n = ansatz.n_qubits
    gates = [CompiledCircuit([gate], n) for gate in ansatz.combined().gates]
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    psi = per_gate_run(ansatz.combined().gates, n, theta, psi)
    lam = apply_to_statevector(h, psi)
    gradient = np.zeros(ansatz.n_params)
    for compiled in reversed(gates):
        (gate,), (generator,) = compiled.gates, compiled.generators
        if gate.slot is not None:
            weight, string = generator
            bracket = np.vdot(lam, string.apply(psi))
            gradient[gate.slot] += 2.0 * (1j * weight * bracket).real
        lam = compiled.undo(0, theta, lam)
        psi = compiled.undo(0, theta, psi)
    return gradient


def two_call_descent(ansatz, h: PauliSum, config, theta0, noise=None,
                     rng=None, trajectories: int = 512):
    """Gradient descent as it ran before each exact step read its energy off
    the gradient sweep: one ``estimate_energy`` and then a separate
    ``analytic_gradient`` per step, stopping at ``max_evals`` or after
    CONVERGENCE_STREAK steps that each moved the energy by less than the
    tolerance. Returns (trace, best_params, best_energy)."""
    from hartree.vqe import CONVERGENCE_STREAK, analytic_gradient, estimate_energy

    theta = np.array(theta0, dtype=float)
    trace, best_params, best_energy = [], None, math.inf
    while len(trace) < config.max_evals:
        value = estimate_energy(ansatz, theta, h, noise=noise, rng=rng,
                                trajectories=trajectories).mean
        trace.append((value, len(trace) + 1))
        if value < best_energy:
            best_params, best_energy = theta.copy(), value
        recent = [e for e, _ in trace[-(CONVERGENCE_STREAK + 1):]]
        if len(recent) > CONVERGENCE_STREAK and all(
                abs(b - a) < config.tolerance
                for a, b in zip(recent, recent[1:])):
            break
        theta = theta - config.learning_rate * analytic_gradient(ansatz,
                                                                 theta, h)
    return trace, best_params, best_energy


def plain_nelder_mead(ansatz, h: PauliSum, config, theta0, noise=None,
                      rng=None, trajectories: int = 512):
    """Nelder-Mead as it ran before sampled searches got their own simplex
    and stop: scipy's default first simplex, ``fatol`` the tolerance and
    ``xatol`` 1e-8, one ``estimate_energy`` per call. Returns (trace,
    best_params, best_energy)."""
    import scipy.optimize

    from hartree.vqe import estimate_energy

    trace, best = [], [None, math.inf]

    def objective(theta):
        value = estimate_energy(ansatz, theta, h, noise=noise, rng=rng,
                                trajectories=trajectories).mean
        trace.append((value, len(trace) + 1))
        if value < best[1]:
            best[:] = [np.array(theta, dtype=float), value]
        return value

    scipy.optimize.minimize(
        objective, np.array(theta0, dtype=float), method="Nelder-Mead",
        options={"maxfev": config.max_evals, "fatol": config.tolerance,
                 "xatol": 1e-8, "adaptive": True})
    return trace, best[0], best[1]


# --------------------------------------- per-term sampling, kept as oracle
#
# The shot samplers as they ran before every term's expectation was read off
# one block of products and the counts were drawn in one call: each term
# applied on its own and drawn on its own, in term order.


def per_term_probabilities(psi, h: PauliSum):
    amps = psi.amplitudes
    for string, coeff in h.items():
        if string.is_identity:
            yield coeff.real, None
        else:
            exact = np.vdot(amps, string.apply(amps)).real
            yield coeff.real, min(max((1.0 + exact) / 2.0, 0.0), 1.0)


def per_term_sample_expectation(psi, h: PauliSum, shots: int, rng):
    """(mean, std_error) of ``sample_expectation``, one draw per term."""
    mean = variance = 0.0
    for weight, p_plus in per_term_probabilities(psi, h):
        if p_plus is None:
            mean += weight
            continue
        term_mean = 2.0 * int(rng.binomial(shots, p_plus)) / shots - 1.0
        mean += weight * term_mean
        if shots > 1:
            sample_var = (1.0 - term_mean ** 2) * shots / (shots - 1)
            variance += weight ** 2 * sample_var / shots
    return mean, math.sqrt(variance)


def per_term_sample_means(psi, h: PauliSum, shots: int, rng, count: int):
    """``sample_means``, one binomial block of ``count`` draws per term."""
    means = np.zeros(count)
    for weight, p_plus in per_term_probabilities(psi, h):
        if p_plus is None:
            means += weight
            continue
        ups = rng.binomial(shots, p_plus, size=count)
        means += weight * (2.0 * ups / shots - 1.0)
    return means


# ----------------------------------- second derivations, kept as oracles
#
# Results the package once derived a second way, next to the caller that
# needed them: the BK-tree's index sets and encoded states by walking the
# Fenwick tree, post-selection by a CNOT fan onto an ancilla register, the
# QPE Trotter steps by a per-term loop, and the PEC sign matrix by per-letter
# commutation signs. The single remaining derivation must match each bit for
# bit.


def tree_index_sets(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """(update, flip, parity) per mode by walking fenwick_tree(m)."""
    from hartree.encoding import fenwick_tree

    tree = fenwick_tree(m)
    out = []
    for j in range(m):
        update, node = [], tree.parent[j]
        while node is not None:  # ancestors store sums that include j
            update.append(node)
            node = tree.parent[node]
        parity, t = [], j - 1
        while t >= 0:  # prefix descent over the nodes covering 0..j-1
            parity.append(t)
            t = tree.low[t] - 1
        out.append((tuple(update), tree.children[j], tuple(parity)))
    return out


def tree_mode_images(m: int):
    """(annihilator, creator) per mode from the tree-walk index sets."""
    def mask(indices):
        return sum(1 << k for k in indices)

    images = []
    for j, (update, flip, parity) in enumerate(tree_index_sets(m)):
        x_mask = 1 << j | mask(update)
        c = PauliString(x_mask, mask(parity))
        d = PauliString(x_mask, mask(parity) ^ mask(flip) ^ 1 << j)
        images.append((PauliSum({c: 0.5, d: 0.5j}, n_qubits=m),
                       PauliSum({c: 0.5, d: -0.5j}, n_qubits=m)))
    return images


def tree_encode_mask(occupation_mask: int, m: int) -> int:
    """BK-tree encoded bits: each node XORs its children into its mode bit."""
    from hartree.encoding import fenwick_tree

    tree = fenwick_tree(m)
    bits = [0] * m
    for j in range(m):  # children precede their parent
        q = occupation_mask >> j & 1
        for c in tree.children[j]:
            q ^= bits[c]
        bits[j] = q
    return sum(bit << j for j, bit in enumerate(bits))


def fan_postselect(circuit, theta, h, checks, noise, shots, rng):
    """Post-selection extracting every check's parity onto its own ancilla
    through a CNOT fan; returns (mean, std_error, kept, retained fraction).
    It draws from ``rng`` as ``stabiliser_postselect`` does: the shots'
    trajectories as one block, then one readout block per final state."""
    from hartree.simulator import (
        Circuit,
        StateVector,
        compile_circuit,
        noisy_states,
    )

    n, ancillas = circuit.n_qubits, len(checks)
    target = sum(check.expected << k for k, check in enumerate(checks))
    dim_s = 1 << n
    fan = Circuit(n + ancillas)
    for k, check in enumerate(checks):
        for q in check.parity_qubits:
            fan.cnot(q, n + k)
    fan = compile_circuit(fan)
    values = np.empty(shots)
    accepted = np.zeros(shots, dtype=bool)
    for members, psi in noisy_states(circuit, theta, noise, rng, shots):
        joint = np.zeros((1 << ancillas) * dim_s, dtype=complex)
        joint[:dim_s] = psi.amplitudes
        blocks = fan.run(None, joint).reshape(1 << ancillas, dim_s)
        weights = np.sum(np.abs(blocks) ** 2, axis=1)
        probabilities = weights / weights.sum()
        readouts = rng.choice(1 << ancillas, size=len(members),
                              p=probabilities)
        passed = [k for k, readout in zip(members, readouts)
                  if readout == target]
        if passed:
            collapsed = blocks[target] / math.sqrt(weights[target])
            values[passed] = StateVector(collapsed, n).expectation(h)
            accepted[passed] = True
    kept = values[accepted]
    spread = float(kept.std(ddof=1)) if len(kept) > 1 else 0.0
    return (float(kept.mean()), spread / math.sqrt(len(kept)), len(kept),
            len(kept) / shots)


# ------------------------------------ per-gate draw loops, fed by replays
#
# The noisy samplers draw every trajectory's randomness as blocks from one
# stream. The loops below draw one value at a time, as each gate runs; a
# ReplayStream hands them one row of those blocks, so both must give the
# same kicks and the same states bit for bit.


class ReplayStream:
    """Stands in for a Generator: random() and integers() return the given
    uniforms and integers in turn, whatever their arguments."""

    def __init__(self, uniforms, integers):
        self.uniforms, self.integer_values = list(uniforms), list(integers)

    def random(self):
        return self.uniforms.pop(0)

    def integers(self, *args):
        return self.integer_values.pop(0)

    @property
    def exhausted(self) -> bool:
        return not self.uniforms and not self.integer_values


def per_gate_trajectory(circuit, theta, noise, rng, psi0=None):
    """Evolve gate by gate, drawing each gate's error as it runs; returns
    the kicks, in circuit order, and the normalized final state."""
    from hartree.simulator import StateVector, apply_gate

    psi = StateVector.zero(circuit.n_qubits) if psi0 is None else psi0.copy()
    kicks = []
    for index, gate in enumerate(circuit.gates):
        psi = apply_gate(psi, gate, theta)
        support = gate.support()
        rate = noise.rate_for(len(support))
        if rate > 0.0 and rng.random() < rate:
            code = int(rng.integers(1, 4 ** len(support)))
            x = z = 0
            for q in support:
                digit, code = code & 3, code >> 2
                x |= (digit in (1, 3)) << q
                z |= (digit in (2, 3)) << q
            kicks.append((index, PauliString(x, z)))
            psi = StateVector(PauliString(x, z).apply(psi.amplitudes), psi.n)
    return kicks, psi.renormalized()


def trajectory_replays(circuit, noise, rng, count):
    """One ReplayStream per trajectory: row k of the (count, noisy gates)
    uniform block, and row k's hit codes, drawn in row-major order."""
    noisy = [gate.support() for gate in circuit.gates
             if noise.rate_for(len(gate.support())) > 0.0]
    rates = np.array([noise.rate_for(len(support)) for support in noisy])
    highs = np.array([4 ** len(support) for support in noisy], dtype=np.int64)
    uniforms = rng.random((count, len(rates)))
    hits = uniforms < rates
    codes = rng.integers(1, highs[np.nonzero(hits)[1]])
    per_row = np.split(codes, np.cumsum(hits.sum(axis=1))[:-1])
    return [ReplayStream(row.tolist(), [int(c) for c in row_codes])
            for row, row_codes in zip(uniforms, per_row)]


def per_gate_pec_draw(supports, noise, decompositions, stream):
    """One sample's PEC kicks and parity, drawn gate by gate: each support
    qubit's noise, then the gate's insertion by bisect on its CDF."""
    from bisect import bisect_right

    from hartree.mitigation import _LETTERS, _choice_cdf, _insertion_string

    kicks, parity = [], 1
    for index, support in enumerate(supports):
        arity = len(support)
        if arity == 0:
            continue
        entries = decompositions[arity].entries
        cdf = _choice_cdf(np.array([prob for _, prob, _ in entries])).tolist()
        rate = noise.rate_for(arity)
        for q in support:
            if rate > 0.0 and stream.random() < rate:
                letter = _LETTERS[1 + stream.integers(3)]
                kicks.append((index, PauliString.single(letter, q)))
        choice = bisect_right(cdf, stream.random())
        insertion = _insertion_string(entries[choice][0], support)
        if not insertion.is_identity:
            kicks.append((index, insertion))
        parity *= entries[choice][2]
    return kicks, parity


def pec_replays(supports, noise, rng, samples):
    """One ReplayStream per PEC sample: its noise uniforms and insertion
    uniform interleaved in the order the per-gate draw reads them, and its
    hits' letters, from the three blocks ``_pec_kicks`` draws."""
    gates = [support for support in supports if support]
    noisy = [(g, q) for g, support in enumerate(gates)
             if noise.rate_for(len(support)) > 0.0 for q in support]
    rates = np.array([noise.rate_for(len(gates[g])) for g, _ in noisy])
    noise_uniforms = rng.random((samples, len(noisy)))
    hits = noise_uniforms < rates
    letters = rng.integers(3, size=int(hits.sum()))
    insertion_uniforms = rng.random((samples, len(gates)))
    per_row = np.split(letters, np.cumsum(hits.sum(axis=1))[:-1])
    replays = []
    for k in range(samples):
        uniforms = []
        for g in range(len(gates)):
            uniforms += [float(noise_uniforms[k, c])
                         for c, (owner, _) in enumerate(noisy) if owner == g]
            uniforms.append(float(insertion_uniforms[k, g]))
        replays.append(ReplayStream(uniforms, [int(c) for c in per_row[k]]))
    return replays


def per_term_trotter_register(psi, h: PauliSum, n_ancilla: int, steps: int,
                              window) -> np.ndarray:
    """Trotterized QPE's joint register before the Fourier step, with each
    controlled power's steps looped term by term over the selected half of
    the ancilla rows, flattened into one register."""
    n_sys = psi.n
    scaled = (h - PauliSum.identity(window.lower, n_qubits=n_sys)) \
        * (1.0 / window.span)
    dim_a, dim_s = 1 << n_ancilla, 1 << n_sys
    joint = np.tile(psi.amplitudes / math.sqrt(dim_a), (dim_a, 1))
    row_bits = np.arange(dim_a)
    for k in range(n_ancilla):
        selected = (row_bits >> k) & 1 == 1
        angle_scale = -2.0 * math.pi * (1 << k) / steps
        flat = joint[selected].reshape(-1)
        for _ in range(steps):
            for string, coeff in scaled.items():
                flat = pauli_exp_amps(flat, string, angle_scale * coeff.real)
        joint[selected] = flat.reshape(-1, dim_s)
    return joint


def letter_product_coefficients(p: float, arity: int):
    """Inverse-depolarizing coefficients with each sign-matrix entry the
    product of per-letter commutation signs; returns (labels, coefficients)."""
    from itertools import product

    def sign(a: str, b: str) -> int:
        return 1 if a == "I" or b == "I" or a == b else -1

    labels = ["".join(parts) for parts in product("IXYZ", repeat=arity)]
    transfer = np.array([(1.0 - p) ** sum(c != "I" for c in q) for q in labels])
    signs = np.array([[math.prod(sign(a, b) for a, b in zip(pauli, q))
                       for pauli in labels] for q in labels], dtype=float)
    return labels, np.linalg.solve(signs, 1.0 / transfer)


# --------------------------------------- dense evolution, kept as oracles
#
# Exact phase estimation and imaginary time as they ran before both moved to
# the eigenbasis: one dense 2^n x 2^n matrix per controlled power, applied to
# the selected ancilla rows, a dense dim_a x dim_a inverse Fourier matrix, and
# a step propagator from scipy.linalg.expm.


def dense_fourier_readout(joint: np.ndarray, window):
    """(energy per bin, probability) of a joint register read through the
    dense Fourier matrix exp(-2 pi i x k / dim_a) / sqrt(dim_a)."""
    dim_a = joint.shape[0]
    x = np.arange(dim_a)
    fourier = np.exp(-2j * math.pi * np.outer(x, x) / dim_a) / math.sqrt(dim_a)
    probabilities = np.sum(np.abs(fourier @ joint) ** 2, axis=1)
    probabilities = probabilities / probabilities.sum()
    return window.to_energy(((dim_a - x) % dim_a) / dim_a), probabilities


def power_matrix_qpe(psi, h: PauliSum, n_ancilla: int, window):
    """Exact QPE readout by dense controlled powers U^(2^k)."""
    n_sys = psi.n
    scaled = (h - PauliSum.identity(window.lower, n_qubits=n_sys)) \
        * (1.0 / window.span)
    dim_a = 1 << n_ancilla
    joint = np.tile(psi.amplitudes / math.sqrt(dim_a), (dim_a, 1))
    row_bits = np.arange(dim_a)
    phases, vectors = np.linalg.eigh(to_matrix(scaled, n_sys))
    for k in range(n_ancilla):
        turn = np.exp(-2j * math.pi * phases * (1 << k))
        power = (vectors * turn) @ vectors.conj().T
        selected = (row_bits >> k) & 1 == 1
        joint[selected] = joint[selected] @ power.T
    return dense_fourier_readout(joint, window)


def expm_imaginary_time(psi, h: PauliSum, tau: float, steps: int) -> np.ndarray:
    """Normalized exp(-H tau)|psi> by ``steps`` applications of
    expm(-H tau / steps), normalizing after each."""
    propagator = scipy.linalg.expm(-to_matrix(h, psi.n) * (tau / steps))
    amps = psi.amplitudes
    for _ in range(steps):
        amps = propagator @ amps
        amps = amps / np.linalg.norm(amps)
    return amps


# ------------------------------ dense density matrices, per-determinant action
#
# The exact depolarizing channel, every gate a dense unitary, is the oracle
# the trajectory averages are checked against; one ladder product applied to
# one determinant is the oracle the sector loops are checked against.

# The density oracle makes 15 dense kicks per two-qubit gate, so its ceiling
# bounds time; its memory is far under the byte budget.
DENSITY_QUBIT_LIMIT = 4


def gate_unitary(gate, n: int, theta=None) -> np.ndarray:
    """Dense 2^n x 2^n realisation, column by column; TooLarge when the
    matrix and two registers working on its columns exceed BYTE_BUDGET."""
    from hartree.pauli import check_bytes, matrix_bytes
    from hartree.simulator import REGISTER_BYTES, CompiledCircuit, StateVector

    check_bytes(matrix_bytes(n) + 2 * (REGISTER_BYTES << n),
                f"the dense unitary of a gate on {n} qubits")
    compiled = CompiledCircuit([gate], n)
    dim = 1 << n
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        out[:, j] = compiled.run(theta, StateVector.basis(n, j).amplitudes)
    return out


def density_matrix_reference(circuit, theta, noise, psi0=None) -> np.ndarray:
    """Exact depolarizing-channel evolution; the trajectory average's oracle."""
    from hartree.pauli import TooLarge
    from hartree.simulator import StateVector, _error_string

    n = circuit.n_qubits
    if n > DENSITY_QUBIT_LIMIT:
        raise TooLarge(
            f"{n} qubits exceeds the density-matrix limit of {DENSITY_QUBIT_LIMIT}")
    start = StateVector.zero(n) if psi0 is None else psi0
    rho = np.outer(start.amplitudes, start.amplitudes.conj())
    for gate in circuit.gates:
        u = gate_unitary(gate, n, theta)
        rho = u @ rho @ u.conj().T
        support = gate.support()
        rate = noise.rate_for(len(support))
        if rate > 0.0:
            kicked = np.zeros_like(rho)
            count = 4 ** len(support) - 1
            for code in range(1, count + 1):
                string = PauliSum({_error_string(support, code): 1.0})
                p_mat = to_matrix(string, n)
                kicked += p_mat @ rho @ p_mat.conj().T
            rho = (1.0 - rate) * rho + (rate / count) * kicked
    return rho


def expectation_from_density(rho: np.ndarray, h: PauliSum) -> float:
    n = int(round(math.log2(rho.shape[0])))
    value = np.trace(to_matrix(h, n) @ rho)
    return float(value.real)


def apply_to_occupation(op, f):
    """Apply the factors right-to-left; None when the state is annihilated.

    Each a_p / a+_p contributes the sign (-1)^(sum of occupations below p).
    """
    from hartree.fermion import OccupationVector

    mask = f.mask
    phase = 1
    for p, dagger in reversed(op.factors):
        bit = 1 << p
        if dagger == bool(mask & bit):
            return None
        if (mask & (bit - 1)).bit_count() % 2:
            phase = -phase
        mask ^= bit
    return phase * op.coeff, OccupationVector(f.m, mask)


def sums_equal(a, b, tol: float = 1e-10) -> bool:
    from hartree.fermion import normal_order

    diff = normal_order(a - b, tol=tol)
    return len(diff) == 0


# --------------------------- restating loops, kept as bit-for-bit oracles
#
# The molecular Hamiltonian's index loop, the sector loops, the per-term
# taper, the two fit bodies and cancellation with caller-built
# decompositions as they were written before each was derived from shared
# code or read from arrays. The library must match them bit for bit.


def per_index_molecular_hamiltonian(ints):
    """The molecular FermionSum built one integral index at a time: the
    core, then h_one in row-major order, then every nonzero h_two entry."""
    from hartree.fermion import COEFF_TOLERANCE, FermionOperator, arity_runs

    ints.validate()
    terms = []
    if abs(ints.core_energy) > COEFF_TOLERANCE:
        terms.append(FermionOperator((), ints.core_energy))
    m = ints.m
    for p in range(m):
        for q in range(m):
            c = ints.h_one[p, q]
            if abs(c) > COEFF_TOLERANCE:
                terms.append(FermionOperator(((p, True), (q, False)), c))
    nonzero = np.argwhere(np.abs(ints.h_two) > COEFF_TOLERANCE)
    for p, q, r, s in nonzero:
        terms.append(FermionOperator(
            ((int(p), True), (int(q), True), (int(r), False), (int(s), False)),
            0.5 * ints.h_two[p, q, r, s]))
    return arity_runs(terms)


def per_determinant_fci_matrix(ints):
    """Sector FCI matrix built column by column, every term applied to a
    fresh OccupationVector; returns (matrix, masks)."""
    from hartree.fermion import OccupationVector
    from hartree.reduction import sector_determinants

    masks = sector_determinants(ints.m, ints.n_up, ints.n_down)
    index = {mask: i for i, mask in enumerate(masks)}
    h_sum = per_index_molecular_hamiltonian(ints)
    matrix = np.zeros((len(masks), len(masks)), dtype=complex)
    for j, mask in enumerate(masks):
        f = OccupationVector(ints.m, mask)
        for term in h_sum:
            result = apply_to_occupation(term, f)
            if result is None:
                continue
            amp, g = result
            matrix[index[g.mask], j] += amp
    return matrix, masks


def per_determinant_1rdm(ints, amplitudes, masks) -> np.ndarray:
    """Spin-summed 1-RDM with a fresh OccupationVector per (operator,
    determinant), small amplitudes skipped before the operator is applied."""
    from hartree.fermion import FermionOperator, OccupationVector

    index = {mask: i for i, mask in enumerate(masks)}
    ns = ints.m // 2
    rho = np.zeros((ns, ns))
    for i_orb in range(ns):
        for j_orb in range(ns):
            total = 0.0
            for offset in (0, ns):
                op = FermionOperator(((i_orb + offset, True),
                                      (j_orb + offset, False)))
                for k, mask in enumerate(masks):
                    if abs(amplitudes[k]) < 1e-14:
                        continue
                    result = apply_to_occupation(op, OccupationVector(ints.m, mask))
                    if result is None:
                        continue
                    phase, g = result
                    total += (np.conj(amplitudes[index[g.mask]])
                              * phase * amplitudes[k]).real
            rho[i_orb, j_orb] = total
    return rho


def column_block_sector_matrix(ints, masks: list[int]) -> np.ndarray:
    """The sector matrix built in blocks of columns, each block screening
    its (column, term) pairs as a uint64 grid of at most 256 KiB, applying
    the survivors and finding each image's row by ``searchsorted``; entries
    gathered in (run, column, term) order, one ``np.add.at`` a block. The
    first leaking term in (column, run, term) order is named."""
    from hartree.fermion import molecular_term_runs
    from hartree.pauli import TABLE_BYTES
    from hartree.reduction import _apply, _factor_bits, _ladder, _outside, _rows

    runs = [(pairs, np.bitwise_or.reduce(_factor_bits(pairs)[1], axis=-1),
             coeffs) for pairs, coeffs in molecular_term_runs(ints)]
    sector = np.array(masks, dtype=np.uint64)
    dtype = np.result_type(float, *(coeffs for _, _, coeffs in runs))
    matrix = np.zeros((len(masks), len(masks)), dtype=dtype)
    if not runs:
        return matrix
    n_terms = sum(len(coeffs) for _, _, coeffs in runs)
    width = max(1, (TABLE_BYTES >> 5) // (sector.itemsize * n_terms))
    for start in range(0, len(masks), width):
        block = sector[start:start + width]
        entries, leaks = [], []
        for run, (pairs, needs, amplitudes) in enumerate(runs):
            column, term = np.nonzero((block[:, None] & needs) == needs)
            image, odd, alive = _apply(_ladder(pairs[term]), block[column])
            column, term = column[alive], term[alive]
            rows = _rows(sector, image[alive])
            if rows.min(initial=0) < 0:
                first = np.argmin(rows)
                leaks.append((column[first], run, term[first]))
            entries.append((rows, start + column, np.where(
                odd[alive], -amplitudes[term], amplitudes[term])))
        if leaks:
            column, run, term = min(leaks)
            pairs, _, coeffs = runs[run]
            raise _outside(pairs, coeffs, term, masks[start + column], ints)
        rows, columns, amplitudes = map(np.concatenate, zip(*entries))
        np.add.at(matrix, (rows, columns), amplitudes)
    return matrix


def dict_slot_encode_operators(sums, scheme) -> list[PauliSum]:
    """``encode_operators`` slotting every kept product through a dict keyed
    by (sum, x, z) in product order, the slots' totals grown as they fill
    and one ``np.add.at`` a block."""
    from hartree.encoding import (
        BLOCK_PRODUCTS,
        _image_arrays,
        _joined_runs,
        _multiply_out,
    )

    m = scheme.m
    images = _image_arrays(scheme.variant, m)
    slots: dict[tuple[int, int, int], int] = {}
    total = np.zeros(0, dtype=complex)
    for pairs, coeffs, owners in _joined_runs(sums):
        size = max(1, BLOCK_PRODUCTS >> pairs.shape[1])
        for start in range(0, len(coeffs), size):
            block = slice(start, start + size)
            x, z, c, kept = _multiply_out(images, pairs[block], coeffs[block])
            kept = kept.T.ravel()
            owner = np.repeat(owners[block], z.shape[0])
            x = np.repeat(x, z.shape[0])
            at = [slots.setdefault(key, len(slots)) for key in zip(
                owner[kept].tolist(), x[kept].tolist(),
                z.T.ravel()[kept].tolist())]
            if len(slots) > len(total):
                total = np.concatenate((total, np.zeros(
                    len(slots) - len(total), dtype=complex)))
            np.add.at(total, at, c.T.ravel()[kept])
    keys = np.array(list(slots), dtype=np.uint64).reshape(-1, 3)
    return [PauliSum.from_masks(*keys[owned, 1:].T, total[owned], n_qubits=m)
            for owned in (keys[:, 0] == k for k in range(len(sums)))]


def per_term_taper(h: PauliSum, scheme, sector) -> PauliSum:
    """``taper_two_qubits`` one term at a time on Python-int masks, after
    the same register checks."""
    from hartree.reduction import NotSymmetric

    m = scheme.m
    top, mid = m - 1, m // 2 - 1

    def drop_bit(mask: int, position: int) -> int:
        lower = mask & ((1 << position) - 1)
        return lower | (mask >> position + 1) << position

    out: dict[PauliString, complex] = {}
    for string, coeff in h.items():
        for qubit in (top, mid):
            if string.x >> qubit & 1:
                raise NotSymmetric(
                    f"term {string} acts on tapered qubit {qubit} with X or Y")
        if string.z >> top & 1:
            coeff = coeff * sector.z_total
        if string.z >> mid & 1:
            coeff = coeff * sector.z_up
        x = drop_bit(drop_bit(string.x, top), mid)
        z = drop_bit(drop_bit(string.z, top), mid)
        new = PauliString(x, z)
        out[new] = out.get(new, 0.0) + coeff
    return PauliSum(out, n_qubits=m - 2)


def _intercept_weights(scales: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones_like(scales), scales])
    return np.linalg.pinv(design)[0]


def series_extrapolate_linear(series):
    """(mean, std_error, shots) of the straight-line fit at zero noise."""
    scales = np.array([lam for lam, _ in series.points])
    means = np.array([est.mean for _, est in series.points])
    errors = np.array([est.std_error for _, est in series.points])
    weights = _intercept_weights(scales)
    mitigated = float(weights @ means)
    spread = float(np.sqrt(np.sum((weights * errors) ** 2)))
    shots = sum(est.shots for _, est in series.points)
    return mitigated, spread, shots


def series_extrapolate_exponential(series):
    """(mean, std_error, shots) of the log-magnitude fit at zero noise;
    the series must share one nonzero sign."""
    scales = np.array([lam for lam, _ in series.points])
    means = np.array([est.mean for _, est in series.points])
    errors = np.array([est.std_error for _, est in series.points])
    sign = np.sign(means[0])
    weights = _intercept_weights(scales)
    log_amplitude = float(weights @ np.log(np.abs(means)))
    amplitude = math.exp(log_amplitude)
    spread = amplitude * float(np.sqrt(np.sum((weights * errors / means) ** 2)))
    shots = sum(est.shots for _, est in series.points)
    return float(sign * amplitude), spread, shots


def pec_with_decompositions(circuit, theta, observable, noise, decompositions,
                            samples, rng):
    """Cancellation with caller-supplied decompositions, checked against the
    noise model and drawn sample by sample through ``per_gate_pec_draw`` on
    ``pec_replays`` of ``rng``; returns the ShotEstimate."""
    from hartree.mitigation import MATCH_TOLERANCE, _mean_estimate
    from hartree.simulator import compile_circuit

    compiled = compile_circuit(circuit)
    supports = compiled.supports
    gamma_total = 1.0
    for arity in map(len, supports):
        if arity == 0:
            continue
        expected = 4.0 * noise.rate_for(arity) / 3.0
        assert abs(decompositions[arity].p - expected) <= MATCH_TOLERANCE
        gamma_total *= decompositions[arity].gamma
    kicks, parities = zip(*(
        per_gate_pec_draw(supports, noise, decompositions, stream)
        for stream in pec_replays(supports, noise, rng, samples)))
    values = np.array(parities, dtype=float)
    for members, psi in compiled.trajectories(theta, kicks):
        values[members] *= psi.expectation(observable)
    return _mean_estimate(values, gamma_total)


# ------------------------------ the FermionOperator-list sum, an oracle
#
# FermionSum as it was before it held arity runs: a list of FermionOperators,
# every operation made term by term in Python arithmetic.


class ListFermionSum:
    def __init__(self, terms=()):
        self.terms = list(terms)

    def adjoint(self) -> "ListFermionSum":
        from hartree.fermion import FermionOperator

        return ListFermionSum(
            FermionOperator(tuple((p, not d) for p, d in reversed(t.factors)),
                            t.coeff.conjugate()) for t in self.terms)

    def max_mode(self) -> int:
        return max((p for t in self.terms for p, _ in t.factors), default=-1)

    def __add__(self, other: "ListFermionSum") -> "ListFermionSum":
        return ListFermionSum(self.terms + other.terms)

    def __sub__(self, other: "ListFermionSum") -> "ListFermionSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "ListFermionSum":
        from hartree.fermion import FermionOperator

        return ListFermionSum(FermionOperator(t.factors, scalar * t.coeff)
                              for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def same_terms(a, b) -> bool:
    """The same factors term by term and identical coefficient bits."""
    a, b = list(a), list(b)
    return [t.factors for t in a] == [t.factors for t in b] and same_bits(
        np.array([t.coeff for t in a], dtype=complex),
        np.array([t.coeff for t in b], dtype=complex))


# --------------------------------------- the per-factor encoder, an oracle
#
# encode_operator as it ran before it multiplied raw masks: every ladder
# factor builds a PauliSum, which merges, drops and sorts by string. The raw
# product must match it bit for bit.


def per_factor_encode(s, scheme) -> PauliSum:
    from hartree.encoding import IndexOutOfRange, _mode_images

    images = _mode_images(scheme.variant, scheme.m)
    total: dict[PauliString, complex] = {}
    for term in s:
        top = max((p for p, _ in term.factors), default=-1)
        if top >= scheme.m:
            raise IndexOutOfRange(f"mode {top} outside register of {scheme.m}")
        acc = PauliSum.identity(term.coeff, n_qubits=scheme.m)
        for p, dagger in term.factors:
            acc = acc * images[p][1 if dagger else 0]
        for string, coeff in acc.items():
            total[string] = total.get(string, 0.0) + coeff
    return PauliSum(total, n_qubits=scheme.m)


def same_sum_bits(a: PauliSum, b: PauliSum) -> bool:
    """Same width, same strings in the same order and identical coefficient
    bits, in the mask arrays of both sums and in the strings and items each
    one serves."""
    arrays = [(s.x, s.z, s.coeffs) for s in (a, b)] + [
        (np.array([p.x for p in s.strings()], dtype=np.uint64),
         np.array([p.z for p in s.strings()], dtype=np.uint64),
         np.array([c for _, c in s.items()], dtype=complex)) for s in (a, b)]
    return a.n_qubits == b.n_qubits and all(
        all(map(same_bits, arrays[0], other)) for other in arrays[1:])


# ------------------------------------------- the dict-merged sum, an oracle
#
# PauliSum as it was built before it held mask arrays: a dict merge of
# PauliStrings in input order from zero, abs(c) >= tol, then sorted by text.


def dict_pauli_sum(terms, n_qubits=None, tol=DROP_TOLERANCE):
    """(x, z, coeffs, n_qubits) of the sum of ``terms``, a mapping of
    PauliStrings to coefficients or PauliTerms, as arrays."""
    merged: dict[PauliString, complex] = {}
    items = terms.items() if isinstance(terms, Mapping) else (
        (t.string, t.coeff) for t in terms)
    for string, coeff in items:
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise ValueError(f"non-finite coefficient for {string}")
        merged[string] = merged.get(string, 0.0) + coeff
    kept = {s: c for s, c in merged.items() if abs(c) >= tol}
    ordered = sorted(kept, key=str)
    inferred = max((s.n_qubits for s in kept), default=0)
    if n_qubits is not None and n_qubits < inferred:
        raise DimensionMismatch(f"declared {n_qubits} qubits, terms need {inferred}")
    return (np.array([s.x for s in ordered], dtype=np.uint64),
            np.array([s.z for s in ordered], dtype=np.uint64),
            np.array([kept[s] for s in ordered], dtype=complex),
            inferred if n_qubits is None else n_qubits)
