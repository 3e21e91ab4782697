"""Statevector circuit simulation with stochastic Pauli noise.

Amplitudes are indexed with qubit 0 as the least-significant bit, matching the
Pauli-mask convention. Circuits are lists of small gate records whose rotation
angles resolve against an external parameter vector, so the same circuit can be
re-run at many parameter points. Noise is per-gate stochastic Pauli insertion;
averaging trajectories reproduces the uniform depolarizing channel. Phase
estimation is simulated with an explicit ancilla register read out by an FFT.
Dense evolution, exact QPE powers and imaginary time alike, is diagonal in one
``eigh`` basis, solved in real arithmetic when the generator's matrix is real.

Rotation gates follow the convention R_O(theta) = exp(-i theta O / 2). Pauli
exponential gates apply exp(i phi P) with the caller supplying the sign of phi.
Every gate acts through the shared Pauli gather tables: rotations as Pauli
exponentials, H as (X + Z)/sqrt 2, controlled gates and T as masks over the
basis index. A noiseless run applies each stretch of parametrized exponentials
of commuting strings on one X mask as a single kernel (``CommutingRun``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .pauli import (
    AMPLITUDE_BYTES,
    NonHermitian,
    PauliString,
    PauliSum,
    check_bytes,
    commutes,
    expectation,
    matrix_bytes,
    string_actions,
    to_matrix,
)

# A register holds its state and the two working arrays a gate kernel makes
# beside it (tracemalloc, 16 qubits, Pauli tables cached: every gate kind and
# its inverse peak at 2.0 states beyond their input, x, y and z at 1.0).
REGISTER_BYTES = 3 * AMPLITUDE_BYTES
# eigh of a dense generator peaks at 2.0 matrices (tracemalloc, 6-10 qubits);
# one more counts LAPACK's workspace, which tracemalloc cannot see.
EIGH_MATRICES = 3
OVERLAP_FLOOR = 1e-14
# A block of kicked trajectories holds at most this many bytes of amplitudes,
# one row at least. Each kernel streams a few temporaries of the block's size
# through the cache: a 64-trajectory 12-qubit LiH UCCSD estimate (48 KiB L1d,
# 2 MiB L2) took 1.51-1.57 s in 2-row blocks, 1.70-1.75 s in 1-row, 2.03-2.14 s
# in 4-row and 1.87-2.04 s in 128-row ones, and 1.76-1.88 s replaying each
# trajectory on its own.
TRAJECTORY_BLOCK_BYTES = 128 << 10

SQRT_HALF = 1.0 / math.sqrt(2.0)
# The Pauli letter each rotation exponentiates.
ROTATIONS = {"rx": "X", "ry": "Y", "rz": "Z"}
T_PHASE = cmath.exp(1j * math.pi / 4)
# At most this many independent z differences per run of commuting exp
# gates, so its sign table has at most 2^RUN_RANK distinct rows and each
# amplitude names its row in one byte.
RUN_RANK = 8
# An amplitude names its row of a run's sign table by a native index while
# those indices take at most this many bytes (10 qubits), because indexing
# by a byte casts it first (13-17 % of a gradient call on 4 and 8 qubits);
# wider registers keep one byte per amplitude.
NATIVE_ROWS_BYTES = 8 << 10


class BadTarget(ConfigError):
    """Gate addresses a qubit outside the register or repeats a target."""


class NonCommutingRun(ConfigError):
    """Strings put in one run whose sign ratios are not +-1."""


class ZeroOverlap(NumericalError):
    """Imaginary-time propagation annihilated the state."""


def make_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Independent child streams, one per stage or estimate that may run on
    its own; the trajectories, shots or samples of one estimate share its
    stream and draw their randomness from it in blocks."""
    return rng.spawn(count)


def hermitian_eigh(matrix: np.ndarray, k: int | None = None,
                   with_vectors: bool = True):
    """The k lowest levels of a dense Hermitian matrix, every level for k
    None, ascending: (values, unit vectors as columns), or the values alone
    without ``with_vectors``.

    The solve runs in float64 when every imaginary part is exactly 0 (its
    vectors are then real) and in complex otherwise. Values alone come from
    ``eigvalsh``; k pairs short of the whole spectrum from LAPACK's
    ``syevr``/``heevr`` restricted to the k lowest, every pair from ``eigh``.
    """
    if np.iscomplexobj(matrix) and not matrix.imag.any():
        matrix = matrix.real
    dim = matrix.shape[0]
    k = dim if k is None else min(k, dim)
    if not with_vectors:
        return np.linalg.eigvalsh(matrix)[:k]
    if k < dim:
        import scipy.linalg

        return scipy.linalg.eigh(matrix, subset_by_index=[0, k - 1],
                                 check_finite=False)
    return np.linalg.eigh(matrix)


# ----------------------------------------------------------------- statevector


@dataclass
class StateVector:
    """Dense complex amplitudes over 2^n computational basis states."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        check_bytes(REGISTER_BYTES << self.n, "the statevector register")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes, got {self.amplitudes.shape}")

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls.basis(n, 0)

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        if not 0 <= index < (1 << n):
            raise ValueError(f"basis index {index} out of range for {n} qubits")
        check_bytes(REGISTER_BYTES << n, "the statevector register")
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n)

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def renormalized(self) -> "StateVector":
        norm = self.norm()
        if norm < OVERLAP_FLOOR:
            raise ZeroOverlap("state norm collapsed below the floor")
        return StateVector(self.amplitudes / norm, self.n)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def expectation(self, h: PauliSum) -> float:
        return expectation(h, self.amplitudes)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


# ----------------------------------------------------------------------- gates


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    ``slot`` indexes the external parameter vector; ``angle`` is a fixed value
    used when ``slot`` is None. The effective rotation angle is scale * value.
    ``string`` holds the Pauli operator of exponential gates; for ``cexp`` the
    first target is the control and must lie outside the string's support.
    """

    kind: str
    targets: tuple[int, ...]
    slot: int | None = None
    angle: float | None = None
    scale: float = 1.0
    string: PauliString | None = None

    def resolve_angle(self, theta: Sequence[float] | None) -> float:
        if self.slot is not None:
            if theta is None or self.slot >= len(theta):
                raise ValueError(f"gate needs parameter slot {self.slot}")
            return self.scale * float(theta[self.slot])
        if self.angle is None:
            raise ValueError(f"{self.kind} gate has neither slot nor angle")
        return self.scale * self.angle

    def support(self) -> tuple[int, ...]:
        touched = set(self.targets)
        if self.string is not None:
            touched.update(self.string.indices())
        return tuple(sorted(touched))


def _checked_support(gate: Gate, n: int) -> tuple[int, ...]:
    """The gate's support, once its targets are checked against n qubits."""
    if len(set(gate.targets)) != len(gate.targets):
        raise BadTarget(f"repeated target in {gate.targets}")
    support = gate.support()
    for q in support:
        if not 0 <= q < n:
            raise BadTarget(f"target {q} outside register of {n}")
    if gate.kind == "cexp" and gate.string is not None:
        if gate.targets[0] in gate.string.indices():
            raise BadTarget("control qubit overlaps the exponential's support")
    return support


@dataclass
class Circuit:
    """Ordered gate list over a fixed-width register."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        _checked_support(gate, self.n_qubits)
        self.gates.append(gate)
        return self

    def x(self, q: int) -> "Circuit":
        return self.add(Gate("x", (q,)))

    def y(self, q: int) -> "Circuit":
        return self.add(Gate("y", (q,)))

    def z(self, q: int) -> "Circuit":
        return self.add(Gate("z", (q,)))

    def h(self, q: int) -> "Circuit":
        return self.add(Gate("h", (q,)))

    def t(self, q: int) -> "Circuit":
        return self.add(Gate("t", (q,)))

    def rx(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("rx", (q,), slot, angle, scale))

    def ry(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("ry", (q,), slot, angle, scale))

    def rz(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("rz", (q,), slot, angle, scale))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.add(Gate("cnot", (control, target)))

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add(Gate("cz", (control, target)))

    def exp(self, string: PauliString, slot: int | None = None,
            angle: float | None = None, scale: float = 1.0) -> "Circuit":
        return self.add(Gate("exp", (), slot, angle, scale, string))

    def cexp(self, control: int, string: PauliString, slot: int | None = None,
             angle: float | None = None, scale: float = 1.0) -> "Circuit":
        return self.add(Gate("cexp", (control,), slot, angle, scale, string))

    @property
    def n_params(self) -> int:
        return _slot_count(self.gates)


def _slot_count(gates: Sequence[Gate]) -> int:
    """The length of the parameter vector the gates read; a ValueError when
    their slots are not 0, 1, ..., k - 1."""
    slots = {g.slot for g in gates if g.slot is not None}
    if not slots:
        return 0
    if slots != set(range(max(slots) + 1)):
        raise ValueError(f"parameter slots not dense: {sorted(slots)}")
    return max(slots) + 1


# ---------------------------------------------------------- compiled circuits


Kernel = Callable[[np.ndarray, "float | None"], np.ndarray]


def _exp_kernel(string: PauliString, dim: int) -> Kernel:
    """exp(i phi P) = cos(phi) I + i sin(phi) P on a last axis of ``dim``."""
    if string.is_identity:
        return lambda amps, phi: np.exp(1j * phi) * amps

    def apply(amps: np.ndarray, phi: float) -> np.ndarray:
        idx, phased = string.tables(dim)
        return (math.cos(phi) * amps
                + 1j * math.sin(phi) * (phased * amps.take(idx, axis=-1)))
    return apply


def _compile_gate(gate: Gate, n: int, ones: Callable[[int], np.ndarray]
                  ) -> tuple[tuple[int, ...], Kernel, Kernel, Callable | None,
                             tuple[float, PauliString] | None]:
    """(support, kernel, inverse kernel, angle resolver or None, generator).

    Kernels take the resolved angle; ``ones(q)`` masks the basis states
    whose bit q is set. The generator (w, P), with dU/dtheta = i w P U, is
    set for slotted rotation and exponential gates only.
    """
    support = _checked_support(gate, n)
    kind, dim = gate.kind, 1 << n
    target = gate.targets[-1] if gate.targets else None
    if kind in ("x", "y", "z"):
        string = PauliString.single(kind, target)
        kernel = lambda amps, phi: string.apply(amps)
    elif kind in ("cnot", "cz"):
        string = PauliString.single("X" if kind == "cnot" else "Z", target)
        control = ones(gate.targets[0])
        kernel = lambda amps, phi: np.where(control, string.apply(amps), amps)
    elif kind == "h":
        x, z = PauliString.single("X", target), PauliString.single("Z", target)
        kernel = lambda amps, phi: SQRT_HALF * (x.apply(amps) + z.apply(amps))
    elif kind == "t":
        one, undo = ones(target), T_PHASE.conjugate()
        return (support, lambda amps, phi: np.where(one, T_PHASE * amps, amps),
                lambda amps, phi: np.where(one, undo * amps, amps), None, None)
    else:
        generator = None
        if kind in ROTATIONS:
            string = PauliString.single(ROTATIONS[kind], target)
            evolve, generator = _exp_kernel(string, dim), (-gate.scale / 2, string)
            kernel = lambda amps, angle: evolve(amps, -angle / 2)
        elif kind == "exp":
            kernel, generator = _exp_kernel(gate.string, dim), (gate.scale, gate.string)
        elif kind == "cexp":
            evolve, control = _exp_kernel(gate.string, dim), ones(gate.targets[0])
            kernel = lambda amps, phi: np.where(control, evolve(amps, phi), amps)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
        inverse = lambda amps, phi: kernel(amps, -phi)
        return (support, kernel, inverse, gate.resolve_angle,
                generator if gate.slot is not None else None)
    return support, kernel, kernel, None, None


def _gf2_coordinates(vectors: Sequence[int]) -> tuple[list[int], list[int]]:
    """A GF(2) basis of the vectors' span, chosen among them, and each
    vector's coordinates in that basis as a bit mask."""
    basis: list[int] = []
    echelon: dict[int, tuple[int, int]] = {}  # leading bit -> row, coords
    coordinates = []
    for vector in vectors:
        row, coords = vector, 0
        while row and (top := row.bit_length() - 1) in echelon:
            row ^= echelon[top][0]
            coords ^= echelon[top][1]
        if row:
            bit = 1 << len(basis)
            basis.append(vector)
            echelon[row.bit_length() - 1] = row, coords ^ bit
            coords = bit
        coordinates.append(coords)
    return basis, coordinates


class CommutingRun:
    """Consecutive slotted ``exp`` gates whose strings share one X mask and
    commute, applied as one kernel.

    Each string is P_k = S_k P_0 with S_k diagonal, S[j, k] = phased_k[j] /
    phased_0[j], so the run is exp(i Phi P_0) = cos Phi + i sin Phi P_0,
    with Phi = S (scales * theta[slots]) per amplitude. The entries are
    S[j, k] = e_k (-1)^|(j ^ x) & (z_k ^ z_0)| with e_k = i^(|x & z_k| -
    |x & z_0|), which is +-1 exactly when P_k commutes with P_0; a run is
    refused with ``NonCommutingRun`` otherwise. Row j of S depends on j only
    through the parities of j ^ x with a GF(2) basis of the z differences,
    at most RUN_RANK of them, so S is kept as its distinct rows and the
    row index of each amplitude, built on first use (``build_rows``).
    """

    def __init__(self, gates: Sequence[Gate], start: int, n: int):
        first = gates[0].string
        self.start, self.stop, self.n = start, start + len(gates), n
        self.string = first
        self.slots = np.array([gate.slot for gate in gates], dtype=np.intp)
        self._top_slot = max(gate.slot for gate in gates)
        self.scales = np.array([gate.scale for gate in gates])
        signs = []
        for gate in gates:
            turns = ((first.x & gate.string.z).bit_count()
                     - (first.x & first.z).bit_count())
            if gate.string.x != first.x or turns % 2:
                raise NonCommutingRun(
                    f"{gate.string} and {first} have a sign ratio of +-i")
            signs.append(1 - turns % 4)
        self._basis, coordinates = _gf2_coordinates(
            [gate.string.z ^ first.z for gate in gates])
        parities = np.bitwise_count(np.arange(1 << len(self._basis))[:, None]
                                    & np.array(coordinates)) & 1
        self.rows = np.array(signs) * (1.0 - 2.0 * parities)
        self.row_of: np.ndarray | None = None

    def _row_type(self) -> np.dtype:
        native = np.dtype(np.intp)
        return native if native.itemsize << self.n <= NATIVE_ROWS_BYTES \
            else np.dtype(np.uint8)

    @property
    def nbytes(self) -> int:
        """Bytes of the sign table: its rows and the row of each amplitude."""
        return self.rows.nbytes + (self._row_type().itemsize << self.n)

    def build_rows(self) -> None:
        """The row of S that each amplitude j reads: bit b is the parity of
        (j ^ x) with the b-th basis mask."""
        flipped = np.arange(1 << self.n) ^ self.string.x
        row_of = np.zeros(1 << self.n, dtype=self._row_type())
        for b, mask in enumerate(self._basis):
            row_of |= (np.bitwise_count(flipped & mask) & 1) << b
        self.row_of = row_of

    def angles(self, theta: Sequence[float] | None) -> np.ndarray:
        """Phi on each distinct row of S."""
        if theta is None or self._top_slot >= len(theta):
            raise ValueError(f"gate needs parameter slot {self._top_slot}")
        phis = self.scales * np.asarray(theta, dtype=float)[self.slots]
        return self.rows @ phis

    def evolve(self, amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
        """cos Phi * amps + i sin Phi * P_0 amps, Phi = ``angles`` per row."""
        idx, phased = self.string.tables(amps.shape[0])
        return (np.cos(angles)[self.row_of] * amps
                + (1j * np.sin(angles))[self.row_of] * (phased * amps[idx]))

    def brackets(self, lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """<lam|P_k|psi> per string: S^T (conj(lam) * P_0 psi), summed per
        row of S first."""
        idx, phased = self.string.tables(psi.shape[0])
        products = lam.conj() * (phased * psi[idx])
        count = len(self.rows)
        sums = (np.bincount(self.row_of, products.real, count)
                + 1j * np.bincount(self.row_of, products.imag, count))
        return sums @ self.rows


def _spans(gates: Sequence[Gate], n: int) -> tuple[int | CommutingRun, ...]:
    """The gates in order: each maximal stretch of two or more consecutive
    slotted ``exp`` gates on strings that share an X mask and commute is
    one CommutingRun, every other gate its position. With one X mask,
    commuting with the first string is commuting pairwise. A stretch whose
    z differences would span more than RUN_RANK masks is cut there."""
    spans: list[int | CommutingRun] = []
    stretch: list[int] = []
    echelon: dict[int, int] = {}

    def close():
        if len(stretch) > 1:
            spans.append(CommutingRun([gates[p] for p in stretch],
                                      stretch[0], n))
        else:
            spans.extend(stretch)
        stretch.clear()
        echelon.clear()

    for position, gate in enumerate(gates):
        if gate.kind != "exp" or gate.slot is None:
            close()
            spans.append(position)
            continue
        if stretch:
            first = gates[stretch[0]].string
            new = gate.string.z ^ first.z
            while new and (top := new.bit_length() - 1) in echelon:
                new ^= echelon[top]
            if (gate.string.x != first.x or not commutes(gate.string, first)
                    or (new and len(echelon) == RUN_RANK)):
                close()
            elif new:
                echelon[new.bit_length() - 1] = new
        stretch.append(position)
    close()
    return tuple(spans)


class CompiledCircuit:
    """Gates resolved once into kernels over an n-qubit register.

    Compiling validates every target and fixes each gate's support, its Pauli
    strings and one bit mask per control or T qubit, shared by the gates on
    it; running resolves the angles against ``theta`` and calls the kernels,
    which read Pauli tables from the shared ``STRING_TABLES``. A kernel acts
    on one register or on each row of a (rows, 2^n) block alike, and never
    modifies its input array. ``generators`` holds each gate's (w, P) or
    None.

    ``spans`` lists the kernels ``run`` applies: a gate position, for the
    gate's own kernel, or a CommutingRun, for a stretch of commuting ``exp``
    gates applied as one phase-and-gather. The runs are grouped, and their
    sign tables built, on first use, after the tables' bytes are checked
    against BYTE_BUDGET. Noisy trajectories (``trajectories``) apply every
    gate's own kernel, because kicks land between gates, and never group
    runs; the kicked ones share each call as the rows of one block.
    """

    def __init__(self, gates: Sequence[Gate], n: int):
        self.gates = tuple(gates)
        self.n = n
        ones = functools.cache(lambda q: (np.arange(1 << n) >> q) & 1 == 1)
        compiled = [_compile_gate(gate, n, ones) for gate in self.gates]
        self.supports = tuple(support for support, *_ in compiled)
        self._kernels = [(kernel, resolve) for _, kernel, _, resolve, _ in compiled]
        self._inverses = [inverse for _, _, inverse, _, _ in compiled]
        self.generators = tuple(generator for *_, generator in compiled)

    @functools.cached_property
    def n_params(self) -> int:
        """``_slot_count`` of the gates, counted once (a ValueError each time
        while the slots are not dense)."""
        return _slot_count(self.gates)

    @functools.cached_property
    def spans(self) -> tuple[int | CommutingRun, ...]:
        """The kernels ``run`` applies (``_spans``), grouped on first use,
        with every run's sign table built once their bytes are checked."""
        spans = _spans(self.gates, self.n)
        runs = [span for span in spans if isinstance(span, CommutingRun)]
        check_bytes(sum(run.nbytes for run in runs),
                    f"the sign tables of {len(runs)} gate runs on "
                    f"{self.n} qubits")
        for run in runs:
            run.build_rows()
        return spans

    def run(self, theta: Sequence[float] | None, amps: np.ndarray) -> np.ndarray:
        """Amplitudes after every gate, starting from ``amps``."""
        for span in self.spans:
            if isinstance(span, CommutingRun):
                amps = span.evolve(amps, span.angles(theta))
            else:
                kernel, resolve = self._kernels[span]
                amps = kernel(amps, resolve and resolve(theta))
        return amps

    def undo(self, index: int, theta: Sequence[float] | None,
             amps: np.ndarray) -> np.ndarray:
        """Amplitudes after the inverse of gate ``index``."""
        resolve = self._kernels[index][1]
        return self._inverses[index](amps, resolve and resolve(theta))

    def trajectories(self, theta: Sequence[float] | None,
                     kicks: Sequence[Sequence[tuple[int, PauliString]]],
                     psi0: StateVector | None = None
                     ) -> Iterator[tuple[list[int], StateVector]]:
        """Final state of every trajectory, given its kicks in circuit order.

        A kick (g, P) applies the Pauli P right after gate g. The kicked
        trajectories, sorted stably by the gate of their first kick, run in
        lockstep as the rows of one (rows, 2^n) block: a row joins as a copy
        of the noiseless amplitudes right after that gate, and each gate's
        kernel runs once on every joined row before the gate's kicks land on
        their rows, in kick order. A block holds at most
        TRAJECTORY_BLOCK_BYTES of amplitudes (one row at least); each is
        allocated afresh, so yielded states stay as they were. The noiseless
        amplitudes advance beside the block, and all error-free trajectories
        share their final state. Yields (trajectory indices, state) once per
        distinct final state: the kicked trajectories one by one in
        (first-kick gate, index) order, then the error-free group.
        """
        kicked = sorted((k for k, events in enumerate(kicks) if events),
                        key=lambda k: kicks[k][0][0])
        angles = [resolve and resolve(theta) for _, resolve in self._kernels]
        amps = StateVector.zero(self.n).amplitudes if psi0 is None \
            else psi0.amplitudes
        done = 0  # gates the noiseless amplitudes have passed
        rows = max(1, TRAJECTORY_BLOCK_BYTES // (AMPLITUDE_BYTES << self.n))
        for start in range(0, len(kicked), rows):
            chunk = kicked[start:start + rows]
            joins = [kicks[k][0][0] for k in chunk]
            errors: dict[int, list[tuple[int, PauliString]]] = {}
            for row, k in enumerate(chunk):
                for index, error in kicks[k]:
                    errors.setdefault(index, []).append((row, error))
            block = np.empty((len(chunk), 1 << self.n), dtype=complex)
            joined = 0
            # a chunk may start at the gate where the previous one ended
            for index in range(min(done, joins[0]), len(self._kernels)):
                kernel, phi = self._kernels[index][0], angles[index]
                if joined:
                    block[:joined] = kernel(block[:joined], phi)
                if joined < len(chunk):
                    if index == done:
                        amps, done = kernel(amps, phi), index + 1
                    while joined < len(chunk) and joins[joined] == index:
                        block[joined] = amps
                        joined += 1
                for row, error in errors.get(index, ()):
                    block[row] = error.apply(block[row])
            for row, k in enumerate(chunk):
                yield [k], StateVector(block[row], self.n)
        error_free = [k for k, events in enumerate(kicks) if not events]
        if error_free:
            for index in range(done, len(self._kernels)):
                amps = self._kernels[index][0](amps, angles[index])
            yield error_free, StateVector(amps, self.n)


def compile_circuit(circuit: Circuit, n: int | None = None) -> CompiledCircuit:
    """Compile for an n-qubit register, by default the circuit's own."""
    return CompiledCircuit(circuit.gates, circuit.n_qubits if n is None else n)


def apply_gate(psi: StateVector, gate: Gate,
               theta: Sequence[float] | None = None) -> StateVector:
    """Return the state after one gate; ``psi`` is not modified."""
    return StateVector(CompiledCircuit([gate], psi.n).run(theta, psi.amplitudes),
                       psi.n)


def run_circuit(circuit: Circuit, theta: Sequence[float] | None = None,
                psi0: StateVector | None = None) -> StateVector:
    """Noiseless execution starting from |0...0> or a supplied state."""
    psi = StateVector.zero(circuit.n_qubits) if psi0 is None else psi0.copy()
    return StateVector(compile_circuit(circuit, psi.n).run(theta, psi.amplitudes),
                       psi.n)


# ------------------------------------------------------------- time evolution


def trotter_evolve(psi: StateVector, h: PauliSum, t: float,
                   steps: int) -> StateVector:
    """First-order product formula for exp(-iHt) in canonical term order."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("evolution generator must be Hermitian")
    if h.n_qubits > psi.n:
        raise BadTarget(f"generator acts on {h.n_qubits} qubits, state has {psi.n}")
    return StateVector(_product_formula(psi.amplitudes, h, t, steps), psi.n)


def _product_formula(amps: np.ndarray, h: PauliSum, t: float,
                     steps: int) -> np.ndarray:
    """``trotter_evolve``'s product formula on the last axis, unchecked."""
    dt = t / steps
    terms = [(_exp_kernel(string, amps.shape[-1]), -coeff.real * dt)
             for string, coeff in h.items()]
    for _ in range(steps):
        for kernel, phi in terms:
            amps = kernel(amps, phi)
    return amps


def adiabatic_prepare(h0: PauliSum, hs: PauliSum, total_time: float,
                      steps: int, psi0: StateVector) -> StateVector:
    """Piecewise-constant sweep along H(s) = (1-s) H0 + s Hs."""
    if total_time == 0 or steps == 0:
        return psi0.copy()
    dt = total_time / steps
    psi = psi0
    for k in range(steps):
        s = (k + 0.5) / steps
        psi = trotter_evolve(psi, (1.0 - s) * h0 + s * hs, dt, 1)
    return psi


def imaginary_time_evolve(psi: StateVector, h: PauliSum, tau: float,
                          steps: int) -> StateVector:
    """Normalized exp(-H tau)|psi> in ``steps`` normalized steps, each scaling
    the eigen-components of psi by exp(-lambda tau / steps)."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("imaginary-time generator must be Hermitian")
    check_bytes(EIGH_MATRICES * matrix_bytes(psi.n),
                f"the {psi.n}-qubit imaginary-time eigenbasis")
    energies, vectors = hermitian_eigh(to_matrix(h, psi.n))
    decay = np.exp(-energies * (tau / steps))
    amps = vectors.conj().T @ psi.amplitudes
    for _ in range(steps):
        amps = decay * amps
        norm = np.linalg.norm(amps)
        if norm < OVERLAP_FLOOR:
            raise ZeroOverlap("propagated state has no weight left")
        amps = amps / norm
    return StateVector(vectors @ amps, psi.n)


# -------------------------------------------------------------------- sampling


@dataclass(frozen=True)
class ShotEstimate:
    """Sample mean of a Hamiltonian average with its standard error."""

    mean: float
    std_error: float
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


def _sampled_means(psi: StateVector, h: PauliSum, shots_per_term: int,
                   rng: np.random.Generator, count: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Means of ``count`` sampled runs of <h>, and the (terms, count) +-1
    means of its terms, exactly 1 for an identity term (no mask bits). Every
    <P_t> is read off one block of products (``string_actions``); the counts
    of every measured term and run are one draw, term-major."""
    if shots_per_term < 1:
        raise ValueError("shots_per_term must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("sampling requires a Hermitian sum")
    amps = psi.amplitudes
    measured = (h.x | h.z) != 0
    p_plus = np.clip([(1.0 + np.vdot(amps, action).real) / 2.0 for action, m
                      in zip(string_actions(h, amps), measured) if m], 0.0, 1.0)
    ups = rng.binomial(shots_per_term, np.repeat(p_plus, count))
    term_means = np.ones((len(h), count))
    term_means[measured] = 2.0 * ups.reshape(-1, count) / shots_per_term - 1.0
    # Running sums add the rows one by one from 0.0; a reduction may pair them.
    weighted = np.zeros((len(h) + 1, count))
    weighted[1:] = h.coeffs.real[:, None] * term_means
    return np.cumsum(weighted, axis=0)[-1], term_means


def sample_expectation(psi: StateVector, h: PauliSum, shots_per_term: int,
                       rng: np.random.Generator) -> ShotEstimate:
    """Per-term projective measurement statistics combined linearly.

    Each non-identity term is measured in its own rotated basis; a bitstring
    sample maps to an eigenvalue +-1 with P(+1) = (1 + <P>)/2, so the counts
    are drawn from the exactly equivalent binomial law, one draw for all
    terms (``_sampled_means``); an identity term's mean 1 adds no variance.
    """
    means, term_means = _sampled_means(psi, h, shots_per_term, rng, 1)
    variance = 0.0
    if shots_per_term > 1:
        for weight, term_mean in zip(h.coeffs.real.tolist(),
                                     term_means[:, 0].tolist()):
            sample_var = ((1.0 - term_mean ** 2)
                          * shots_per_term / (shots_per_term - 1))
            variance += weight ** 2 * sample_var / shots_per_term
    return ShotEstimate(means.item(), math.sqrt(variance), shots_per_term)


def sample_means(psi: StateVector, h: PauliSum, shots_per_term: int,
                 rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` independent ``sample_expectation`` means on one state: run
    k's mean equals ``sample_expectation``'s mean for run k's counts bit for
    bit, since both are accumulated by ``_sampled_means``."""
    return _sampled_means(psi, h, shots_per_term, rng, count)[0]


# ----------------------------------------------------------------------- noise


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing strengths keyed by gate arity."""

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("error probabilities must lie in [0, 1]")

    def rate_for(self, arity: int) -> float:
        """A gate on no qubits (a global phase) takes no noise."""
        if arity == 0:
            return 0.0
        return self.p1 if arity == 1 else self.p2


def _error_string(support: tuple[int, ...], code: int) -> PauliString:
    """Pauli number ``code`` of the 4^k on ``support``, two bits a qubit."""
    x = z = 0
    for q in support:
        digit = code & 3
        code >>= 2
        if digit in (1, 3):
            x |= 1 << q
        if digit in (2, 3):
            z |= 1 << q
    return PauliString(x, z)


def depolarizing_kicks(supports: Sequence[tuple[int, ...]], noise: NoiseModel,
                       rng: np.random.Generator, count: int
                       ) -> list[Sequence[tuple[int, PauliString]]]:
    """Kicks of ``count`` depolarized trajectories, in circuit order.

    One ``rng.random((count, G))`` block holds every trajectory's uniform for
    each of the G noisy gates, in circuit order; a uniform below its gate's
    rate is a hit. One ``rng.integers(1, 4^k)`` call then draws every hit's
    code among the 4^k - 1 non-identity Paulis on the gate's k support
    qubits, in row-major order of the hits. Error-free trajectories share
    one empty kick list.
    """
    noisy = [(index, support, rate) for index, support in enumerate(supports)
             if (rate := noise.rate_for(len(support))) > 0]
    rates = np.array([rate for *_, rate in noisy])
    highs = np.array([4 ** len(support) for _, support, _ in noisy],
                     dtype=np.int64)
    rows, columns = np.nonzero(rng.random((count, len(noisy))) < rates)
    codes = rng.integers(1, highs[columns])
    events = [(noisy[column][0], _error_string(noisy[column][1], code))
              for column, code in zip(columns.tolist(), codes.tolist())]
    return kick_lists(rows.tolist(), events, count)


def kick_lists(rows: Sequence[int], events: Sequence[tuple[int, PauliString]],
               count: int) -> list[Sequence[tuple[int, PauliString]]]:
    """One kick list per trajectory from events sorted by trajectory (row),
    each row's in circuit order; rows without events share one empty tuple."""
    kicks: list[Sequence[tuple[int, PauliString]]] = [()] * count
    for row, event in zip(rows, events):
        if not kicks[row]:
            kicks[row] = []
        kicks[row].append(event)
    return kicks


def noisy_states(circuit: Circuit, theta: Sequence[float] | None,
                 noise: NoiseModel, rng: np.random.Generator, count: int,
                 psi0: StateVector | None = None
                 ) -> Iterator[tuple[list[int], StateVector]]:
    """``count`` depolarized trajectories drawn from one stream, as
    (trajectory indices, normalized final state) per distinct final state.

    Every trajectory's errors are drawn as one block before any state is
    evolved (``depolarizing_kicks``); the kicked trajectories then advance
    through each gate together as one block, beside the noiseless run that
    the error-free ones share (``CompiledCircuit.trajectories``).
    """
    compiled = compile_circuit(circuit, None if psi0 is None else psi0.n)
    kicks = depolarizing_kicks(compiled.supports, noise, rng, count)
    for members, psi in compiled.trajectories(theta, kicks, psi0):
        yield members, psi.renormalized()


def run_noisy_trajectory(circuit: Circuit, theta: Sequence[float] | None,
                         noise: NoiseModel, rng: np.random.Generator,
                         psi0: StateVector | None = None) -> StateVector:
    """One stochastic-unravelling sample of the depolarized circuit."""
    ((_, psi),) = noisy_states(circuit, theta, noise, rng, 1, psi0)
    return psi


# ------------------------------------------------------------ phase estimation


@dataclass(frozen=True)
class EnergyWindow:
    """Affine map [lower, upper) -> [0, 1) applied before phase readout."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError("window must have positive width")

    @property
    def span(self) -> float:
        return self.upper - self.lower

    def to_phase(self, energy: float) -> float:
        return (energy - self.lower) / self.span

    def to_energy(self, phase: float) -> float:
        return self.lower + self.span * phase


def default_window(h: PauliSum) -> EnergyWindow:
    """Gershgorin-style bound: identity coefficient plus the 1-norm of the rest."""
    center = h.coeff("I").real
    radius = sum(map(abs, h.coeffs[(h.x | h.z) != 0].tolist()))
    if radius == 0.0:
        return EnergyWindow(center - 0.5, center + 0.5)
    return EnergyWindow(center - radius, center + radius + 1e-9 * radius)


# Joint registers QPE holds at once: the register and, at the Fourier step,
# its transform and their squared magnitudes; under Trotter steps, the
# register, the selected block of rows and a kernel's working arrays on it
# (tracemalloc, 2 + 12 to 10 + 10 qubits: at most 3.1 beside eigh's 2.0
# matrices, 3.7 Trotterized).
QPE_REGISTERS = 4


def qpe_bytes(n_sys: int, n_ancilla: int, trotter_steps: int) -> int:
    """Bytes ``qpe_distribution`` holds at most: the joint registers and, for
    ``trotter_steps`` = 0, the system's dense eigendecomposition. Each
    stage's peak is counted as if all were live together, an upper bound."""
    dim_a, dim_s = 1 << n_ancilla, 1 << n_sys
    amplitudes = QPE_REGISTERS * dim_a * dim_s
    if trotter_steps == 0:
        amplitudes += EIGH_MATRICES * dim_s * dim_s
    return AMPLITUDE_BYTES * amplitudes


def qpe_distribution(psi: StateVector, h: PauliSum, n_ancilla: int,
                     trotter_steps: int = 0,
                     window: EnergyWindow | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla readout distribution: (energy estimate per bin, probability).

    ``trotter_steps`` = 0 evolves exactly in the scaled H's eigenbasis, which
    leaves the readout's sum over the system axis unchanged: row x holds
    component j times exp(-2 pi i x phi_j). Positive values Trotterize each
    controlled power with that many steps.
    """
    if not h.is_hermitian():
        raise NonHermitian("phase estimation requires a Hermitian sum")
    if n_ancilla < 1:
        raise ValueError("need at least one ancilla")
    n_sys = psi.n
    check_bytes(qpe_bytes(n_sys, n_ancilla, trotter_steps),
                f"phase estimation on {n_sys} + {n_ancilla} qubits")
    if window is None:
        window = default_window(h)
    scaled = (h - PauliSum.identity(window.lower, n_qubits=n_sys)) * (1.0 / window.span)

    dim_a = 1 << n_ancilla
    rows = np.arange(dim_a)
    if trotter_steps == 0:
        phases, vectors = hermitian_eigh(to_matrix(scaled, n_sys))
        components = vectors.conj().T @ psi.amplitudes / math.sqrt(dim_a)
        joint = np.exp(-2j * math.pi * np.outer(rows, phases)) * components
    else:
        # Rows index the ancilla register; Hadamards put it in the uniform
        # state, and the rows whose bit k is set evolve by the k-th power.
        joint = np.tile(psi.amplitudes / math.sqrt(dim_a), (dim_a, 1))
        for k in range(n_ancilla):
            selected = (rows >> k) & 1 == 1
            joint[selected] = _product_formula(
                joint[selected], scaled, 2.0 * math.pi * (1 << k), trotter_steps)

    transformed = np.fft.fft(joint, axis=0, norm="ortho")
    probabilities = np.sum(np.abs(transformed) ** 2, axis=1)
    probabilities = probabilities / probabilities.sum()
    return window.to_energy(((dim_a - rows) % dim_a) / dim_a), probabilities


def qpe_sample(psi: StateVector, h: PauliSum, n_ancilla: int,
               trotter_steps: int, rng: np.random.Generator,
               window: EnergyWindow | None = None) -> float:
    """One ancilla measurement converted back to an energy estimate."""
    energies, probabilities = qpe_distribution(
        psi, h, n_ancilla, trotter_steps, window)
    index = int(rng.choice(len(probabilities), p=probabilities))
    return float(energies[index])
