"""State simulation: bit-planes for compiled circuits, dense for the rest.

Two simulators share one circuit type.

* ``circuit_planes`` and ``world_weights`` simulate the circuits qrbs
  builds: uncontrolled M gates on fresh qubits, then only X with 0-2
  controls. The M layer leaves one basis state per world of its k qubits,
  and every later gate permutes basis states (Bennett 1973), so the state
  is a weight per world plus, for each qubit, a plane of 2^k bits held in
  one Python int, one bit per world. ``world_weights`` turns the k M angles
  into the 2^k weights, and ``circuit_planes`` turns the circuit into the
  planes. The planes do not depend on the M angles, so a program compiled
  once can be weighted for many rows of angles. ``truth_table_check`` and
  ``rq_gate_demo`` use them; cost and memory grow with 2^k, not 2^n.
* ``plane_marginals`` gives a compiled program's exact goal marginal: the
  weight of the worlds where one plane reads 1, for many rows of M angles
  at once. The weights are a Kronecker product of one factor pair per M
  gate, so it never builds them: it sums two factors of about 2^(k/2)
  entries each under the plane.
* ``run`` is the dense 2^n state vector for any circuit, H/S/T/Z
  included, with ``init_zero``, ``apply``, ``marginal_prob_one`` and
  ``sample`` around it.

Conventions:

* qubit 0 is the least significant bit of the basis index, so the basis
  state written |b_{n-1} ... b_1 b_0> has index sum(b_k << k);
* bit i of a world index is the value of the i-th M gate's qubit, and bit
  w of a plane is the qubit's value in world w;
* histogram bitstrings use the same order, qubit n-1 leftmost;
* controls fire on bit value 1 only (control-on-0 is expressed with X
  sandwiches by the compiler);
* ``run`` updates one copy of the initial state in place, viewed as a
  (2,)*n array whose axis n-1-q is qubit q;
* register sampling (``sample`` and ``rq_gate_demo``'s shots) draws
  whole-register outcomes with numpy's seeded PCG64 generator (128-bit
  state), so a (state, shots, seed) triple always reproduces the same
  histogram; it costs one draw per shot, so it stops at
  MAX_SAMPLED_SHOTS. Shot inference on a compiled program does not sample
  the register: it draws one seeded Binomial(shots, p) count of ones on the
  measured goal qubit from the standard library's generator
  (``inference.infer_shots``).

Circuits are capped at 24 qubits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gates import Gate, matrix_of

MAX_QUBITS = 24
MAX_SHOTS = 2**63 - 1  # the largest int64: every shot count fits one
SAMPLE_CHUNK = 1 << 20
# Register sampling spends about 29 ns per shot (2.9 s for 10^8 shots on a
# 2.1 GHz Xeon): a few seconds at this budget, millennia at MAX_SHOTS.
MAX_SAMPLED_SHOTS = 10**8


class BudgetError(RuntimeError):
    """The program needs more qubits, assignments or shots than supported."""


class CircuitOp(NamedTuple):
    """One gate application: ``gate`` on ``target``, gated by 0-2 controls.

    A plain record: the ``Circuit`` that holds it checks it.
    """

    gate: Gate
    target: int
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class Circuit:
    """``ops`` on ``n_qubits`` qubits, read out on ``measured_qubit``.

    Every op is checked here, once: at most two controls, none repeated,
    the target not among them, and every qubit in range.
    """

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    measured_qubit: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        n = self.n_qubits
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        for _, target, controls in self.ops:
            if len(controls) > 2:
                raise ValueError("at most two controls are supported")
            if len(set(controls)) != len(controls):
                raise ValueError("duplicate control qubit")
            if target in controls:
                raise ValueError("target qubit cannot also be a control")
            for q in (target, *controls):
                _check_qubit(q, n)
        _check_qubit(self.measured_qubit, n)


@dataclass
class StateVector:
    """2**n_qubits complex amplitudes; treat instances as immutable."""

    n_qubits: int
    amps: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class ShotHistogram:
    shots: int
    seed: int
    counts: dict[str, int]


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def init_zero(n: int) -> StateVector:
    """All-|0> register of n qubits, 1 <= n <= 24."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def apply(state: StateVector, op: CircuitOp) -> StateVector:
    """Apply one (possibly controlled) gate, returning a new state."""
    return run(Circuit(state.n_qubits, (op,), measured_qubit=op.target), state)


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply circuit.ops in list order to a copy of the initial state.

    The copy is viewed as a (2,)*n array whose axis n-1-q is qubit q. Each
    gate's 2x2 matrix updates, in place, the target amplitude pairs of every
    basis state whose control bits are all 1; other amplitudes pass through.
    """
    n = circuit.n_qubits
    if initial.n_qubits != n:
        raise ValueError(f"state has {initial.n_qubits} qubits, circuit needs {n}")
    amps = np.array(initial.amps, dtype=complex)
    tensor = amps.reshape((2,) * n)
    for op in circuit.ops:
        # slices, not ints, so that lo and hi stay views even when every
        # axis is fixed
        index = [slice(None)] * n
        for c in op.controls:
            index[n - 1 - c] = slice(1, 2)
        index[n - 1 - op.target] = slice(0, 1)
        lo = tensor[tuple(index)]
        index[n - 1 - op.target] = slice(1, 2)
        hi = tensor[tuple(index)]
        u = matrix_of(op.gate)
        lo[...], hi[...] = u[0, 0] * lo + u[0, 1] * hi, u[1, 0] * lo + u[1, 1] * hi
    return StateVector(n, amps)


def marginal_prob_one(state: StateVector, qubit: int) -> float:
    """Probability that measuring ``qubit`` yields bit 1."""
    _check_qubit(qubit, state.n_qubits)
    ones = state.amps.reshape(-1, 2, 2**qubit)[:, 1, :]
    return float(np.sum(np.abs(ones) ** 2))


def check_shots(shots: int) -> None:
    """Reject shot counts outside [1, MAX_SHOTS]."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")


def check_seed(seed: int) -> None:
    """Reject negative seeds. ``random.Random`` would seed with abs(seed),
    so -s would quietly repeat the draws of s."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _draw_counts(weights: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts per index of ``shots`` seeded draws weighted by ``weights``.

    Draws are made in chunks of SAMPLE_CHUNK, so memory does not grow with
    the shot count. ``Generator.choice`` spends one double per draw, so the
    counts equal those of a single call of ``shots`` draws. Time does grow
    with it, so more than MAX_SAMPLED_SHOTS shots raise BudgetError.
    """
    check_shots(shots)
    check_seed(seed)
    if shots > MAX_SAMPLED_SHOTS:
        raise BudgetError(
            f"sampling {shots} shots exceeds the register-sampling budget "
            f"of {MAX_SAMPLED_SHOTS}"
        )
    rng = np.random.default_rng(seed)
    probs = weights / weights.sum()  # absorb <=1e-9 norm drift
    counts = np.zeros(probs.size, dtype=np.int64)
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.choice(probs.size, size=min(SAMPLE_CHUNK, shots - start), p=probs)
        counts += np.bincount(draws, minlength=probs.size)
    return counts


def sample(state: StateVector, shots: int, seed: int) -> ShotHistogram:
    """Draw ``shots`` basis states from the squared-amplitude distribution."""
    counts = _draw_counts(np.abs(state.amps) ** 2, shots, seed)
    width = state.n_qubits
    return ShotHistogram(
        shots=shots,
        seed=seed,
        counts={
            format(int(v), f"0{width}b"): int(counts[v]) for v in np.flatnonzero(counts)
        },
    )


def world_weights(thetas: Sequence[float]) -> np.ndarray:
    """Probability of each world of k qubits prepared by M(thetas[i]) on |0>.

    ``weights[w]`` (float64, 2^k) is the product over i of cos^2(thetas[i])
    if bit i of w is 1, else sin^2(thetas[i]). It depends on the angles
    alone; ``circuit_planes`` gives the planes that go with them.
    """
    n_worlds = 1 << len(thetas)
    weights = np.empty(n_worlds)
    weights[0] = 1.0
    for i, theta in enumerate(thetas):
        # M(theta)|0> = sin(theta)|0> + cos(theta)|1>: double the amplitudes
        size = 1 << i
        np.multiply(weights[:size], math.cos(theta), out=weights[size : 2 * size])
        weights[:size] *= math.sin(theta)
    weights *= weights  # amplitudes are real: squaring gives probabilities
    return weights


def circuit_planes(circuit: Circuit) -> list[int]:
    """Qubit bit-planes of an M-then-permutation circuit.

    The circuit must open with uncontrolled M gates on distinct qubits and
    then apply only X with 0-2 controls; any other op raises ValueError.
    The ops after the M layer are checked as they are applied, in one pass.
    With k M gates, ``planes[q]`` is an int whose bit w is qubit q's bit in
    world w's final basis state, so a plane takes 2^k / 8 bytes; bit i of w
    is the value of the i-th M gate's qubit. X is ``t ^= full`` (all 2^k
    bits set), CN ``t ^= c`` and CCN ``t ^= a & b``. The planes do not
    depend on the M angles.
    """
    ops = circuit.ops
    prepared: list[int] = []  # qubit of the i-th M gate
    for i, op in enumerate(ops):
        if op.gate.name != "M":
            break
        if op.controls:
            raise ValueError(f"op {i}: M on q{op.target} has controls {op.controls}")
        if op.target in prepared:
            raise ValueError(f"op {i}: M on q{op.target}, which is already prepared")
        prepared.append(op.target)
    k = len(prepared)
    n_worlds = 1 << k
    planes = [0] * circuit.n_qubits
    for i, q in enumerate(prepared):
        # bit i of w is 1 in worlds [size, 2 * size) of every 2 * size; double
        # that period until it spans all worlds
        size = 1 << i
        plane = ((1 << size) - 1) << size
        period = 2 * size
        while period < n_worlds:
            plane |= plane << period
            period *= 2
        planes[q] = plane
    full = (1 << n_worlds) - 1
    for i, (gate, target, controls) in enumerate(ops[k:], start=k):
        if gate.name != "X":
            raise ValueError(
                f"op {i}: {gate!r} on q{target} after the M layer; "
                "only X, CN and CCN may follow it"
            )
        if not controls:
            planes[target] ^= full
        elif len(controls) == 1:
            planes[target] ^= planes[controls[0]]
        else:
            a, b = controls
            planes[target] ^= planes[a] & planes[b]
    return planes


@functools.cache
def _factor_index(k: int) -> np.ndarray:
    """Where ``plane_marginals`` reads each world's factors, for k M gates.

    A row of factors holds sin^2 theta_i in column i, 1 - sin^2 theta_i in
    column k + i, and 1.0 in column 2k. Of the k facts, the low half has
    a = k // 2 and the high half m = k - a. Entry [0, l, j] is the column of
    fact j's factor in low world l, and [1, h, j] that of fact a + j in high
    world h, so both halves are (2^m, m). For odd k the low half's last
    column is the 1.0: its entries from 2^a on repeat the first 2^a and are
    never read. The array is read-only, as the cache shares it.
    """
    a, m = k // 2, k - k // 2
    facts = np.arange(m)
    bits = np.arange(1 << m)[:, None] >> facts & 1
    low = np.where(facts < a, facts + k * bits, 2 * k)
    index = np.stack((low, a + facts + k * bits))
    index.setflags(write=False)
    return index


def plane_marginals(plane: int, thetas: Sequence[Sequence[float]] | np.ndarray
                    ) -> np.ndarray:
    """Weight of the worlds where ``plane`` reads 1, for each row of angles.

    ``thetas`` holds R >= 1 rows, as nested sequences or an (R, k) array.
    A row holds the angles of the k M gates, in gate order. Bit w of the
    plane is its value in world w, whose weight is the product over i of
    cos^2 theta_i if bit i of w is 1, else sin^2 theta_i; cos^2 is taken as
    1 - sin^2, so that theta = pi/2 weighs bit 1 at exactly 0. The 2^k
    weights are a Kronecker product and are never built. A world index
    splits into its low a = k // 2 bits, l, and its high bits, h, so
    weight[h * 2^a + l] = high[h] * low[l], where low and high are the
    products over each half's facts, taken in fact order.
    The plane is unpacked once into a (2^(k - a), 2^a) bool mask, one byte
    a world. For every row, np.add.reduce with where=mask sums the low
    factor over each mask row, through a view that repeats the factor
    without copying it, and those sums are dotted with the high factor.
    No R x 2^k array and no float copy of the mask is made: memory is the
    2^k-byte mask plus O(R k 2^(k/2)). The rows do not interact, so each
    row's value is the same bits whatever rows come with it. Returns a
    float64 array of the R marginals.
    """
    thetas = np.asarray(thetas, dtype=float)
    n_rows, k = thetas.shape
    factors = np.empty((n_rows, 2 * k + 1))
    sin2 = factors[:, :k]
    np.sin(thetas, out=sin2)
    sin2 *= sin2  # M(theta)|0> has real amplitudes (sin, cos)
    # cos^2 as 1 - sin^2: cos(pi/2) is 6.1e-17 in floating point, not 0,
    # while sin(pi/2) is 1, so a fact at disbelief 100 weighs 0 on bit 1
    np.subtract(1.0, sin2, out=factors[:, k:-1])
    factors[:, -1] = 1.0
    # tables[r, 0] is row r's low factor, tables[r, 1] its high factor
    tables = np.multiply.reduce(factors.take(_factor_index(k), axis=1), axis=3)
    n_worlds = 1 << k
    packed = np.frombuffer(plane.to_bytes((n_worlds + 7) // 8, "little"), dtype=np.uint8)
    mask = np.unpackbits(packed, count=n_worlds, bitorder="little").view(bool)
    mask = mask.reshape(-1, 1 << k // 2)
    # each row's low factor, repeated for every high world by a zero stride
    low = np.ndarray((n_rows, *mask.shape), buffer=tables,
                     strides=(tables.strides[0], 0, tables.strides[2]))
    under = np.add.reduce(low, axis=2, where=mask)
    under *= tables[:, 1]
    return np.add.reduce(under, axis=1)
