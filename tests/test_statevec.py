import itertools
import math
import random
import re

import numpy as np
import pytest

from helpers import random_ruleset
from qrbs import statevec
from qrbs.compiler import BudgetError, compile_ruleset
from qrbs.gates import H, M, S, T, X, Z, matrix_of
from qrbs.reference import TABLE8, demo_ruleset
from qrbs.statevec import (
    MAX_SHOTS,
    SAMPLE_CHUNK,
    Circuit,
    CircuitOp,
    StateVector,
    apply,
    circuit_planes,
    init_zero,
    marginal_prob_one,
    plane_marginals,
    run,
    sample,
    world_weights,
)

SQRT2_INV = 1 / math.sqrt(2.0)


def test_init_zero():
    assert np.array_equal(init_zero(1).amps, [1, 0])
    assert np.array_equal(init_zero(2).amps, [1, 0, 0, 0])


@pytest.mark.parametrize("n", [0, -1, 25])
def test_init_zero_guards(n):
    with pytest.raises(ValueError):
        init_zero(n)


def test_apply_x_flips_basis_state():
    state = apply(init_zero(1), CircuitOp(X, 0))
    assert np.array_equal(state.amps, [0, 1])


def test_apply_h_makes_even_superposition():
    state = apply(init_zero(1), CircuitOp(H, 0))
    assert abs(state.amps[0]) == pytest.approx(SQRT2_INV, abs=1e-12)
    assert abs(state.amps[1]) == pytest.approx(SQRT2_INV, abs=1e-12)


def test_toffoli_truth_table_entry():
    # |110> in q2 q1 q0 order is index 6 (q0=0, q1=1, q2=1)
    state = init_zero(3)
    state = apply(state, CircuitOp(X, 1))
    state = apply(state, CircuitOp(X, 2))
    state = apply(state, CircuitOp(X, 0, controls=(1, 2)))
    assert np.argmax(np.abs(state.amps)) == 7
    assert abs(state.amps[7]) == pytest.approx(1.0, abs=1e-12)


def test_control_does_not_fire_on_zero():
    state = apply(init_zero(2), CircuitOp(X, 1, controls=(0,)))
    assert np.array_equal(state.amps, [1, 0, 0, 0])


def test_op_validation():
    # an op is a plain record: the Circuit that holds it checks it
    with pytest.raises(ValueError, match="target qubit cannot also be a control"):
        Circuit(4, (CircuitOp(X, 0, controls=(0,)),), measured_qubit=0)
    with pytest.raises(ValueError, match="duplicate control qubit"):
        Circuit(4, (CircuitOp(X, 0, controls=(1, 1)),), measured_qubit=0)
    with pytest.raises(ValueError, match="at most two controls are supported"):
        Circuit(4, (CircuitOp(X, 0, controls=(1, 2, 3)),), measured_qubit=0)
    with pytest.raises(ValueError):
        apply(init_zero(1), CircuitOp(X, 1))


def test_circuit_validates_indices():
    with pytest.raises(ValueError):
        Circuit(1, (CircuitOp(X, 1),), measured_qubit=0)
    with pytest.raises(ValueError):
        Circuit(1, (), measured_qubit=1)


def test_run_empty_circuit_is_identity():
    initial = init_zero(2)
    final = run(Circuit(2, (), measured_qubit=0), initial)
    assert np.array_equal(final.amps, initial.amps)


def test_run_x_twice_is_identity():
    circuit = Circuit(1, (CircuitOp(X, 0), CircuitOp(X, 0)), measured_qubit=0)
    assert np.array_equal(run(circuit, init_zero(1)).amps, [1, 0])


def test_run_rejects_size_mismatch():
    with pytest.raises(ValueError):
        run(Circuit(2, (), measured_qubit=0), init_zero(1))


def test_marginal_of_imaginary_superposition():
    state = StateVector(1, np.array([1j * SQRT2_INV, SQRT2_INV]))
    assert marginal_prob_one(state, 0) == pytest.approx(0.5, abs=1e-12)


def test_marginal_of_basis_state():
    assert marginal_prob_one(apply(init_zero(1), CircuitOp(X, 0)), 0) == 1.0


def test_marginal_of_bell_state():
    state = apply(init_zero(2), CircuitOp(H, 0))
    state = apply(state, CircuitOp(X, 1, controls=(0,)))
    assert marginal_prob_one(state, 1) == pytest.approx(0.5, abs=1e-12)


def test_sample_deterministic_state():
    state = apply(init_zero(1), CircuitOp(X, 0))
    hist = sample(state, 100, seed=3)
    assert hist.counts == {"1": 100}


def test_sample_even_superposition_within_band():
    # binomial(8192, 0.5): the band [3960, 4232] holds ~99.74% of the mass
    # (exact tail 0.00256, computed by direct summation of binomial terms)
    state = apply(init_zero(1), CircuitOp(H, 0))
    hist = sample(state, 8192, seed=7)
    assert 3960 <= hist.counts["0"] <= 4232
    assert hist.counts["0"] + hist.counts["1"] == 8192


def test_sample_is_deterministic_per_seed():
    state = apply(init_zero(1), CircuitOp(H, 0))
    assert sample(state, 8192, seed=7) == sample(state, 8192, seed=7)
    assert sample(state, 512, seed=1).counts != sample(state, 512, seed=2).counts


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(init_zero(1), 0, seed=0)


def _random_op(rng, n_qubits, gate_pool):
    name = rng.choice(gate_pool)
    qubits = rng.choice(n_qubits, size=3, replace=False)
    if name == "CN":
        return CircuitOp(X, int(qubits[0]), controls=(int(qubits[1]),))
    if name == "CCN":
        return CircuitOp(X, int(qubits[0]), controls=(int(qubits[1]), int(qubits[2])))
    if name == "M":
        return CircuitOp(M(rng.uniform(0, math.pi)), int(qubits[0]))
    return CircuitOp({"X": X, "H": H, "S": S, "T": T, "Z": Z}[name], int(qubits[0]))


def test_random_circuits_preserve_norm():
    rng = np.random.default_rng(11)
    pool = ["X", "H", "S", "T", "Z", "M", "CN", "CCN"]
    for _ in range(25):
        n = int(rng.integers(3, 11))
        ops = tuple(_random_op(rng, n, pool) for _ in range(int(rng.integers(1, 51))))
        state = run(Circuit(n, ops, measured_qubit=0), init_zero(n))
        assert abs(state.norm_sq() - 1.0) <= 1e-9


def test_permutation_circuits_map_basis_to_basis():
    rng = np.random.default_rng(12)
    pool = ["X", "CN", "CCN"]
    for _ in range(25):
        n = int(rng.integers(3, 9))
        ops = tuple(_random_op(rng, n, pool) for _ in range(int(rng.integers(1, 40))))
        state = run(Circuit(n, ops, measured_qubit=0), init_zero(n))
        magnitudes = np.abs(state.amps)
        assert np.count_nonzero(magnitudes > 1e-12) == 1
        assert np.max(magnitudes) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_single_qubit_ops_commute():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = 4
        prep = tuple(CircuitOp(M(rng.uniform(0, math.pi)), q) for q in range(n))
        op_a = _random_op(rng, n, ["X", "H", "S", "T", "Z", "M"])
        op_b = _random_op(rng, n, ["X", "H", "S", "T", "Z", "M"])
        if op_a.target == op_b.target:
            continue
        base = run(Circuit(n, prep, measured_qubit=0), init_zero(n))
        ab = apply(apply(base, op_a), op_b)
        ba = apply(apply(base, op_b), op_a)
        assert np.max(np.abs(ab.amps - ba.amps)) <= 1e-12


def test_sampling_frequencies_track_probabilities():
    # 4-sigma guard per outcome so the test stays stable across seeds
    ops = (CircuitOp(H, 0), CircuitOp(M(0.9), 1), CircuitOp(X, 2, controls=(0, 1)))
    state = run(Circuit(3, ops, measured_qubit=2), init_zero(3))
    shots = 8192
    hist = sample(state, shots, seed=5)
    probs = np.abs(state.amps) ** 2
    for index, p in enumerate(probs):
        if p < 1e-12:
            continue
        observed = hist.counts.get(format(index, "03b"), 0) / shots
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(observed - p) <= 4 * sigma


def _dense_reference(n_qubits, op):
    """2^n x 2^n matrix of one op, assembled from np.kron products.

    The gate acts where every control is 1 and the identity acts elsewhere.
    Factors are written qubit n-1 leftmost, so qubit q is bit q of the index.
    """

    def kron_all(factors):
        out = np.eye(1)
        for q in reversed(range(n_qubits)):
            out = np.kron(out, factors.get(q, np.eye(2)))
        return out

    fired = {c: np.diag([0.0, 1.0]) for c in op.controls}
    return kron_all({**fired, op.target: matrix_of(op.gate)}) + (
        np.eye(2**n_qubits) - kron_all(fired)
    )


def test_run_matches_dense_kron_reference():
    rng = np.random.default_rng(21)
    catalog = [X, H, S, T, Z]
    for trial in range(60):
        n = int(rng.integers(1, 8))
        ops = []
        for _ in range(int(rng.integers(0, 16))):
            n_controls = int(rng.integers(0, min(2, n - 1) + 1))
            target, *controls = (int(q) for q in rng.permutation(n)[: n_controls + 1])
            pick = int(rng.integers(0, len(catalog) + 1))
            gate = catalog[pick] if pick < len(catalog) else M(rng.uniform(-3.0, 3.0))
            ops.append(CircuitOp(gate, target, tuple(controls)))
        # every third initial state is real-valued: run must still work on it
        amps = rng.normal(size=2**n)
        if trial % 3:
            amps = amps + 1j * rng.normal(size=2**n)
        initial = StateVector(n, amps / np.linalg.norm(amps))
        before = initial.amps.copy()
        expected = initial.amps
        for op in ops:
            expected = _dense_reference(n, op) @ expected
        got = run(Circuit(n, tuple(ops), measured_qubit=0), initial)
        assert np.max(np.abs(got.amps - expected)) <= 1e-12
        assert np.array_equal(initial.amps, before)


def test_chunked_sample_equals_one_choice_call():
    ops = (CircuitOp(H, 0), CircuitOp(M(0.9), 1), CircuitOp(X, 2, controls=(0, 1)))
    state = run(Circuit(3, ops, measured_qubit=2), init_zero(3))
    shots = 2 * SAMPLE_CHUNK + 3
    probs = np.abs(state.amps) ** 2
    probs = probs / probs.sum()
    draws = np.random.default_rng(5).choice(probs.size, size=shots, p=probs)
    values, counts = np.unique(draws, return_counts=True)
    expected = {format(int(v), "03b"): int(c) for v, c in zip(values, counts)}
    assert sample(state, shots, seed=5).counts == expected


def test_register_sampling_budget(monkeypatch):
    # the budget is checked before any draw: past it, nothing is sampled
    monkeypatch.setattr(statevec, "MAX_SAMPLED_SHOTS", 100)
    assert sum(sample(init_zero(1), 100, seed=0).counts.values()) == 100
    with pytest.raises(BudgetError, match="101 shots exceeds"):
        sample(init_zero(1), 101, seed=0)


def test_sample_rejects_shots_past_int64():
    with pytest.raises(ValueError, match="shots"):
        sample(init_zero(1), MAX_SHOTS + 1, seed=0)


def _bits(plane, n_worlds):
    """A plane's bit per world, world 0 first."""
    return [bool(plane >> w & 1) for w in range(n_worlds)]


def test_worlds_of_one_prepared_qubit():
    theta = 0.3
    planes = circuit_planes(Circuit(2, (CircuitOp(M(theta), 1),), measured_qubit=1))
    weights = world_weights([theta])
    assert weights == pytest.approx([math.sin(theta) ** 2, math.cos(theta) ** 2])
    assert [_bits(plane, 2) for plane in planes] == [[False, False], [False, True]]


def test_world_weights_at_pi_over_2_weigh_bit_1_at_exactly_0():
    # cos(pi/2) is 6.1e-17 in floating point, whose square is not 0
    assert world_weights([math.pi / 2]).tolist() == [1.0, 0.0]


def test_worlds_without_m_layer_is_one_basis_state():
    ops = (CircuitOp(X, 0), CircuitOp(X, 2, controls=(0,)), CircuitOp(X, 1, controls=(0, 2)))
    planes = circuit_planes(Circuit(3, ops, measured_qubit=1))
    assert world_weights([]).tolist() == [1.0]
    assert [_bits(plane, 1)[0] for plane in planes] == [True, True, True]


def _bool_planes(circuit):
    """Qubit planes as a bool matrix (n_qubits x 2^k), one byte per bit: the
    layout the plane simulator used before it packed a plane into an int."""
    prepared = [op.target for op in circuit.ops if op.gate.name == "M"]
    index = np.arange(1 << len(prepared))
    planes = np.zeros((circuit.n_qubits, index.size), dtype=bool)
    for i, q in enumerate(prepared):
        planes[q] = (index >> i) & 1
    for op in circuit.ops[len(prepared):]:
        t = planes[op.target]
        if not op.controls:
            np.logical_not(t, out=t)
        elif len(op.controls) == 1:
            t ^= planes[op.controls[0]]
        else:
            t ^= planes[op.controls[0]] & planes[op.controls[1]]
    return planes


def _m_angles(circuit):
    m_layer = itertools.takewhile(lambda op: op.gate.name == "M", circuit.ops)
    return [op.gate.theta for op in m_layer]


def _assert_worlds_match_dense(circuit):
    thetas = _m_angles(circuit)
    planes = circuit_planes(circuit)
    weights = world_weights(thetas)
    state = run(circuit, init_zero(circuit.n_qubits))
    reference = _bool_planes(circuit)
    for q in range(circuit.n_qubits):
        (p,) = plane_marginals(planes[q], np.array([thetas]))
        assert abs(p - marginal_prob_one(state, q)) <= 1e-12
        # the packed plane holds the same bits, and its marginal is the
        # weight of the worlds they mark
        assert _bits(planes[q], weights.size) == reference[q].tolist()
        assert abs(p - weights.sum(where=reference[q])) <= 1e-12


def test_worlds_match_dense_on_random_networks():
    for seed in range(1000):
        circuit = compile_ruleset(random_ruleset(seed)).circuit
        assert circuit.n_qubits <= 14
        _assert_worlds_match_dense(circuit)


def test_worlds_match_dense_on_random_permutation_circuits():
    # unlike compiled programs, these M layers skip qubits and come in any
    # order, and X, CN and CCN may target any qubit, prepared ones included
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        prepared = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        ops = [CircuitOp(M(rng.uniform(-3.0, 3.0)), int(q)) for q in prepared]
        ops += [_random_op(rng, n, ["X", "CN", "CCN"]) for _ in range(int(rng.integers(0, 30)))]
        _assert_worlds_match_dense(Circuit(n, tuple(ops), measured_qubit=0))


def test_worlds_match_dense_on_table8():
    for deltas, _ in TABLE8:
        _assert_worlds_match_dense(compile_ruleset(demo_ruleset(deltas)).circuit)


def test_plane_marginals_of_many_rows_equal_one_row_calls():
    # odd and even k, so both halves' shapes occur, with angles at the ends
    # of the range among the random ones
    rng = random.Random(5)
    for k in range(17):
        plane = rng.getrandbits(1 << k)
        rows = [[rng.choice([0.0, math.pi / 2, rng.uniform(0.0, math.pi / 2)])
                 for _ in range(k)] for _ in range(6)]
        batched = plane_marginals(plane, np.array(rows).reshape(6, k)).tolist()
        assert batched == [plane_marginals(plane, np.array([row]).reshape(1, k))[0]
                           for row in rows]
        mask = np.array(_bits(plane, 1 << k))
        for row, p in zip(rows, batched):
            assert abs(p - statevec.world_weights(row).sum(where=mask)) <= 1e-12


@pytest.mark.parametrize(
    "ops,offender",
    [
        ((CircuitOp(M(0.4), 0), CircuitOp(H, 1)), "op 1: H on q1 after the M layer"),
        ((CircuitOp(M(0.4), 0), CircuitOp(M(0.5), 1, controls=(0,))),
         "op 1: M on q1 has controls (0,)"),
        ((CircuitOp(M(0.4), 0), CircuitOp(M(0.5), 0)), "op 1: M on q0, which is already"),
        ((CircuitOp(M(0.4), 0), CircuitOp(X, 1), CircuitOp(M(0.5), 2)),
         "op 2: M(0.500000) on q2 after the M layer"),
        ((CircuitOp(M(0.4), 0), CircuitOp(X, 1), CircuitOp(X, 2, controls=(0,)),
          CircuitOp(H, 1)), "op 3: H on q1 after the M layer"),
    ],
    ids=["h-after-m", "controlled-m", "m-twice", "m-after-x", "h-after-x-and-cn"],
)
def test_worlds_rejects_other_circuits(ops, offender):
    with pytest.raises(ValueError, match=re.escape(offender)):
        circuit_planes(Circuit(3, ops, measured_qubit=0))
