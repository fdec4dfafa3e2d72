"""Closed catalog of 2x2 unitary gates and the small matrix algebra on them.

The catalog is X, H, S, T, Z plus the parametric reflection

    M(theta) = [[sin(theta), cos(theta)],
                [cos(theta), -sin(theta)]]

which is real, symmetric and self-inverse for any theta. No user-defined
matrices are accepted: keeping the gate set closed makes compiled circuits
auditable gate by gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, (1 + 1j) * SQRT2_INV]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

IDENTITY = np.eye(2, dtype=complex)
KET_0 = np.array([1, 0], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """A gate from the closed catalog; ``theta`` is set only for M."""

    name: str
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.name == "M":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("M requires a finite theta")
        elif self.name in _FIXED_MATRICES:
            if self.theta is not None:
                raise ValueError(f"gate {self.name} takes no parameter")
        else:
            raise ValueError(f"unknown gate {self.name!r}")

    def __repr__(self) -> str:
        if self.name == "M":
            return f"M({self.theta:.6f})"
        return self.name


X = Gate("X")
H = Gate("H")
S = Gate("S")
T = Gate("T")
Z = Gate("Z")


def M(theta: float) -> Gate:
    return Gate("M", float(theta))


def matrix_of(gate: Gate) -> np.ndarray:
    """Fresh 2x2 complex matrix for a catalog gate."""
    if gate.name == "M":
        s, c = math.sin(gate.theta), math.cos(gate.theta)
        return np.array([[s, c], [c, -s]], dtype=complex)
    return _FIXED_MATRICES[gate.name].copy()


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex matrix product a @ b."""
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def is_unitary(a: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff the largest entry of ``a @ a.H - I`` has magnitude <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a @ dagger(a) - np.eye(a.shape[0])))) <= tol


class KetAction(NamedTuple):
    """Result of a gate product acting on |0>."""

    amp0: complex
    amp1: complex
    prob0: float
    prob1: float


def product_action_on_ket0(gates: Sequence[Gate]) -> KetAction:
    """Apply a written gate product to |0>.

    The list is read in writing order, leftmost gate outermost: [A, B, C]
    means the matrix A @ B @ C applied to (1, 0).
    """
    if not gates:
        raise ValueError("gate list must be non-empty")
    product = np.eye(2, dtype=complex)
    for gate in gates:
        product = product @ matrix_of(gate)
    amp0, amp1 = product @ KET_0
    return KetAction(complex(amp0), complex(amp1), abs(amp0) ** 2, abs(amp1) ** 2)


def modulus_amplitudes(pair: Sequence[complex]) -> tuple[float, float]:
    """Drop the phases of a normalized amplitude pair, keeping the moduli.

    The squared moduli still sum to 1, so downstream probability bookkeeping
    is unchanged. Non-normalized input is rejected.
    """
    a, b = pair
    total = abs(a) ** 2 + abs(b) ** 2
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"amplitude pair is not normalized: |a|^2+|b|^2 = {total!r}")
    return abs(a), abs(b)
