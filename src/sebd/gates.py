"""Fixed gate matrices and the single-qubit gate sets used by circuit families.

The Clifford group lives here once: clifford_table enumerates the one- and
two-qubit groups breadth first. CLIFFORD_1Q, the circuits' one-qubit
Clifford set, is the one-qubit table's matrices, and the tableau oracle
(sebd.oracles.tableau) reads both tables' step sequences to decompose
Clifford gates into H, S and CNOT.
"""

from __future__ import annotations

from functools import cache

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)

W = (X + Y) / np.sqrt(2)
V = (X - Y) / np.sqrt(2)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def fsim(theta: float, phi: float) -> np.ndarray:
    """Fermionic simulation gate in the |00>,|01>,|10>,|11> basis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, np.exp(-1j * phi)],
        ],
        dtype=complex,
    )


def iswap() -> np.ndarray:
    """iSWAP with the +i convention (the Clifford one); fsim(pi/2, 0) is its conjugate."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def pauli_half_power(p: np.ndarray, sign: int = +1) -> np.ndarray:
    """Principal square root P^(1/2) of an involution, or its inverse for sign=-1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w = (1 + 1j * sign) / 2
    return w.conjugate() * np.eye(2) + w * p


#: The eight single-qubit gates drawn uniformly by the fsim/iswap circuit families.
ROTATION_SET = tuple(
    pauli_half_power(p, s) for p in (X, Y, W, V) for s in (+1, -1)
)


def canon_key(m: np.ndarray) -> bytes:
    """m's entries up to global phase, to 6 digits, as bytes: equal for two
    unitaries that differ by a phase. Adding 0.0 collapses IEEE negative
    zeros so equal matrices give equal bytes."""
    idx = np.argmax(np.abs(m) > 1e-6)
    ph = m.flat[idx] / abs(m.flat[idx])
    return (np.round(m / ph, 6) + 0.0).tobytes()


# magnitudes of the real and imaginary parts of a product of H, S and CNOT
# on at most two qubits; 1/sqrt(2) as H holds it
_CLIFFORD_PARTS = np.array([0.0, 0.5 / np.sqrt(2), 0.5, 1 / np.sqrt(2), 1.0])


def _snap(m: np.ndarray) -> np.ndarray:
    """m with each real and imaginary part snapped to the nearest of 0 and
    +-_CLIFFORD_PARTS, and no -0.0: the exact product, whatever the BLAS
    kernel's roundoff. No entry may move by more than 1e-12."""
    parts = m.view(float)
    k = np.abs(np.abs(parts)[..., None] - _CLIFFORD_PARTS).argmin(axis=-1)
    exact = np.copysign(_CLIFFORD_PARTS[k], parts) + 0.0  # + 0.0 turns -0.0 into 0.0
    assert np.abs(exact - parts).max() <= 1e-12, "not a product of H, S and CNOT"
    return exact.view(complex)


@cache
def clifford_table(n_qubits: int) -> dict[bytes, tuple[np.ndarray, tuple]]:
    """The n-qubit Clifford group (n = 1 or 2) up to global phase, by one
    breadth-first search from the identity under left multiplication by
    H and S on each qubit (and CNOT both ways on two).

    Maps each element's canon_key to its matrix and the sequence of steps
    ("H", q), ("S", q), ("CNOT", control, target) whose product, first step
    applied first, it is; entries are in discovery order. The matrices are
    snapped to their exact entries (_snap), so the table's bytes do not
    depend on the BLAS kernel. Built on first use: the two-qubit table
    (11520 elements) takes about a second.
    """
    if n_qubits == 1:
        gens = ((("H", 0), H), (("S", 0), S))
    else:
        cnot_ba = CNOT.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        gens = (
            (("H", 0), np.kron(H, I2)),
            (("H", 1), np.kron(I2, H)),
            (("S", 0), np.kron(S, I2)),
            (("S", 1), np.kron(I2, S)),
            (("CNOT", 0, 1), CNOT),
            (("CNOT", 1, 0), cnot_ba),
        )
    eye = np.eye(2**n_qubits, dtype=complex)
    table = {canon_key(eye): (eye, ())}
    frontier = [(eye, ())]
    while frontier:
        nxt = []
        for m, seq in frontier:
            for step, g in gens:
                mm = g @ m
                key = canon_key(mm)
                if key not in table:
                    table[key] = (mm, seq + (step,))
                    nxt.append(table[key])
        frontier = nxt
    assert len(table) == {1: 24, 2: 11520}[n_qubits]
    exact = _snap(np.array([m for m, _ in table.values()]))
    return {key: (m, seq) for (key, (_, seq)), m in zip(table.items(), exact)}


#: All 24 single-qubit Cliffords (fixed order; index is the sampling label).
CLIFFORD_1Q = tuple(m for m, _ in clifford_table(1).values())
