"""Gate-by-gate state-vector circuits for the two outcome laws, for the tests.

A system of dimension d <= 8 evolves under U = V diag(e^{i theta}) V^dagger
for a unitary V, and starts in V sqrt(c), so eigenvector l carries overlap
c_l.  The circuits know U only as a matrix and read their qubits in the
computational basis, so they share no formula with the library's laws.
"""

import numpy as np

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
S = np.diag([1.0, 1j])
S_DAGGER = S.conj()


def random_unitary(rng, d):
    """A Haar-random d x d unitary: QR of a complex Gaussian, R's phases removed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def evolution(V, phases, t):
    """U^t = V diag(e^{i theta t}) V^dagger, for any real t."""
    return (V * np.exp(1j * np.asarray(phases) * t)) @ V.conj().T


def hadamard_test(V, phases, overlaps, t, gate=None):
    """(P(ancilla 0), P(ancilla 1)) after H, controlled-U^t, ``gate`` and H.

    ``gate`` None reads the real part; S^dagger the imaginary part.
    """
    psi = np.zeros((2, len(phases)), dtype=complex)  # (ancilla, system)
    psi[0] = V @ np.sqrt(overlaps)
    psi = H @ psi
    psi[1] = evolution(V, phases, t) @ psi[1]
    if gate is not None:
        psi = gate @ psi
    psi = H @ psi
    return np.sum(np.abs(psi) ** 2, axis=1)


def _on_qubit(gate, psi, n, k):
    # qubit k is bit k of the register index x; psi is (2^n, d)
    view = psi.reshape(2 ** (n - 1 - k), 2, 2**k, -1)
    return np.einsum("ab,ibjd->iajd", gate, view).reshape(psi.shape)


def _bit(x, k):
    return (x >> k) & 1


def inverse_qft(psi, n):
    """The textbook transform circuit (Nielsen & Chuang, fig. 5.1) run backwards.

    Its swaps, then for each qubit from the least significant up the
    conjugated controlled phases R_k^dagger = diag(1, e^{-2 pi i / 2^k})
    and H, so that |x> goes to sum_y e^{-2 pi i x y / M} |y> / sqrt(M).
    """
    x = np.arange(2**n)
    swapped = x.copy()
    for j in range(n // 2):  # qubit j with qubit n - 1 - j
        a, b = _bit(x, j), _bit(x, n - 1 - j)
        swapped += (b - a) * 2**j + (a - b) * 2 ** (n - 1 - j)
    psi = psi[swapped]
    # the circuit's qubit j (1-based, most significant first) is bit n - j
    for j in range(n, 0, -1):
        for k in range(n - j + 1, 1, -1):
            both = _bit(x, n - j) & _bit(x, n - (j + k - 1))
            psi = psi * np.where(both, np.exp(-2j * np.pi / 2**k), 1.0)[:, None]
        psi = _on_qubit(H, psi, n, n - j)
    return psi


def register(V, phases, overlaps, n):
    """P(y) over the 2^n readings: H on every qubit, qubit k controlling
    U^(2^k), then ``inverse_qft``."""
    U = evolution(V, phases, 1.0)
    psi = np.zeros((2**n, len(phases)), dtype=complex)
    psi[0] = V @ np.sqrt(overlaps)
    for k in range(n):
        psi = _on_qubit(H, psi, n, k)
    x = np.arange(2**n)
    for k in range(n):
        on = _bit(x, k) == 1
        psi[on] = psi[on] @ np.linalg.matrix_power(U, 2**k).T
    return np.sum(np.abs(inverse_qft(psi, n)) ** 2, axis=1)
