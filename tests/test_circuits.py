"""The two closed-form outcome laws against gate-by-gate circuits.

The noiseless Hadamard test and the n-qubit register are simulated on
state vectors (``circuits.py``) for a random system unitary; their
outcome laws must match the library's to 1e-12, and a central-difference
theta-theta Fisher block of each circuit law must match the library's
Fisher matrix to 1e-6 relative.
"""

import numpy as np
import pytest

from circuits import S, S_DAGGER, hadamard_test, inverse_qft, random_unitary, register
from helpers import fd_fisher
from qpe_bounds import Spectrum, ht_fim_single, qft_fim, qft_probabilities
from qpe_bounds.fim import _ht_outcomes


def _system(seed, d):
    """A random unitary V and a spectrum of d modes, each overlap at least 0.025."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, d)
    c = rng.uniform(0.2, 1.0, d)
    return random_unitary(rng, d), Spectrum(phases, c / c.sum())


def _ht_circuit(V, t):
    # outcome-0 then outcome-1 of the real part, then of the imaginary part
    return lambda phases, overlaps: np.concatenate([
        hadamard_test(V, phases, overlaps, t), hadamard_test(V, phases, overlaps, t, S_DAGGER)])


@pytest.mark.parametrize("n", range(1, 7))
def test_the_circuit_transform_is_the_inverse_dft(n):
    M = 2**n
    x = np.arange(M)
    want = np.exp(-2j * np.pi * np.outer(x, x) / M) / np.sqrt(M)
    assert np.max(np.abs(inverse_qft(np.eye(M, dtype=complex), n) - want)) <= 1e-13


@pytest.mark.parametrize("seed, d, times", [
    (1, 1, [0.7, -3.2]),
    (2, 3, [1.0, 12.5, -40.25]),
    (3, 5, [0.3, 7.0, 250.5]),
    (4, 8, [2.0, -17.75, 1000.0]),
])
def test_the_hadamard_test_law_matches_its_circuit(seed, d, times):
    V, s = _system(seed, d)
    want = _ht_outcomes(s, times)
    for k, t in enumerate(times):
        real = hadamard_test(V, s.phases, s.overlaps, t)
        imag = hadamard_test(V, s.phases, s.overlaps, t, S_DAGGER)
        assert np.max(np.abs(real[0] - want[0, k])) <= 1e-12
        assert np.max(np.abs(imag[0] - want[1, k])) <= 1e-12
        assert real.sum() == pytest.approx(1.0, abs=1e-12)
    if d > 1:
        # S in place of S^dagger reads (1 - S) / 2: the convention is pinned
        wrong = [hadamard_test(V, s.phases, s.overlaps, t, S)[0] for t in times]
        assert np.max(np.abs(np.array(wrong) - want[1])) > 0.1


@pytest.mark.parametrize("seed, d, n", [(5, 1, 1), (6, 2, 3), (7, 5, 5), (8, 8, 6)])
def test_the_register_law_matches_its_circuit(seed, d, n):
    V, s = _system(seed, d)
    got = register(V, s.phases, s.overlaps, n)
    assert np.max(np.abs(got - qft_probabilities(s, n))) <= 1e-12


@pytest.mark.parametrize("seed, d, t", [(9, 1, 0.9), (10, 3, -5.5), (11, 6, 31.0), (12, 8, 123.25)])
def test_the_hadamard_test_fisher_block_matches_its_circuit(seed, d, t):
    V, s = _system(seed, d)
    got = fd_fisher(_ht_circuit(V, t), s.phases, s.overlaps)[:d, :d]
    want = ht_fim_single(s, t).theta_theta
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("seed, d, n", [(13, 1, 2), (14, 3, 4), (15, 5, 5), (16, 8, 6)])
def test_the_register_fisher_block_matches_its_circuit(seed, d, n):
    V, s = _system(seed, d)
    circuit = lambda phases, overlaps: register(V, phases, overlaps, n)  # noqa: E731
    got = fd_fisher(circuit, s.phases, s.overlaps)[:d, :d]
    want = qft_fim(s, n).theta_theta
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
