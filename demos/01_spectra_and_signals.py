#!/usr/bin/env python3
"""Spectrum families and the two measurement signals they generate.

Builds the three canonical phase/overlap families, then shows what each
circuit family actually measures: the Hadamard-test pair returns the
real and imaginary parts of the phase sum C(t) + i S(t), while the
transform-readout register returns a histogram over 2^n bins peaked
near each phase.
"""

import numpy as np

from qpe_bounds import Spectrum, make_spectrum, qft_probabilities


def show_family(kind, L=8, alpha=0.5):
    s = make_spectrum(kind, L, alpha)
    print(f"{kind:10s} L={L} alpha={alpha}")
    print("  phases  ", np.round(s.phases, 4))
    print("  overlaps", np.round(s.overlaps, 4))
    print(f"  dominant overlap c0 = {s.overlap(0):.4f}, gap = {s.gap:.4f}")


def main():
    for kind in ("uniform", "head_dense", "tail_dense"):
        show_family(kind)
    print()

    s = Spectrum([-0.85, 0.3, 1.7], [0.7, 0.2, 0.1])
    print("Hadamard-test signal z(t) = sum_l c_l exp(i t theta_l):")
    from qpe_bounds import ht_expectations
    for t in (0.0, 1.0, 5.0, 20.0):
        C, S = ht_expectations(s, t)
        print(f"  t={t:5.1f}  C={C:+.4f}  S={S:+.4f}  |z|={np.hypot(C, S):.4f}")
    print()

    n = 6
    p = qft_probabilities(s, n)
    M = 2**n
    print(f"register distribution, n={n} ({M} bins); bins near each phase:")
    for theta, c in zip(s.phases, s.overlaps):
        b = int(np.round(theta % (2 * np.pi) / (2 * np.pi) * M)) % M
        lo, hi = b - 2, b + 3
        window = [p[(k) % M] for k in range(lo, hi)]
        bars = " ".join(f"{v:.3f}" for v in window)
        print(f"  theta={theta:+.2f} (c={c:.1f}) bins {lo % M}..{(hi - 1) % M}: {bars}")
    print(f"  total probability = {p.sum():.12f}")


if __name__ == "__main__":
    main()
