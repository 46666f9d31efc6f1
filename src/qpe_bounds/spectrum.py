"""Signal model: eigenphase/overlap pairs and the benchmark spectrum families.

A spectrum is a finite set of phases theta_l in (-pi, pi] with overlap
weights c_l >= 0 summing to one.  A mode's label is its position in the
order given, so mode i is row i of every phase, overlap and Fisher array;
the target is usually the largest-overlap mode, label 0.
"""

import numpy as np

from .errors import DegenerateSpectrum
from .schedules import _count, _whole

_SUM_TOL = 1e-12


def _index_of(L, label):
    """Position of the mode labeled ``label``: a whole number in [0, L)."""
    pos = _whole("label", label, KeyError)
    if not 0 <= pos < L:
        raise KeyError(f"no mode labeled {label}")
    return pos


class Spectrum:
    """Phases and overlaps in the order given; mode i sits at position i."""

    def __init__(self, phases, overlaps):
        # copies, so freezing them below leaves the caller's arrays writable
        phases = np.array(phases, dtype=float)
        overlaps = np.array(overlaps, dtype=float)
        if phases.ndim != 1 or overlaps.ndim != 1:
            raise ValueError("phases and overlaps must be one-dimensional")
        if phases.size != overlaps.size:
            raise ValueError("phases and overlaps must have equal length")
        if phases.size == 0:
            raise ValueError("a spectrum needs at least one mode")
        if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(overlaps))):
            raise ValueError("phases and overlaps must be finite")
        if np.any(phases <= -np.pi) or np.any(phases > np.pi):
            raise ValueError("phases must lie in (-pi, pi]")
        if np.any(overlaps < 0):
            raise ValueError("overlaps must be nonnegative")
        if abs(overlaps.sum() - 1.0) > _SUM_TOL:
            raise ValueError("overlaps must sum to one")
        self.phases = phases
        self.overlaps = overlaps
        if self.gap <= 0.0:
            raise DegenerateSpectrum("spectrum has coinciding phases")
        phases.setflags(write=False)
        overlaps.setflags(write=False)

    @property
    def L(self):
        return self.phases.size

    @property
    def labels(self):
        """The mode labels 0..L-1, which are the positions."""
        return np.arange(self.L)

    @property
    def gap(self):
        """Smallest spacing between phases in sorted order; inf for one mode."""
        if self.L == 1:
            return np.inf
        return float(np.min(np.diff(np.sort(self.phases))))

    def index_of(self, label):
        """Position of the mode labeled ``label``, which is the label itself."""
        return _index_of(self.L, label)

    def phase(self, label):
        return float(self.phases[self.index_of(label)])

    def overlap(self, label):
        return float(self.overlaps[self.index_of(label)])

    def second_moment(self):
        """Overlap-weighted second moment sum_l c_l theta_l^2."""
        return float(np.sum(self.overlaps * self.phases**2))

    def to_dict(self):
        return {"phases": self.phases.tolist(), "overlaps": self.overlaps.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["phases"], d["overlaps"])

    def __repr__(self):
        return f"Spectrum(L={self.L}, gap={self.gap:.4g})"


def uniform_phases(L):
    """Evenly spaced phases -1 + (2i+1)/L, i = 0..L-1."""
    i = np.arange(L, dtype=float)
    return -1.0 + (2.0 * i + 1.0) / L


def head_dense_phases(L):
    """Phases crowded near the lower end: -1 + 2 (i/(L-1))^2."""
    if L < 2:
        raise ValueError("head- and tail-dense spectra need at least two modes")
    i = np.arange(L, dtype=float)
    return -1.0 + 2.0 * (i / (L - 1)) ** 2


def tail_dense_phases(L):
    """Phases crowded near the upper end: the head-dense phases reversed."""
    return head_dense_phases(L)[::-1].copy()


def geometric_overlaps(L, alpha):
    """Normalized geometric weights c_l = (1-alpha) alpha^l / (1-alpha^L)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    c = (1.0 - alpha) * alpha ** np.arange(L, dtype=float)
    return c / (1.0 - alpha**L)


_PHASE_FAMILIES = {
    "uniform": uniform_phases,
    "head_dense": head_dense_phases,
    "tail_dense": tail_dense_phases,
}


def make_spectrum(kind, L, alpha):
    """Benchmark spectrum: named phase family paired with geometric overlaps.

    Mode l has the family's l-th phase and overlap c_l, so label 0 is the
    largest-overlap mode in every family (in tail_dense, the largest phase).
    """
    L = _count("L", L)
    try:
        phases = _PHASE_FAMILIES[kind](L)
    except KeyError:
        raise ValueError(f"unknown spectrum family {kind!r}") from None
    return Spectrum(phases, geometric_overlaps(L, alpha))
