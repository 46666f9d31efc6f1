"""Cramer-Rao evaluation: full-matrix and diagonal bounds, the RPE envelope.

The variance bound for mode i is (I^-1)_{ii} of the full 2L x 2L Fisher
matrix; the cheap surrogate is 1/I_{ii}.  Their product I_{ii} (I^-1)_{ii}
is the diagonal-approximation quality factor (1 when parameters decouple).
``bench.accounting`` computes the cost-product floor T * t_total / I_ii.
"""

import numpy as np

from .errors import SingularFim
from .fim import f_i_max
from .schedules import _point


_COND_CAP = 1e12


def __getattr__(name):
    """``cho_factor`` from scipy.linalg, resolved only when it is asked for.

    No code in the package calls it; the per-layer trace in
    perfbench/tracing.py counts its calls by name in this module, so the
    name resolves on demand and importing the module loads no scipy.  Any
    other missing name raises AttributeError.
    """
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _inverse_entry(full, pos):
    """(full^-1)[pos, pos], robust to the breakdown regime.

    The matrix is first scaled symmetrically to unit diagonal so that the
    huge dynamic range of geometric overlaps (c_l^2 spans ~16 decades at
    L = 20) does not poison the inversion; what remains of the condition
    number measures genuine mode overlap.  The entry is read from the
    eigendecomposition of the scaled matrix with eigenvalues floored at
    1e-12 of the largest.

    Unresolved spectra (T below 1/gap) produce valid but numerically
    singular matrices whose inverse entries are real and enormous.
    Flooring dominates the true matrix in the positive semidefinite
    order, so the returned entry understates the true (full^-1)[pos, pos]:
    it stays a correct variance lower bound, merely capped at condition
    1e12.  Below that condition nothing is floored and the entry is the
    exact inverse entry up to roundoff.  SingularFim is reserved for
    matrices that are not valid information matrices at all (nonpositive
    diagonal, nonfinite entries, indefiniteness beyond roundoff).

    A parameter other than pos whose whole row is zero carries no
    information and no coupling (a phase exactly on the transform-readout
    grid, where every outcome probability is stationary).  It is dropped:
    adding any eps > 0 to its diagonal leaves (full^-1)[pos, pos] at the
    entry of the reduced matrix.
    """
    idle = np.all(full == 0.0, axis=1)
    idle[pos] = False
    if idle.any():
        full = full[np.ix_(~idle, ~idle)]
        pos -= int(np.count_nonzero(idle[:pos]))
    d = np.diag(full).copy()
    if not (np.all(np.isfinite(d)) and np.all(d > 0.0)):
        raise SingularFim("Fisher matrix diagonal is not positive")
    rd = 1.0 / np.sqrt(d)
    lam, vec = np.linalg.eigh(full * np.outer(rd, rd))
    if not np.all(np.isfinite(lam)) or lam[-1] <= 0.0:
        raise SingularFim("Fisher matrix is not positive semidefinite")
    if lam[0] < -1e-8 * lam[-1]:
        cond = float(lam[-1] / abs(lam[0]))
        raise SingularFim(
            "Fisher matrix is indefinite beyond roundoff", condition=cond
        )
    floored = np.maximum(lam, lam[-1] / _COND_CAP)
    return float(np.sum(vec[pos] ** 2 / floored)) * rd[pos] ** 2


def crlb_full(fim, label=0):
    """Variance lower bound (I^-1)_{ii} from the full block matrix."""
    pos = fim.index_of(label)
    return _inverse_entry(fim.full(), pos)


def crlb_diag(fim, label=0):
    """Diagonal surrogate 1/I_{ii}; never below the full bound."""
    pos = fim.index_of(label)
    entry = fim.theta_theta[pos, pos]
    if entry <= 0.0:
        raise SingularFim("diagonal Fisher entry is not positive")
    return float(1.0 / entry)


def diag_ratio(fim, label=0):
    """I_{ii} (I^-1)_{ii} >= 1; how much the diagonal shortcut understates."""
    pos = fim.index_of(label)
    return float(fim.theta_theta[pos, pos]) * crlb_full(fim, label)


def rpe_fim_bounds(spectrum, T, N_s, label=0):
    """Envelope for the RPE diagonal information of mode i.

    The lower value N_s c_i^2 (4T^2 - 1)/3 is a hard floor (the gain
    factor is >= 1 at every time).  The upper value multiplies it by
    f_i_max, the aligned-time gain; both coincide with the exact entry
    when L = 1, where the gain factor is identically 2.
    """
    _, T, _, N_s = _point("rpe", T, 1, N_s)
    c_i = spectrum.overlap(label)
    if c_i == 0.0:
        return 0.0, 0.0
    lo = N_s * c_i**2 * (4.0 * T**2 - 1.0) / 3.0
    return float(lo), float(lo * f_i_max(spectrum, label))
