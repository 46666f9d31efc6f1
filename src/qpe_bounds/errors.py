"""Exception types shared across the package."""


class DegenerateSpectrum(ValueError):
    """Two phases coincide, so the spectrum has no gap."""


class DegenerateDistribution(ArithmeticError):
    """An outcome distribution collapsed (probability underflow)."""


class ZeroSecondMoment(ValueError):
    """The overlap-weighted second moment of the phases vanishes."""


class SingularFim(ArithmeticError):
    """The full Fisher matrix could not be inverted stably."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class PhaseOnlyFim(ValueError):
    """The Fisher matrix holds only its theta-theta block (overlaps known)."""


class NoLinearCostForm(ValueError):
    """The protocol has no linear total-cost constant gamma."""


class RpeRequiresPowerOfTwo(ValueError):
    """RPE schedules only exist for T a power of two."""


class NormalizationFailure(ArithmeticError):
    """Tabulated outcome probabilities failed to sum to one."""


class EmptyData(ValueError):
    """An estimator was handed a dataset with no records."""


class ScheduleMismatch(ValueError):
    """The data's time grid does not have the shape the estimator needs."""


class DependentCenters(ValueError):
    """Two kernel centers of the histogram fit coincide, so its Gram is singular."""


class NoPeaksDetected(RuntimeError):
    """Peak detection found nothing above threshold."""
