"""Exception types shared across the package, and first-failure tracking for batches."""

import numpy as np


class SeqMeasError(Exception):
    """Base class for all seqmeas errors."""


class DimensionMismatch(SeqMeasError):
    """Operands act on Hilbert spaces of different dimensions."""


class NotHermitian(SeqMeasError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NoConvergence(SeqMeasError):
    """Eigensolver failed to converge."""


class InvalidOrder(SeqMeasError):
    """Moment order outside the supported set {0, 1, 2}."""


class NonHermitianSum(SeqMeasError):
    """Gaussian pair sum is not Hermitian-symmetric: moments came out complex."""


class QuadratureFailure(SeqMeasError):
    """Adaptive quadrature could not reach the requested accuracy."""


class ZeroLikelihood(SeqMeasError):
    """Conditioning outcome has (numerically) vanishing marginal likelihood."""


class DegenerateDirection(SeqMeasError):
    """State is an eigenstate of the observable; no orthogonal direction."""


class NotOrthogonal(SeqMeasError):
    """Supplied state is not orthogonal to the reference state."""


class DenominatorNonPositive(SeqMeasError):
    """Closed-form denominator left its provably positive domain."""


class RejectionStall(SeqMeasError):
    """Rejection sampler acceptance rate collapsed below the floor."""


class VarianceInconsistency(SeqMeasError):
    """Extracted variance fell below zero by more than roundoff allows."""


class ConfigParseError(SeqMeasError):
    """Chain configuration file is malformed; message carries field diagnostics."""


class InvalidRange(SeqMeasError):
    """Sweep range is empty, inverted, or otherwise unusable."""


class FirstFailure:
    """Finds the error a row-by-row loop over a batch would raise first.

    A batched engine runs each check on all live rows at once, in the order
    one row runs its checks. :meth:`check` records the first failing row's
    error and shrinks ``rows`` to the rows before it, so later checks only
    look at rows that could still fail earlier. The result is the earliest
    failing row, with its first failing check. A failure in row 0 raises at
    once; otherwise :meth:`raise_first` raises after the last check.
    Every error carries its batch row as ``row``.
    """

    __slots__ = ("rows", "error")

    def __init__(self, rows: int):
        self.rows = rows
        self.error: Exception | None = None

    def check(self, bad, make_error) -> int:
        """Apply one check; ``make_error(i)`` builds row ``i``'s error. Returns the live row count."""
        live = bad[: self.rows]
        if np.count_nonzero(live):
            row = int(np.argmax(live))
            error = make_error(row)
            error.row = row
            if row == 0:
                raise error
            self.rows, self.error = row, error
        return self.rows

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error
