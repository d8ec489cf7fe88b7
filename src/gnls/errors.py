"""Exception types shared across the package."""


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf samples."""


class MultiplierOverflowError(ValueError):
    """An exponential Fourier weight would overflow double precision."""


class EmptySpectrumError(ValueError):
    """A spectral diagnostic was asked for on an identically-zero field."""


class FitError(RuntimeError):
    """The almost-conservation sweep left no sigma to fit its constant C
    from: every growth sat at or below the sigma = 0 noise floor."""


class SimulationAbort(RuntimeError):
    """Time stepping hit a non-finite or blown-up state.

    Carries the step index at which the problem was detected and the last
    finite snapshot so callers can persist partial results.
    """

    def __init__(self, message, step, last_good=None):
        super().__init__(message)
        self.step = step
        self.last_good = last_good
