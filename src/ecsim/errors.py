"""Exception types shared across the package."""


class ModeMismatchError(ValueError):
    """Two multimode objects with incompatible mode counts were combined."""


class DegenerateBasisError(ValueError):
    """The logical qubit basis is numerically degenerate (t*alpha too small)."""


class CutoffError(ValueError):
    """A Fock cutoff below 1, a grid over ``FOCK_CELL_BUDGET`` amplitudes, an
    underflowing vacuum amplitude, or a ``bellmeas`` tail over its tolerance."""


class SpanError(ValueError):
    """A coherent amplitude lies outside the logical span {+a, -a}."""


class DensityError(ValueError):
    """A matrix fails the density checks: Hermitian, unit trace and no
    eigenvalue below -1e-10."""


class ZeroNormError(ValueError):
    """A state to be normalized has zero norm (it underflowed or cancelled)."""
