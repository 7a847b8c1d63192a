"""Exception taxonomy shared by all modules."""


class LucasDensityError(Exception):
    """Base class for every error raised by this package."""


class ReducibleError(LucasDensityError):
    """The characteristic polynomial has a rational double/split root (Δ a perfect square)."""


class TorsionError(LucasDensityError):
    """The root quotient is a root of unity; no density theory applies."""


class ZeroParameterError(LucasDensityError):
    """a1 = 0 or a2 = 0: the sequence is degenerate."""


class DiscMismatchError(LucasDensityError):
    """Binary field operation on elements of different quadratic fields."""


class DivisionByZeroError(LucasDensityError):
    """Inversion of the zero element."""


class HypothesisError(LucasDensityError):
    """S-sum evaluated outside the closed form's hypothesis (h, nu^inf) | nu."""


class OracleMismatchError(LucasDensityError):
    """A closed-form value differs from the exact sum of the defining series."""


class UnreachableCaseError(LucasDensityError):
    """The dispatcher found no applicable route (must never happen)."""


class LimitError(LucasDensityError):
    """A sieve/limit request exceeds the configured ceiling."""
