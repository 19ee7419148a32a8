"""Exception types shared across the package."""


class SgapError(Exception):
    """Base class for all package-specific errors."""


class VariantMismatchError(SgapError, ValueError):
    """Operands belong to different group families (variant, rank, dimension or modulus)."""


class UnsupportedVariantError(SgapError, ValueError):
    """The requested operation is not defined for this element variant."""


class BudgetExceededError(SgapError, RuntimeError):
    """A size or work budget was exceeded; the message names the cheaper alternative if one exists."""


class DisconnectedChainError(SgapError, ValueError):
    """The chain is not irreducible; the message names a disconnected pair of states."""


class NotReversibleError(SgapError, ValueError):
    """Detailed balance fails beyond tolerance for an operation that requires reversibility."""


class ConvergenceError(SgapError, RuntimeError):
    """An iterative solver stopped without reaching its residual target."""
