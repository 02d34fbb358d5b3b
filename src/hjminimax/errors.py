"""Exception hierarchy shared by all hjminimax modules."""


class HJError(Exception):
    """Base class for all errors raised by this package."""


# --- expression parsing / evaluation ---

class ExprSyntaxError(HJError):
    """Malformed expression source. Carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(HJError):
    """Identifier outside the variable/function whitelist."""


class DomainError(HJError):
    """Evaluation left the declared domain (division by zero, sqrt of a negative, ...)."""


class NonFinite(HJError):
    """A computation produced inf or nan where a finite value is required."""


# --- genericity ---

class NonGeneric(HJError):
    """Input violates a genericity assumption (tied critical values, degenerate
    cusp, tangential intersection, ...)."""


class MalformedInput(HJError):
    """Structurally invalid input (e.g. non-alternating Morse indices)."""


# --- characteristics / fronts ---

class NotLong(HJError):
    """Front endpoints are not graph-like."""


class IndexInconsistency(HJError):
    """Branch-index propagation from the two front ends disagrees."""


class DegenerateFiber(HJError):
    """Vertical fiber passes through a cusp projection or double point."""


class InconsistentSweep(HJError):
    """Coupling pair identity changed without a mediating front event."""


class NoVanishingTriangle(HJError):
    """Front is not smooth but the vanishing rule found no removable triangle."""


# --- ranges a solver is set up for ---

class OutOfRange(HJError):
    """A solver left the range it was set up for: a Legendre transform
    queried outside the attainable slope range, a Lax-Friedrichs step faster
    than its Courant bound, or a window's seed margin that does not settle."""
