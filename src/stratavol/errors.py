"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a mathematical precondition (wrong parity, size
    mismatch, value outside the defined domain)."""


class ResourceCapError(RuntimeError):
    """A request would exceed a fixed enumeration cap (set-partition ground
    set too large, brute-force degree too high).  Raised before the
    enumeration starts."""
