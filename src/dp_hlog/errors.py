"""Exceptions shared across the verification layers."""


class InternalError(RuntimeError):
    """An exactness invariant failed (integer division, orthogonality)."""
