"""Shared exception types."""

from __future__ import annotations

__all__ = ["ValidationError", "CapExceeded"]


class ValidationError(ValueError):
    """An input document or argument violates the model invariants."""


class CapExceeded(RuntimeError):
    """A computation went past its configured resource cap."""
