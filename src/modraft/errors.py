"""Exception types shared across the kernel."""

__all__ = ["KernelError", "SchemaViolation", "GenerationError", "IntegrityMismatch",
           "FileFormatError", "CatalogError", "NoProtectionAtHeight", "OutOfMethodRange"]


class KernelError(Exception):
    """Base class for every error raised by this package."""


class SchemaViolation(KernelError):
    """A property set does not satisfy its module type's schema."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"property {key!r}: {reason}")
        self.key = key
        self.reason = reason


class GenerationError(KernelError):
    """Geometry generation failed for an otherwise well-typed property set."""


class IntegrityMismatch(KernelError):
    """Stored geometry disagrees with what its parameters regenerate."""


class FileFormatError(KernelError):
    """A drawing, prototype library or catalog file could not be parsed."""


class CatalogError(KernelError):
    """Catalog lookup or application failed."""


class NoProtectionAtHeight(KernelError):
    """Requested section height is at or above the protection zone apex."""


class OutOfMethodRange(KernelError):
    """Rod height exceeds the single-rod method's validity bound."""
