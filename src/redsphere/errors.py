"""Exception types shared by the whole package.

Everything derives from RedsphereError so callers can catch the library's
failures in one clause.  DomainError doubles as a ValueError because it
signals an argument outside a function's mathematical domain.
"""

__all__ = ["RedsphereError", "DomainError", "DegeneratePoint", "NotConvex",
           "PolygonDocumentError"]


class RedsphereError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RedsphereError, ValueError):
    """Argument outside the open domain of a scalar formula."""


class DegeneratePoint(RedsphereError):
    """A vector too short to normalize onto the unit sphere."""


class NotConvex(RedsphereError):
    """Vertex list is not a strictly convex counterclockwise polygon."""


class PolygonDocumentError(RedsphereError):
    """Polygon JSON document malformed or vertices too far from unit norm."""
