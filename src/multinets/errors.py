"""Typed errors for geometric degeneracies.

Every genericity failure surfaces as one of these exceptions rather than
a silent fallback; callers that want boolean predicates catch them at the
predicate boundary.
"""

import numpy as np


class GeometryError(Exception):
    """Base class for all geometric failures."""


# -- homogeneous kernel ------------------------------------------------------

class ZeroVector(GeometryError):
    """All coordinates below absolute tolerance; no projective point."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient spaces."""


class NonFiniteCoordinate(GeometryError):
    """A coordinate is NaN or infinite."""


class SkewLines(GeometryError):
    """Lines span rank 4; no intersection point."""


class IdenticalLines(GeometryError):
    """Lines span rank 2; intersection not unique."""


class IsotropicMirror(GeometryError):
    """Reflection mirror lies on the quadric (vanishing denominator)."""


class NotOnQuadric(GeometryError):
    """Point fails the quadric incidence |<x,x>| ~ 0."""


# -- quad / net structure ----------------------------------------------------

class NonPlanarQuad(GeometryError):
    """Four points span rank 4; no Laplace data."""


class DegenerateQuad(GeometryError):
    """Three collinear vertices (or coincident ones); Laplace data undefined."""


class ZeroSum(GeometryError):
    """A homogeneous partial sum vanished during net construction."""


class PerspectivityViolation(GeometryError):
    """Strip or polyline data is not in perspective with the Laplace point."""


class InconsistentCorner(GeometryError):
    """Two Cauchy strips disagree on their shared corner quad."""


class PointOffLine(GeometryError):
    """A prescribed Laplace point does not lie on its carrier line."""


class NotMultiQ(GeometryError):
    """Net has no consistent translation gauge (not a multi-Q-net)."""


# -- quadric generation ------------------------------------------------------

class MirrorsNotOrthogonal(GeometryError):
    """The two mirror families are not mutually orthogonal."""


class SeedNotOnQuadric(GeometryError):
    """Initial point of a reflection generation is off the quadric."""


class DegenerateOrbit(GeometryError):
    """Seed fixed by a mirror; reflection orbit collapses."""


# -- circular nets -----------------------------------------------------------

class DuplicatePoints(GeometryError):
    """Concyclicity test received coincident points."""


class DegenerateStrip(GeometryError):
    """Strip contained in a single circle; strip sphere not unique."""


class NotMultiCircular(GeometryError):
    """Operation requires a multi-circular net."""


class NotCircular(GeometryError):
    """Operation requires a circular net."""


class DegenerateProfile(GeometryError):
    """Canonical sampler profile is degenerate."""


# -- conical nets ------------------------------------------------------------

class ZeroNormal(GeometryError):
    """Plane covector has vanishing normal part."""


class NotConcurrent(GeometryError):
    """Four planes do not meet in a common point."""


class NotOnSphere(GeometryError):
    """Net vertices are not on the unit sphere."""


class SingularPropagation(GeometryError):
    """Parallel-net offset propagation hit a vanishing coefficient."""


# -- subdivision -------------------------------------------------------------

class NotConcyclic(GeometryError):
    """Quadrilateral corners are not concyclic."""


class ArcsNotOrthogonal(GeometryError):
    """Seed arcs do not intersect orthogonally."""


class DegenerateLaplaceSphere(GeometryError):
    """Laplace sphere of a circular quad is degenerate (not real/unique)."""


class SeedArcsNotC1(GeometryError):
    """Seed arc splines are not tangent-continuous at shared vertices."""


# -- line congruences --------------------------------------------------------

class PlanarFamily(GeometryError):
    """A line family lies in an isotropic plane; factorization degenerates."""


class NotMultiCongruence(GeometryError):
    """Line grid is not a multi-line congruence."""


class CoincidentPoints(GeometryError):
    """Two points meant to span a line coincide."""


# -- io / cli ----------------------------------------------------------------

class SchemaViolation(GeometryError):
    """Net file does not match the JSON schema."""


class InfiniteVertex(GeometryError):
    """Mesh export hit a vertex at infinity."""


def raise_unless_finite(coords, what: str, skip=None):
    """Raise NonFiniteCoordinate for the first entry, in C order, of a grid
    of coordinate vectors (..., d) that holds a NaN or an infinity; entries
    flagged in the boolean mask skip (...) are not checked.  A single vector
    (d,) is named without an index."""
    if np.isfinite(coords).all():  # the common case, in one pass
        return
    bad = ~np.all(np.isfinite(coords), axis=-1)
    if skip is not None:
        bad &= ~skip
    if np.any(bad):
        where = np.argwhere(bad)[0].tolist()
        name = f"{what} ({', '.join(map(str, where))})" if where else what
        raise NonFiniteCoordinate(f"{name} has a non-finite coordinate")


def first_failure(checks):
    """The first failure of a batch of entries under an ordered list of checks.

    checks holds (fails, make) pairs in the order one entry is checked:
    fails flags the failing entries (flattened in C order) and make(k)
    builds the exception of entry k.  Returns (k, exception) for the first
    failing entry and its first failing check, or None.
    """
    first = None
    for fails, make in checks:
        hits = fails.ravel().nonzero()[0]
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), make)
    return None if first is None else (first[0], first[1](first[0]))


def raise_first_failure(checks):
    """Raise the exception that first_failure finds, if any."""
    failure = first_failure(checks)
    if failure is not None:
        raise failure[1]
