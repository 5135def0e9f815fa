"""Error taxonomy.

Two broad families matter to callers (and to the CLI exit codes): validation
errors (bad input, exit code 1) and ambiguity errors (the computation refused
to guess near a tolerance boundary, exit code 2).
"""


class OrbitIsomError(Exception):
    """Base class for everything raised deliberately by this package."""


class ValidationError(OrbitIsomError):
    """Malformed or inconsistent input: bad JSON, non-orthogonal generators,
    dimension mismatches, unknown catalog ids, mismatched contexts."""


class GroupSizeCapError(ValidationError):
    """Closure enumeration exceeded groupSizeCap (likely an infinite group)."""


class AmbiguityError(OrbitIsomError):
    """A numerical decision fell inside a guard band; refusing to guess."""


class DedupAmbiguityError(AmbiguityError):
    """Two enumerated elements are closer than 10x the dedup tolerance but
    farther than the tolerance itself: tolerance misconfiguration."""


class RankAmbiguityError(AmbiguityError):
    """A singular value landed between the rank threshold and its guard
    band; the input needs tighter tolerances."""


class IsotypicSeparationError(AmbiguityError):
    """Eigenvalue clusters of the randomized splitting element stayed
    unresolved after the allowed re-randomizations."""


class TypeInconsistencyError(AmbiguityError):
    """The restricted commutant of an isotypic component is not M_n(R),
    M_n(C) or M_n(H) by its dimension and the dimension of its skew part,
    or the multiplicity n it reads does not divide the component's
    dimension."""


class KernelAmbiguityError(AmbiguityError):
    """The descent kernel cannot be resolved without guessing: an orbit
    distance fell inside the guard band, the kernel algebra changed
    dimension as generic points were added, or it is no sum of whole
    factors and center circles, so the report cannot express it."""


class InternalCheckError(OrbitIsomError):
    """A hard internal consistency check failed (dimension formulas,
    boundary-free kernel identity); indicates a bug or a hostile input."""
