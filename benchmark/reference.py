"""References derived from the mathematics, and the checkers that use them.

None of these values comes from a run of the program. Report contents
follow from the structure theory: the Schur type and multiplicity of each
isotypic component give the SO/U/Sp factors, and the kernel of a finite
group's descent is the part of its center inside the identity component.
Quotient distances have closed forms for the three catalog actions, and
the two cohomogeneity-2 actions have known sector angles.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from orbit_isom.isom_quotient import FORMULA_BOUNDARY_FREE, FORMULA_SEARCH
from orbit_isom.verification import DESCEND_TOL, SECTOR_TOL

DISTANCE_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """The parts of a report that depend only on the representation."""

    factors: tuple[str, ...]
    finite_order: int
    circles: int
    euclidean_dim: int
    boundary: bool
    rank: int

    @property
    def formula(self) -> str:
        return FORMULA_SEARCH if self.boundary else FORMULA_BOUNDARY_FREE


FIXTURES = {
    # C5 on C: complex irreducible, every element central and inside U(1).
    "c5": Expected(("U(1)",), 5, 0, 0, False, 1),
    # D4 on R^2: real irreducible with reflections; -I is not in SO(1).
    "d4": Expected(("SO(1)",), 1, 0, 0, True, 0),
    # Q8 on H: quaternionic irreducible, commutant H, center {+-1} in Sp(1).
    "q8": Expected(("Sp(1)/{±I}",), 2, 0, 0, False, 1),
    # {+-I} on R^4: real type, multiplicity 4; -I lies in SO(4).
    "pm1-r4": Expected(("SO(4)/{±I}",), 2, 0, 0, False, 2),
    # {+-I} on R^3: -I has determinant -1, so it is not in SO(3).
    "pm1-r3": Expected(("SO(3)",), 1, 0, 0, False, 1),
    # C3 on C + R: one flat direction, then as c5.
    "c3-fix": Expected(("U(1)",), 3, 0, 1, False, 1),
    # Trivial group on R^3: all flat.
    "trivial-r3": Expected((), 1, 0, 3, False, 0),
    # C3 on the first plane (complex) times D4 on the second (real, with
    # reflections); the in-component center is C3.
    "c3xd4-r4": Expected(("U(1)", "SO(1)"), 3, 0, 0, True, 1),
}

CATALOG = {
    # The circle acting diagonally on C^2: commutant M_2(C), and the action
    # circle is the center of U(2).
    "hopf-u1-r4": Expected(("U(2)/center",), 1, 1, 0, False, 1),
    # SO(2) on R^2 is the center circle of U(1); SO(3) on R^3 is real type.
    "so2xso3-r5": Expected(("U(1)/center", "SO(1)"), 1, 1, 0, True, 0),
    # R^2 (x) R^3 is complex irreducible; SO(2) is the center of U(1).
    "so2-tensor-so3-r6": Expected(("U(1)/center",), 1, 1, 0, True, 0),
}

SECTOR_ANGLES = {"so2xso3-r5": math.pi / 2.0, "so2-tensor-so3-r6": math.pi / 4.0}


def signed_permutation_expected() -> Expected:
    """B_n on R^n: real irreducible, with reflections; center {+-I}, and
    -I is not in SO(1)."""
    return Expected(("SO(1)",), 1, 0, 0, True, 0)


def cyclic_weight_expected(n: int, weights) -> Expected:
    """C_n on C^k with distinct weights w with 2w not divisible by n: k
    complex irreducibles, every element central and inside U(1)^k, and no
    element is a reflection."""
    k = len(weights)
    return Expected(("U(1)",) * k, n, 0, 0, False, k)


def report_mismatches(report: dict, want: Expected) -> list[str]:
    """Fields of ``report`` that differ from ``want``. Factors compare as a
    multiset: their order carries no mathematical content."""
    got = {
        "factors": Counter(f["name"] for f in report["compactFactors"]),
        "finiteOrder": report["kernel"]["finiteOrder"],
        "circleDirections": report["kernel"]["circleDirections"],
        "euclideanFactorDim": report["euclideanFactorDim"],
        "boundary": report["boundary"],
        "rank": report["rank"],
        "formulaApplied": report["formulaApplied"],
    }
    expect = {
        "factors": Counter(want.factors),
        "finiteOrder": want.finite_order,
        "circleDirections": want.circles,
        "euclideanFactorDim": want.euclidean_dim,
        "boundary": want.boundary,
        "rank": want.rank,
        "formulaApplied": want.formula,
    }
    return [key for key in got if got[key] != expect[key]]


def _hopf_distance(x: np.ndarray, y: np.ndarray) -> float:
    zx = x[0::2] + 1j * x[1::2]
    zy = y[0::2] + 1j * y[1::2]
    inner = abs(np.vdot(zx, zy))
    return math.sqrt(max(x @ x + y @ y - 2.0 * inner, 0.0))


def _block_distance(x: np.ndarray, y: np.ndarray) -> float:
    return math.hypot(np.linalg.norm(x[:2]) - np.linalg.norm(y[:2]),
                      np.linalg.norm(x[2:]) - np.linalg.norm(y[2:]))


def _tensor_distance(x: np.ndarray, y: np.ndarray) -> float:
    sx = np.linalg.svd(x.reshape(2, 3), compute_uv=False)
    sy = np.linalg.svd(y.reshape(2, 3), compute_uv=False)
    return math.sqrt(max(x @ x + y @ y - 2.0 * float(sx @ sy), 0.0))


CLOSED_FORM_DISTANCE = {
    "hopf-u1-r4": _hopf_distance,
    "so2xso3-r5": _block_distance,
    "so2-tensor-so3-r6": _tensor_distance,
}


def distance_error(action_id: str, x, y, got: float) -> float:
    return abs(got - CLOSED_FORM_DISTANCE[action_id](x, y))


def sector_error(action_id: str, got: float) -> float:
    return abs(got - SECTOR_ANGLES[action_id])

