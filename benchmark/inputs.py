"""Seeded input generators for the benchmark.

Every random generator takes a ``numpy.random.Generator``, so one workload
seed fixes every input. Finite groups come out as
spec documents with decimal-string entries, the same form the fixture
files use, so the program parses them exactly as it parses a user's file.
"""
from __future__ import annotations

import math

import numpy as np


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def signed_permutation_generators(n: int) -> list[np.ndarray]:
    """Generators of B_n: a transposition, an n-cycle and one sign flip."""
    swap = np.eye(n)[[1, 0] + list(range(2, n))]
    cycle = np.roll(np.eye(n), 1, axis=0)
    flip = np.eye(n)
    flip[0, 0] = -1.0
    return [swap, cycle, flip]


def signed_permutation_order(n: int) -> int:
    return 2 ** n * math.factorial(n)


def cyclic_weight_generator(n: int, weights) -> np.ndarray:
    """C_n acting on C^k = R^2k, the generator rotating block j by 2 pi w_j / n."""
    k = len(weights)
    g = np.zeros((2 * k, 2 * k))
    for j, w in enumerate(weights):
        g[2 * j:2 * j + 2, 2 * j:2 * j + 2] = _rot(2.0 * math.pi * w / n)
    return g


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random element of SO(dim)."""
    q = random_orthogonal(rng, dim)
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def conjugate(generators, q: np.ndarray) -> list[np.ndarray]:
    """The same representation in the basis given by the columns of q."""
    return [q @ np.asarray(g, dtype=float) @ q.T for g in generators]


def finite_doc(generators, rng: np.random.Generator, *, cap: int | None = None) -> dict:
    """Spec document of the generators in a random orthogonal basis."""
    dim = np.asarray(generators[0]).shape[0]
    gens = conjugate(generators, random_orthogonal(rng, dim))
    doc = {
        "dimension": dim,
        "kind": "finite",
        "generators": [[[repr(float(v)) for v in row] for row in g] for g in gens],
    }
    if cap is not None:
        doc["groupSizeCap"] = cap
    return doc


def signed_permutation_doc(n: int, rng: np.random.Generator) -> dict:
    """B_n in a random orthogonal basis, its group-size cap set to its order."""
    return finite_doc(signed_permutation_generators(n), rng,
                      cap=signed_permutation_order(n))


def cyclic_weight_doc(n: int, weights, rng: np.random.Generator) -> dict:
    """C_n on C^k with the given weights, in a random orthogonal basis."""
    return finite_doc([cyclic_weight_generator(n, weights)], rng)


def point_pairs(rng: np.random.Generator, dim: int, count: int):
    """``count`` pairs of standard Gaussian vectors in R^dim."""
    return [(rng.standard_normal(dim), rng.standard_normal(dim)) for _ in range(count)]
