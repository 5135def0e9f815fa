import dataclasses

import numpy as np
import pytest

from orbit_isom import orbit_geometry
from orbit_isom.fixtures import fixture_document
from orbit_isom.repr_model import enumerate_group, parse_spec
from orbit_isom.verification import _AnalysisMemo


@pytest.fixture(scope="session")
def memo():
    """Shared analysis cache so each source is analyzed once per session."""
    return _AnalysisMemo(seed=0)


@pytest.fixture(scope="session")
def finite_group():
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = enumerate_group(parse_spec(fixture_document(name)))
        return cache[name]

    return build


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def so3_zyz(alpha, beta, gamma):
    """Rz(alpha) Ry(beta) Rz(gamma), written out entry by entry."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry_b = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz_g = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz_a @ ry_b @ rz_g


def spec_of(generators, dimension, **extra):
    """Finite spec of the generators, entries written as exact decimals."""
    doc = {
        "dimension": dimension,
        "kind": "finite",
        "generators": [[[repr(float(v)) for v in row] for row in g]
                       for g in generators],
    }
    doc.update(extra)
    return parse_spec(doc)


def signed_permutations(n):
    """Generators of the signed-permutation group B_n (order 2^n n!)."""
    swap = np.eye(n)[[1, 0] + list(range(2, n))]
    cycle = np.roll(np.eye(n), 1, axis=0)
    flip = np.eye(n)
    flip[0, 0] = -1.0
    return [swap, cycle, flip]


def cyclic_weights(n, weights):
    """Generator of C_n on C^k rotating block j by 2 pi weights[j] / n."""
    k = len(weights)
    g = np.zeros((2 * k, 2 * k))
    for j, w in enumerate(weights):
        g[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rot2(2.0 * np.pi * w / n)
    return g


def random_orthogonal(d, seed):
    """A Haar-random d x d orthogonal matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def in_random_basis(generators, seed):
    """The generators conjugated by a Haar-random orthogonal matrix."""
    q = random_orthogonal(generators[0].shape[0], seed)
    return [q @ g @ q.T for g in generators]


def with_kernel_edit(result, *, parts=None, center_circle_index=None):
    """The analysis ``result`` with its kernel's per-factor parts, or the
    center circle index of its first factor, replaced."""
    kernel, equiv = result.kernel, result.equiv
    if parts is not None:
        kernel = dataclasses.replace(kernel, parts=parts)
    if center_circle_index is not None:
        first = dataclasses.replace(equiv.factors[0], center_circle_index=center_circle_index)
        equiv = dataclasses.replace(equiv, factors=(first,) + equiv.factors[1:])
    return dataclasses.replace(result, kernel=kernel, equiv=equiv)


def stall_newton_ascent(monkeypatch, *, converged):
    """Make every Newton ascent return its start element, with the given
    ``converged`` flag."""
    def stalled(action, a, b, g0, **_):
        g0 = np.array(g0, dtype=float)
        return g0, np.einsum("ni,nij,nj->n", a, g0, b), np.full(len(g0), converged)

    monkeypatch.setattr(orbit_geometry, "_newton_ascent", stalled)
