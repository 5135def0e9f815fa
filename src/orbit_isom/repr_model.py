"""Input model: representation specs, finite matrix-group closure, and the
splitting off of trivial factors.

A representation is given by orthogonal generator matrices acting on R^d (or
by a catalog id for the built-in continuous actions). Finite groups are
enumerated by breadth-first closure under right multiplication by the
generators, a chunk of queued elements at a time. Deduplication goes through
a sorted projection-key index: each matrix is keyed by its inner product with
a fixed unit matrix, candidates are the stored matrices whose keys lie within
d times the guard band, and a candidate matches within 1e-8 in max norm. Two
elements closer than 10x the match tolerance abort the run. A chunk's
products are keyed and sorted once; the lookup against the stored elements,
the search for repeats among the products and the insertion of the new ones
all reuse that sort, and the new keys join the stored ones in one merge.
Orthogonality drift is checked on each chunk's new elements as they arrive.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _numerics as num
from .errors import (
    DedupAmbiguityError,
    GroupSizeCapError,
    ValidationError,
)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_GROUP_SIZE_CAP = 20000
DEFAULT_SEED = 0

DEDUP_TOL = 1e-8
DEDUP_GUARD = 10.0
# The dedup key's projection comes from a constant seed, not the user's: it
# decides which elements get compared, never a verdict.
_KEY_SEED = 4
# Queued elements whose products with the generators are formed at once.
_CHUNK = 1024


@dataclass(frozen=True)
class RepresentationSpec:
    """Validated description of an orthogonal action on R^dimension."""

    dimension: int
    generators: tuple[np.ndarray, ...]
    kind: str = "finite"
    tolerance: float = DEFAULT_TOLERANCE
    group_size_cap: int = DEFAULT_GROUP_SIZE_CAP
    seed: int = DEFAULT_SEED

    @property
    def catalog_id(self) -> str | None:
        if self.kind.startswith("catalog:"):
            return self.kind.split(":", 1)[1]
        return None


_SPEC_KEYS = {"dimension", "kind", "generators", "tolerance", "groupSizeCap", "seed"}


def _parse_matrix(raw, dim: int, index: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValidationError(f"generator {index}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=float)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(
                f"generator {index}, row {i}: expected {dim} entries"
            )
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (str, int, float)):
                raise ValidationError(
                    f"generator {index}, entry ({i},{j}): expected a decimal "
                    f"string, got {type(entry).__name__}"
                )
            try:
                out[i, j] = float(entry)
            except ValueError as exc:
                raise ValidationError(
                    f"generator {index}, entry ({i},{j}): {entry!r} is not a decimal"
                ) from exc
    return out


def parse_spec(document: str | bytes | dict) -> RepresentationSpec:
    """Parse and validate a representation spec document (JSON text or dict).

    Matrix entries arrive as decimal strings and are parsed once to full
    double precision. Every generator must be orthogonal within tolerance.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ValidationError("spec document must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")

    dim = doc.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError("dimension must be a positive integer")
    kind = doc.get("kind", "finite")
    if not (kind == "finite" or (isinstance(kind, str) and kind.startswith("catalog:"))):
        raise ValidationError(f"kind must be 'finite' or 'catalog:<id>', got {kind!r}")

    tolerance = doc.get("tolerance", DEFAULT_TOLERANCE)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or tolerance <= 0:
        raise ValidationError("tolerance must be a positive number")
    cap = doc.get("groupSizeCap", DEFAULT_GROUP_SIZE_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValidationError("groupSizeCap must be a positive integer")
    seed = doc.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("seed must be an integer")

    raw_gens = doc.get("generators", [])
    if kind == "finite" and not raw_gens:
        raise ValidationError("kind=finite requires a nonempty generator list")
    if not isinstance(raw_gens, list):
        raise ValidationError("generators must be a list of matrices")
    gens = []
    for idx, raw in enumerate(raw_gens):
        g = _parse_matrix(raw, dim, idx)
        resid = num.orthogonality_residual(g)
        if resid > tolerance:
            raise ValidationError(
                f"generator {idx} is not orthogonal: ||g^T g - I||_max = "
                f"{resid:.3e} > tolerance {tolerance:.3e}"
            )
        g.setflags(write=False)
        gens.append(g)

    return RepresentationSpec(
        dimension=dim,
        generators=tuple(gens),
        kind=kind,
        tolerance=float(tolerance),
        group_size_cap=cap,
        seed=seed,
    )


def load_spec(path: str) -> RepresentationSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read spec file {path!r}: {err}")
    return parse_spec(text)


def _window_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (row, column) pairs with lo[row] <= column < hi[row]."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, starts + np.arange(len(rows))


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise verdict for two (n, d*d) stacks of flattened matrices: True
    within DEDUP_TOL in max norm, False beyond DEDUP_GUARD * DEDUP_TOL;
    raises in between."""
    dist = num.banded_row_max(a - b, DEDUP_TOL, DEDUP_GUARD * DEDUP_TOL)
    ambiguous = (dist > DEDUP_TOL) & (dist <= DEDUP_GUARD * DEDUP_TOL)
    if np.any(ambiguous):
        raise DedupAmbiguityError(
            f"two elements at max-norm distance {dist[ambiguous].min():.3e}, inside "
            f"({DEDUP_TOL:.0e}, {DEDUP_GUARD * DEDUP_TOL:.0e}]: "
            "dedup tolerance misconfiguration"
        )
    return dist <= DEDUP_TOL


class _Batch(NamedTuple):
    """A stack of matrices prepared for the index: its rows, flattened, and
    the sort of their keys, which lookup, first occurrence and insertion all
    reuse."""

    flat: np.ndarray       # (n, d*d)
    order: np.ndarray      # argsort of the keys
    ascending: np.ndarray  # the keys in that order


class _KeyIndex:
    """Sorted projection-key index over a growing stack of d x d matrices.

    The key of A is k(A) = <W, A> for a fixed W with ||W||_F = 1, so that
    |k(A) - k(B)| <= ||W||_1 ||A - B||_max <= d ||A - B||_max. A lookup
    compares a matrix with every stored one whose key lies within
    d * DEDUP_GUARD * DEDUP_TOL of its own, which includes every stored
    matrix inside the guard band: W decides which matrices get compared,
    never a verdict. (||W||_1 reaches d only when all entries of W have one
    magnitude, so the window also absorbs the roundoff of the keys.) The
    stored matrices must be pairwise farther apart than the guard band, so a
    lookup matches at most one.

    A stack is keyed and sorted once (``batch``). Lookup searches the stored
    keys with the ascending keys as needles, first occurrence scans windows
    of the ascending keys, and ``add`` merges the new keys, already
    ascending, into the stored ones. The sort need not be stable: which
    pairs fall in a window, and so every verdict, does not depend on the
    order of tied keys. Matrices are stored as flat (d*d) rows, which is
    how ``_same`` compares them.
    """

    def __init__(self, mats: np.ndarray) -> None:
        """Index the (n, d, d) stack ``mats``, which must hold no duplicates."""
        d = self._dim = mats.shape[1]
        w = np.random.default_rng(_KEY_SEED).standard_normal(d * d)
        self._w = w / np.linalg.norm(w)
        self._radius = d * DEDUP_GUARD * DEDUP_TOL
        self._size = 0
        self._flat = np.empty((0, d * d))
        self._keys = np.empty(0)  # ascending
        self._order = np.empty(0, dtype=np.intp)  # stored index of each key
        batch = self.batch(mats)
        if not np.all(self.first_occurrences(batch)):
            raise DedupAmbiguityError("duplicate element in the input list")
        self.add(batch, np.ones(len(mats), dtype=bool))

    def __len__(self) -> int:
        return self._size

    @property
    def elements(self) -> np.ndarray:
        return self._flat[:self._size].reshape(self._size, self._dim, self._dim)

    def batch(self, mats: np.ndarray) -> _Batch:
        """Key and sort an (n, d, d) stack."""
        flat = mats.reshape(len(mats), self._w.size)
        keys = flat @ self._w
        order = np.argsort(keys)
        return _Batch(flat, order, keys[order])

    def lookup(self, batch: _Batch) -> np.ndarray:
        """Stored index matching each matrix of the batch, or -1."""
        lo = np.searchsorted(self._keys, batch.ascending - self._radius, "left")
        hi = np.searchsorted(self._keys, batch.ascending + self._radius, "right")
        rows, cols = _window_pairs(lo, hi)
        rows = batch.order[rows]
        stored = self._order[cols]
        same = _same(batch.flat.take(rows, axis=0), self._flat.take(stored, axis=0))
        found = np.full(len(batch.flat), -1)
        found[rows[same]] = stored[same]
        return found

    def first_occurrences(self, batch: _Batch) -> np.ndarray:
        """Mask of the matrices of the batch that match no earlier one."""
        n = len(batch.flat)
        if n == 1:
            return np.ones(1, dtype=bool)
        hi = np.searchsorted(batch.ascending, batch.ascending + self._radius, "right")
        rows, cols = _window_pairs(np.arange(1, n + 1), hi)
        a, b = batch.order[rows], batch.order[cols]
        first = np.ones(n, dtype=bool)
        same = _same(batch.flat.take(a, axis=0), batch.flat.take(b, axis=0))
        first[np.maximum(a, b)[same]] = False
        return first

    def add(self, batch: _Batch, new: np.ndarray) -> None:
        """Append the matrices of the batch selected by the mask ``new``, in
        batch order; they must match no stored one and no other one added."""
        rows = batch.flat[new]
        size = self._size + len(rows)
        if size > len(self._flat):
            grown = np.empty((max(size, 2 * len(self._flat)), self._flat.shape[1]))
            grown[:self._size] = self._flat[:self._size]
            self._flat = grown
        self._flat[self._size:size] = rows
        in_order = new[batch.order]
        keys = np.concatenate([self._keys, batch.ascending[in_order]])
        # the stored index of each new matrix, in key order
        stored = (self._size - 1 + np.cumsum(new))[batch.order[in_order]]
        # Two ascending runs: numpy's stable sort of floats, a timsort,
        # merges them in one pass.
        merge = np.argsort(keys, kind="stable")
        self._keys = keys[merge]
        self._order = np.concatenate([self._order, stored])[merge]
        self._size = size


@dataclass
class FiniteGroupData:
    """Deduplicated element list of a finite orthogonal matrix group.

    elements[identity_index] is the identity; the list order is the
    deterministic BFS insertion order.
    """

    elements: np.ndarray  # (order, d, d)
    identity_index: int
    generators: tuple[np.ndarray, ...]
    _index: _KeyIndex = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dimension(self) -> int:
        return int(self.elements.shape[1])

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Index of the stored element matching each matrix of an (n, d, d)
        stack within dedup tolerance, or -1."""
        return self._index.lookup(self._index.batch(np.asarray(mats, dtype=float)))

    def find(self, mat: np.ndarray) -> int | None:
        """Index of the stored element matching ``mat`` within dedup
        tolerance, or None."""
        idx = int(self.lookup(np.asarray(mat, dtype=float)[None])[0])
        return None if idx < 0 else idx

    @classmethod
    def from_elements(cls, elements, generators=(),
                      identity_index: int | None = None) -> "FiniteGroupData":
        """Index a list of matrices known to form a group (e.g. a restricted
        copy of an enumerated group)."""
        index = _KeyIndex(np.asarray(elements, dtype=float))
        if identity_index is None:
            eye = np.eye(index.elements.shape[1])
            identity_index = int(index.lookup(index.batch(eye[None]))[0])
            if identity_index < 0:
                raise ValidationError("element list does not contain the identity")
        return cls(
            elements=index.elements,
            identity_index=identity_index,
            generators=tuple(np.asarray(g, dtype=float) for g in generators),
            _index=index,
        )


def enumerate_group(spec: RepresentationSpec) -> FiniteGroupData:
    """Breadth-first closure of the generators under multiplication.

    Deterministic: the queue is FIFO and generators are applied in listed
    order, so element indices depend only on the spec. The queue is worked
    off in chunks of consecutive elements: all products of a chunk with the
    generators come from one batched product in (element, generator) order,
    are looked up together, deduplicated among themselves with the first
    occurrence kept, and appended in that order, which is exactly the
    element-by-element insertion order. Raises GroupSizeCapError iff the
    order exceeds groupSizeCap and DedupAmbiguityError when a product lands
    in the guard band of a stored element or of another product.
    """
    if spec.kind != "finite":
        raise ValidationError("enumerate_group requires kind=finite")
    gens = np.array(spec.generators)
    eye = np.eye(spec.dimension)
    index = _KeyIndex(eye[None])
    head = 0
    drift = 0.0
    while head < len(index):
        chunk = index.elements[head:head + _CHUNK]
        head += len(chunk)
        prods = np.matmul(chunk[:, None], gens[None]).reshape((-1,) + gens.shape[1:])
        batch = index.batch(prods)
        new = (index.lookup(batch) < 0) & index.first_occurrences(batch)
        size = len(index)
        if size + np.count_nonzero(new) > spec.group_size_cap:
            raise GroupSizeCapError(
                f"group closure exceeded groupSizeCap={spec.group_size_cap}"
            )
        index.add(batch, new)
        added = index.elements[size:]
        # A contiguous transpose sends A^T A down numpy's gemm path, which is
        # several times faster on small matrices than its syrk path.
        gram = np.matmul(added.transpose(0, 2, 1).copy(), added)
        drift = max(drift, np.abs(gram - eye).max(initial=0.0))

    if drift > DEDUP_TOL:
        raise ValidationError(
            f"enumerated element drifted from orthogonality: {drift:.3e} > {DEDUP_TOL:.0e}"
        )
    stack = index.elements
    return FiniteGroupData(
        elements=stack,
        identity_index=0,
        generators=spec.generators,
        _index=index,
    )


@dataclass(frozen=True)
class TrivialSplit:
    """Orthogonal splitting V = F + F_perp with F the common fixed subspace.

    fixed_basis: (d, f) orthonormal columns spanning F.
    complement_basis: (d, d-f) orthonormal columns spanning F_perp.
    restricted_generators: the generators conjugated into F_perp coordinates.
    """

    fixed_basis: np.ndarray
    complement_basis: np.ndarray
    restricted_generators: tuple[np.ndarray, ...]

    @property
    def fixed_dim(self) -> int:
        return int(self.fixed_basis.shape[1])

    @property
    def complement_dim(self) -> int:
        return int(self.complement_basis.shape[1])


def fixed_subspace(generators, dimension: int, *,
                   tolerance: float = DEFAULT_TOLERANCE) -> TrivialSplit:
    """Common fixed subspace F = {x : g x = x for all generators} and the
    induced split.

    F is the null space of the stacked (g - I); the complement basis comes
    from the same SVD, so both are orthonormal and mutually orthogonal.
    Restricted generators are checked to stay orthogonal within tolerance.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    d = dimension
    if not gens:
        raise ValidationError("fixed_subspace requires at least one generator")
    stacked = np.vstack([g - np.eye(d) for g in gens])
    null_basis, range_basis = num.nullspace(stacked, what="fixed subspace")
    f = null_basis.shape[1]
    if f == 0:
        fixed = np.zeros((d, 0))
        complement = np.eye(d)
    elif f == d:
        fixed = np.eye(d)
        complement = np.zeros((d, 0))
    else:
        fixed = null_basis
        complement = range_basis

    for g in gens:
        if fixed.shape[1] and num.max_abs(g @ fixed - fixed) > max(tolerance, 1e-12):
            raise ValidationError("fixed-subspace residual exceeds tolerance")

    restricted = []
    for g in gens:
        r = complement.T @ g @ complement
        if r.size and num.orthogonality_residual(r) > max(tolerance, 1e-12):
            raise ValidationError("restricted generator lost orthogonality")
        restricted.append(r)
    return TrivialSplit(
        fixed_basis=fixed,
        complement_basis=complement,
        restricted_generators=tuple(restricted),
    )


def restrict_group(group: FiniteGroupData, split: TrivialSplit) -> FiniteGroupData:
    """The enumerated group conjugated into F_perp coordinates.

    The restriction map is injective (an element fixing F pointwise and
    acting trivially on F_perp is the identity), so order and indexing carry
    over unchanged.
    """
    basis = split.complement_basis
    if basis.shape[1] == group.dimension:
        return group
    restricted = np.einsum("ia,nij,jb->nab", basis, group.elements, basis)
    return FiniteGroupData.from_elements(
        restricted,
        generators=split.restricted_generators,
        identity_index=group.identity_index,
    )
