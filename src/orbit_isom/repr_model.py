"""Input model: representation specs, finite matrix-group closure, and the
splitting off of trivial factors.

A representation is given by orthogonal generator matrices acting on R^d (or
by a catalog id for the built-in continuous actions). Finite groups are
enumerated by Dimino's algorithm: <g_1 ... g_i> is built as a union of right
cosets of <g_1 ... g_(i-1)>, and while that subgroup is still trivial the
generator's powers are taken by doubling. Cosets are equal or disjoint, so
only the head of a coset, a product of a representative with a generator,
is looked up, and a new head's coset is stored whole. Lookups go through a
projection-key index: each matrix is keyed by its inner product with a
fixed unit matrix, candidates are the stored matrices whose keys lie within
d times the guard band, and a candidate matches within 1e-8 in max norm. The
keys of each stored block form a sorted run, and runs merge geometrically.
At the end one sort of all the keys checks that no two elements lie closer
than 10x the match tolerance, which would abort the run, and then serves as
the group's index. Orthogonality drift is bounded per coset from the drift
of its head and of the subgroup; only a coset whose bound exceeds the match
tolerance gets its elements' Gram matrices.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
# ``FiniteGroupData.is_generic`` needs every nonidentity element to move the
# point by more than this.
GENERIC_MIN_MOVE = 1e-4
# The dedup key's projection comes from a constant seed, not the user's: it
# decides which elements get compared, never a verdict.
_KEY_SEED = 4
# Matrices formed and looked up at once during enumeration: the products of
# a batch of coset representatives with the generators, or a batch of powers
# or coset blocks.
_BATCH = 8192
# Index rows reserved up front for an enumeration, at most this many bytes.
# np.empty leaves untouched rows unbacked, so the reservation costs no
# resident memory until rows are written; a larger group grows the buffer.
_RESERVE_BYTES = 1 << 28


@dataclass(frozen=True)
class RepresentationSpec:
    """Validated description of an orthogonal action on R^dimension."""

    dimension: int
    generators: tuple[np.ndarray, ...]
    kind: str = "finite"
    tolerance: float = DEFAULT_TOLERANCE
    group_size_cap: int = DEFAULT_GROUP_SIZE_CAP

    @property
    def catalog_id(self) -> str | None:
        if self.kind.startswith("catalog:"):
            return self.kind.split(":", 1)[1]
        return None


_SPEC_KEYS = {"dimension", "kind", "generators", "tolerance", "groupSizeCap"}


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
            if not math.isfinite(out[i, j]):
                raise ValidationError(
                    f"generator {index}, entry ({i},{j}): {entry!r} is not finite")
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
    if (not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool)
            or not 0 < tolerance < math.inf):
        raise ValidationError("tolerance must be a positive finite number")
    cap = doc.get("groupSizeCap", DEFAULT_GROUP_SIZE_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValidationError("groupSizeCap must be a positive integer")

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


def _merged(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One sorted run of (keys, stored indices) from several: numpy's stable
    sort of floats, a timsort, merges ascending runs in one pass each."""
    keys = np.concatenate([run[0] for run in runs])
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate([run[1] for run in runs])[order]


class _KeyIndex:
    """Sorted projection-key index over a growing stack of d x d matrices.

    The key of A is k(A) = <W, A> for a fixed W with ||W||_F = 1, so that
    |k(A) - k(B)| <= ||W||_1 ||A - B||_max <= d ||A - B||_max. A lookup
    compares a matrix with every stored one whose key lies within
    d * DEDUP_GUARD * DEDUP_TOL of its own, which includes every stored
    matrix inside the guard band: W decides which matrices get compared,
    never a verdict. (||W||_1 reaches d only when all entries of W have one
    magnitude, so the window also absorbs the roundoff of the keys.)
    Matrices are stored as flat (d*d) rows, which is how ``_same`` compares
    them.

    ``append`` (or ``commit``, for a stack formed in place in the ``spare``
    rows) stores a stack without looking it up: the caller vouches that it
    is new, and ``seal`` checks that. The keys of each stored stack form
    one sorted run, and the newest run is merged into the one before it
    while that one is less than twice as long. Each run is then at least
    twice the next, so N stored rows make at most log2(N) + 1 runs, and a
    store re-sorts only the runs that its run outgrows, not every stored
    key. ``lookup`` searches each run.
    ``seal`` merges the runs into one, the single sort of all N keys, which
    then serves as the index, and checks from it that the stored matrices
    are pairwise farther apart than the guard band: every pair of keys
    within the window is compared, and a pair inside the band or within
    DEDUP_TOL raises DedupAmbiguityError. Which pairs fall in a window, and
    so every verdict, does not depend on the order of tied keys.
    """

    def __init__(self, dim: int, capacity: int = 0) -> None:
        """An empty index of dim x dim matrices with room for ``capacity``
        rows before the buffer grows."""
        w = np.random.default_rng(_KEY_SEED).standard_normal(dim * dim)
        self._dim = dim
        self._w = w / np.linalg.norm(w)
        self._radius = dim * DEDUP_GUARD * DEDUP_TOL
        self._size = 0
        self._flat = np.empty((capacity, dim * dim))
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []  # (ascending keys, stored index)

    def __len__(self) -> int:
        return self._size

    @property
    def elements(self) -> np.ndarray:
        return self._flat[:self._size].reshape(self._size, self._dim, self._dim)

    def keys(self, flat: np.ndarray) -> np.ndarray:
        """Keys of an (n, d*d) stack."""
        return flat @ self._w

    def spare(self, n: int) -> np.ndarray:
        """The n buffer rows past the stored ones, as a writable (n, d*d)
        view in which a stack can be formed and then stored by ``commit``;
        grows the buffer if needed."""
        size = self._size + n
        if size > len(self._flat):
            grown = np.empty((max(size, 2 * len(self._flat)), self._flat.shape[1]))
            grown[:self._size] = self._flat[:self._size]
            self._flat = grown
        return self._flat[self._size:size]

    def commit(self, n: int, keys: np.ndarray | None = None,
               order: np.ndarray | None = None) -> None:
        """Store the first n spare rows; their keys and the argsort of those
        are formed here unless the caller has them."""
        rows = self.spare(n)
        if keys is None:
            keys = self.keys(rows)
        if order is None:
            order = np.argsort(keys)
        runs = self._runs
        runs.append((keys[order], self._size + order))
        self._size += n
        while len(runs) > 1 and len(runs[-2][0]) < 2 * len(runs[-1][0]):
            runs[-2:] = [_merged(runs[-2:])]

    def append(self, flat: np.ndarray) -> None:
        """Store the rows of an (n, d*d) stack in order."""
        self.spare(len(flat))[:] = flat
        self.commit(len(flat))

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Stored index matching each matrix of an (n, d, d) stack, or -1."""
        flat = mats.reshape(len(mats), self._w.size)
        keys = self.keys(flat)
        below, above = keys - self._radius, keys + self._radius
        rows, stored = [], []
        for ascending, run_stored in self._runs:
            lo = np.searchsorted(ascending, below, "left")
            hi = np.searchsorted(ascending, above, "right")
            hit = np.flatnonzero(hi > lo)
            if len(hit):
                run_rows, cols = _window_pairs(lo[hit], hi[hit])
                rows.append(hit[run_rows])
                stored.append(run_stored[cols])
        found = np.full(len(flat), -1)
        if rows:
            rows, stored = np.concatenate(rows), np.concatenate(stored)
            same = _same(flat.take(rows, axis=0), self._flat.take(stored, axis=0))
            found[rows[same]] = stored[same]
        return found

    def first_blocks(self, flat: np.ndarray, keys: np.ndarray, order: np.ndarray,
                     size: int) -> np.ndarray:
        """Mask of the blocks of ``size`` rows of an (n, d*d) stack, given its
        keys and their argsort, whose first row matches no row of an earlier
        block."""
        first = np.ones(len(flat) // size, dtype=bool)
        if len(first) == 1:
            return first
        ascending = keys[order]
        heads = keys[::size]
        lo = np.searchsorted(ascending, heads - self._radius, "left")
        hi = np.searchsorted(ascending, heads + self._radius, "right")
        blocks, cols = _window_pairs(lo, hi)
        rows = order[cols]
        earlier = rows // size < blocks
        if not np.any(earlier):
            return first
        blocks, rows = blocks[earlier], rows[earlier]
        same = _same(flat.take(blocks * size, axis=0), flat.take(rows, axis=0))
        first[blocks[same]] = False
        return first

    def seal(self) -> None:
        """Merge the runs into one, release the buffer rows past the stored
        ones, and raise DedupAmbiguityError unless the stored matrices are
        pairwise farther apart than the guard band."""
        if len(self._flat) > self._size:
            self._flat = self._flat[:self._size].copy()
        if len(self._runs) > 1:
            self._runs = [_merged(self._runs)]
        if not self._runs:
            return
        ascending, stored = self._runs[0]
        # The keys ascend: once no pair ``gap`` apart lies within the
        # window, no pair farther apart does.
        pairs = []
        for gap in range(1, len(ascending)):
            close = np.flatnonzero(ascending[gap:] - ascending[:-gap] <= self._radius)
            if not len(close):
                break
            pairs.append((stored[close], stored[close + gap]))
        if pairs:
            a, b = (np.concatenate(side) for side in zip(*pairs))
            if np.any(_same(self._flat.take(a, axis=0), self._flat.take(b, axis=0))):
                raise DedupAmbiguityError(
                    f"two elements within {DEDUP_TOL:.0e} of each other in max norm: "
                    "a repeated element, or in an enumeration two overlapping cosets")


@dataclass
class FiniteGroupData:
    """Deduplicated element list of a finite orthogonal matrix group.

    elements[identity_index] is the identity. An enumerated group lists its
    elements in the deterministic coset order of ``enumerate_group``, the
    identity first.
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

    def is_generic(self, x: np.ndarray) -> bool:
        """Whether x has trivial isotropy with margin: every nonidentity
        element moves it by more than GENERIC_MIN_MOVE. In the trivial
        group every x is generic."""
        if self.order == 1:
            return True
        x = np.asarray(x, dtype=float)
        moved = np.linalg.norm(x[None, :] - self.elements @ x, axis=1)
        moved[self.identity_index] = np.inf
        return bool(moved.min() > GENERIC_MIN_MOVE)

    def fs_sample(self) -> tuple[np.ndarray, np.ndarray]:
        """(elements, weights) averaging over the group exactly: every
        element, with weight 1/|G|."""
        return self.elements, np.full(self.order, 1.0 / self.order)

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Index of the stored element matching each matrix of an (n, d, d)
        stack within dedup tolerance, or -1."""
        return self._index.lookup(np.asarray(mats, dtype=float))

    def find(self, mat: np.ndarray) -> int | None:
        """Index of the stored element matching ``mat`` within dedup
        tolerance, or None."""
        idx = int(self.lookup(np.asarray(mat, dtype=float)[None])[0])
        return None if idx < 0 else idx

    @classmethod
    def from_elements(cls, elements, generators=None,
                      identity_index: int | None = None) -> "FiniteGroupData":
        """Index a list of matrices known to form a group (e.g. a restricted
        copy of an enumerated group), generated by ``generators``, or by all
        of its elements when they are None. Given generators must be a
        nonempty list of elements: the center and equivariance checks test
        against them only."""
        mats = np.asarray(elements, dtype=float)
        index = _KeyIndex(mats.shape[1], len(mats))
        index.append(mats.reshape(len(mats), -1))
        index.seal()
        if identity_index is None:
            identity_index = int(index.lookup(np.eye(mats.shape[1])[None])[0])
            if identity_index < 0:
                raise ValidationError("element list does not contain the identity")
        if generators is None:
            gens = index.elements
        else:
            gens = np.asarray(generators, dtype=float)
            if len(gens) == 0:
                raise ValidationError("an explicit generator list must not be empty")
            if gens.shape[1:] != mats.shape[1:] or np.any(index.lookup(gens) < 0):
                raise ValidationError("every generator must be one of the elements")
        return cls(
            elements=index.elements,
            identity_index=identity_index,
            generators=tuple(gens),
            _index=index,
        )


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (n, m, d, d) array of the products left[a] @ right[b] of an
    (n, d, d) and an (m, d, d) stack, from one matrix product."""
    n, d, _ = left.shape
    out = left.reshape(n * d, d) @ right.transpose(1, 0, 2).reshape(d, -1)
    return out.reshape(n, d, len(right), d).transpose(0, 2, 1, 3)


def _drift(blocks: np.ndarray) -> np.ndarray:
    """The largest drift(A) = ||A^T A - I||_max in each block of an
    (n, m, d, d) stack."""
    n, m, d, _ = blocks.shape
    mats = blocks.reshape(n * m, d, d)
    # A contiguous transpose sends A^T A down numpy's gemm path, which is
    # several times faster on small matrices than its syrk path.
    gram = np.matmul(mats.transpose(0, 2, 1).copy(), mats)
    return np.abs(gram - np.eye(d)).reshape(n, -1).max(axis=1)


def enumerate_group(spec: RepresentationSpec) -> FiniteGroupData:
    """Dimino closure of the generators: <g_1 ... g_i> is built as a union of
    right cosets H r of H = <g_1 ... g_(i-1)>.

    While H is trivial, the powers P = (1, g, ..., g^(m-1)) of g = g_i grow
    by doubling: the block P g^m is formed, with g^m = g^(m-1) g, and its
    elements that match no stored one are stored, until a block holds a
    known element. Once H is not trivial, the coset representatives, the
    identity first, are worked off in FIFO batches. The products of a batch
    with g_1 ... g_i, in (representative, generator) order, are looked up
    together, and each product r that is not found is a candidate head.
    Only heads are looked up: cosets are equal or disjoint, so H r is new
    iff r matches no stored element and no element of the block H r' of an
    earlier candidate r' of its batch. Then its block H r, in the order of
    H, is stored whole, no other element of it looked up, and r becomes a
    representative. This is exactly the element-by-element order of
    sequential Dimino: element indices depend only on the spec, and the
    identity is at index 0. At the end, one sort of all the keys checks
    that no two stored elements lie within the guard band of each other.

    Orthogonality drift, drift(A) = ||A^T A - I||_max, is bounded per block
    instead of formed per element. For A = h r, A^T A - I = r^T (h^T h - I) r
    + (r^T r - I), and ||r^T E r||_max <= ||E||_2 max_i ||r_i||^2 <=
    d ||E||_max (1 + drift(r)) over the columns r_i of r, so

        drift(h r) <= drift(r) + (1 + drift(r)) d drift(H) + c d^2 eps,

    where c d^2 eps, c = 8, covers the rounding of the product h r, which
    is at most 2 d^(3/2) eps in the Gram matrix, and of the Gram matrices
    themselves, d eps each. drift(r) is formed exactly for each head r and
    each step g^m, and drift(H) is the largest bound over the elements h
    ranges over. Only a block whose bound exceeds DEDUP_TOL gets its exact
    Gram matrices, and their largest drift, plus the rounding term, becomes
    its bound. Every element over DEDUP_TOL is in such a block, so the
    check raises exactly when some element drifts past DEDUP_TOL and quotes
    the largest exact drift.

    Raises GroupSizeCapError iff the order exceeds groupSizeCap,
    DedupAmbiguityError when a head lands in the guard band of a stored
    element or of an earlier block of its batch, or two stored elements
    lie within the guard band of each other (for d <= 10 the head lookup
    rules this out), and ValidationError for the drift.
    """
    if spec.kind != "finite":
        raise ValidationError("enumerate_group requires kind=finite")
    gens = np.array(spec.generators)
    d = spec.dimension
    index = _KeyIndex(d, min(spec.group_size_cap, _RESERVE_BYTES // (8 * d * d)))
    index.append(np.eye(d).reshape(1, d * d))
    rounding = 8.0 * d * d * np.finfo(float).eps
    bound = 0.0  # bounds the drift of every stored element
    drift = 0.0  # the largest exact drift formed

    def store(n: int, m: int, right: np.ndarray, left_bound: float,
              keys: np.ndarray | None = None, order: np.ndarray | None = None) -> None:
        """Store n blocks of m matrices formed in the spare rows of the
        index, block j holding products h right[j] with drift(h) <=
        left_bound."""
        nonlocal bound, drift
        if len(index) + n * m > spec.group_size_cap:
            raise GroupSizeCapError(
                f"group closure exceeded groupSizeCap={spec.group_size_cap}"
            )
        r = _drift(right[:, None])
        block_bound = r + (1.0 + r) * d * left_bound + rounding
        over = block_bound > DEDUP_TOL
        if np.any(over):
            exact = _drift(index.spare(n * m).reshape(n, m, d, d)[over])
            drift = max(drift, exact.max())
            block_bound[over] = exact + rounding
        bound = max(bound, block_bound.max())
        index.commit(n * m, keys, order)

    def powers(g: np.ndarray) -> None:
        while True:
            m = len(index)
            low = index.elements[:m]  # g^0 ... g^(m-1)
            step = low[-1] @ g
            for start in range(0, m, _BATCH):
                block = (low[start:start + _BATCH].reshape(-1, d) @ step).reshape(-1, d, d)
                new = index.lookup(block) < 0
                count = np.count_nonzero(new)
                if count:
                    index.spare(count)[:] = block[new].reshape(count, d * d)
                    store(1, count, step[None], bound)
                if count < len(new):
                    return

    def cosets(chain: np.ndarray) -> None:
        h = len(index)
        subgroup_bound = bound
        reps = [0]  # stored index of each representative
        head = 0
        while head < len(reps):
            batch_reps = reps[head:head + max(1, _BATCH // (h * len(chain)))]
            head += len(batch_reps)
            prods = _products(index.elements[batch_reps], chain).reshape(-1, d, d)
            cands = prods[index.lookup(prods) < 0]
            per_batch = max(1, _BATCH // h)
            for start in range(0, len(cands), per_batch):
                heads = cands[start:start + per_batch]
                if start:  # the chunks before may have stored some of these cosets
                    heads = heads[index.lookup(heads) < 0]
                    if not len(heads):
                        continue
                # the blocks H r, formed in place: row (j, a) holds h_a r_j
                rows = index.spare(len(heads) * h)
                np.matmul(index.elements[:h].reshape(h * d, d), heads,
                          out=rows.reshape(len(heads), h * d, d))
                keys = index.keys(rows)
                order = np.argsort(keys)
                new = index.first_blocks(rows, keys, order, h)
                if not np.all(new):
                    kept = np.repeat(new, h)
                    rows[:np.count_nonzero(kept)] = rows[kept]
                    keys, order, heads = keys[kept], None, heads[new]
                size = len(index)
                store(len(heads), h, heads, subgroup_bound, keys, order)
                reps.extend(range(size, len(index), h))

    for i, g in enumerate(gens):
        if len(index) == 1:
            powers(g)
        else:
            cosets(gens[:i + 1])

    index.seal()
    if drift > DEDUP_TOL:
        raise ValidationError(
            f"enumerated element drifted from orthogonality: {drift:.3e} > {DEDUP_TOL:.0e}"
        )
    return FiniteGroupData(
        elements=index.elements,
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
