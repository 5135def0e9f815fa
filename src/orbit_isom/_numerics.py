"""Shared numerical kernels.

Rank decisions use singular-value thresholding at 100*eps*||A|| with a guard
band: a singular value inside (threshold, 100*threshold] aborts instead of
guessing. Every exponential is of a skew matrix, in the real spectral form of
``expm`` (Gallier & Xu, "Computing exponentials of skew-symmetric
matrices and logarithms of orthogonal matrices", 2002).

``one_blas_thread`` runs the block it guards with OpenBLAS on one thread.
It guards the finite-group analysis in
``isom_quotient.quotient_isometry_group`` and the quotient-metric oracle:
``orbit_geometry._group_min`` (every quotient and sphere distance, orbit
test and descend check), ``orbit_geometry.sector_angle_estimate`` and
``lift_verify.verify_hopf_metric``. A catalog analysis runs outside it,
except for the orbit tests its kernel search makes.
"""
from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import RankAmbiguityError

EPS = float(np.finfo(np.float64).eps)
RANK_GUARD = 100.0


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def banded_row_max(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Max norm of each row of an (n, m) array, exact where it lies in
    (lo, hi]; elsewhere some value on the same side of lo and of hi, for
    lo <= hi.

    A row's l1 norm bounds its max norm from both sides, max <= l1 <= m max,
    and the l1 norms come from one BLAS product, far cheaper than a row-wise
    max. A row with l1 <= lo has its max at or under lo, and one with
    l1 / m > hi has it over hi; only the rows between get the exact max.
    The margin of 1e-9 covers the rounding of the sums.
    """
    mags = np.abs(rows)
    m = mags.shape[1]
    out = mags @ np.ones(m)
    high = out > m * hi * (1.0 + 1e-9)
    out[high] /= m
    between = ~high & (out > lo * (1.0 - 1e-9))
    out[between] = mags[between].max(axis=1, initial=0.0)
    return out


def orthogonality_residual(g: np.ndarray) -> float:
    """Max-norm of g^T g - I; inf for non-finite g, so that a check
    ``residual > tol`` rejects it (NaN compares False)."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        return math.inf
    return max_abs(g.T @ g - np.eye(g.shape[0]))


def split_spectrum(singular_values: np.ndarray, rank_tol: float, what: str) -> int:
    """Rank from a sorted (descending) singular value array, guard-banded."""
    s = np.asarray(singular_values, dtype=float)
    in_band = (s > rank_tol) & (s <= RANK_GUARD * rank_tol)
    if np.any(in_band):
        raise RankAmbiguityError(
            f"{what}: singular value {s[in_band][0]:.3e} inside the guard band "
            f"({rank_tol:.3e}, {RANK_GUARD * rank_tol:.3e}]; tighten the input"
        )
    return int(np.sum(s > rank_tol))


def nullspace(a: np.ndarray, *, rank_tol: float | None = None, what: str = "system"):
    """Orthonormal columns spanning the numerical null space of ``a``.

    Returns ``(null_basis, range_basis)`` where the columns of the two
    matrices are orthonormal and jointly span the domain. ``rank_tol``
    defaults to 100*eps*||a||_2.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.eye(n), np.zeros((n, 0))
    _, s, vh = np.linalg.svd(a)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return np.eye(n), np.zeros((n, 0))
    tol = rank_tol if rank_tol is not None else RANK_GUARD * EPS * smax
    rank = split_spectrum(s, tol, what)
    return vh[rank:].T.copy(), vh[:rank].T.copy()


def span_basis(mats: np.ndarray, *, rank_tol: float | None = None, what: str = "span"):
    """Orthonormal (Frobenius) basis of span{mats[k]} as a (r, d, d) stack."""
    mats = np.asarray(mats, dtype=float)
    if mats.size == 0:
        return mats.reshape((0,) + mats.shape[1:])
    k = mats.shape[0]
    flat = mats.reshape(k, -1)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return mats[:0]
    tol = rank_tol if rank_tol is not None else RANK_GUARD * EPS * smax
    rank = split_spectrum(s, tol, what)
    return vh[:rank].reshape((rank,) + mats.shape[1:]).copy()


def skew_spectrum(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Omega) with -S^2 = Q diag(Omega^2) Q^T for a skew S or a stack of
    them, from one real ``eigh``: the eigenvalues of S are +-i Omega."""
    mu, q = np.linalg.eigh(-(s @ s))
    return q, np.sqrt(np.maximum(mu, 0.0))


def rotation_terms(w: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(w t), sin(w t) / w) for frequencies w >= 0 and times t, broadcast
    together; sin(w t) / w is t where w = 0. (np.sinc, whose argument is
    rescaled by pi, would cost up to 1.8e-15 at w t = 14.)"""
    wt = w * t
    sinc = np.empty(wt.shape)
    sinc[...] = t
    np.divide(np.sin(wt), w, out=sinc, where=w > 0)
    return np.cos(wt), sinc


def expm(a: np.ndarray) -> np.ndarray:
    """exp(A) = Q cos(Omega) Q^T + A Q (sin(Omega) / Omega) Q^T for a skew
    matrix A or a stack of them, from ``skew_spectrum(A)``."""
    a = np.asarray(a, dtype=float)
    q, omega = skew_spectrum(a)
    cos, sinc = rotation_terms(omega[..., None, :], 1.0)
    qt = q.swapaxes(-1, -2)
    return (q * cos) @ qt + a @ ((q * sinc) @ qt)


# (getter, setter) symbol names of an OpenBLAS thread count: numpy's and
# scipy's wheels prefix them with scipy_ (numpy's ILP64 build also appends
# 64_), a system library does not.
_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "") for suffix in ("64_", ""))

_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS library mapped
    into the process, found through /proc/self/maps on first use; empty
    where there is none or no such file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def one_blas_thread():
    """Runs the block with every OpenBLAS library on one thread.

    The program's products are small, and a second OpenBLAS thread buys no
    speed on them: it spins between calls and doubles the CPU time. The
    outermost entry reads each library's thread count and sets it to one,
    and the outermost exit puts the counts back, on an exception too. A
    depth count under a lock makes nested entries, and entries from
    several Python threads, one span: the last one out restores.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_, n) for get, set_ in _openblas() if (n := get()) != 1]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, n in _blas_saved:
                    set_(n)


# golden_minimize and coordinate_descent have no caller in the package: the
# quotient-metric refinement is the Newton ascent alone. The benchmark's
# tracer still looks ``coordinate_descent`` up by name for its fallback
# metrics, so both stay until the benchmark drops those metrics.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minimize(f, lo: float, hi: float, *, xtol: float = 1e-11, max_iter: int = 120):
    """Golden-section minimum of a unimodal scalar function on [lo, hi].

    Returns (x, f(x)). Also samples the endpoints so an edge minimum cannot
    be missed when the bracket is not interior.
    """
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > xtol and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        it += 1
    candidates = [(f(lo), lo), (f1, x1), (f2, x2), (f(hi), hi)]
    fx, x = min(candidates, key=lambda p: p[0])
    return x, fx


def coordinate_descent(f, params: np.ndarray, spans: np.ndarray, *,
                       xtol: float = 1e-12,
                       target: float | None = None) -> tuple[np.ndarray, float]:
    """Cyclic per-coordinate golden-section descent, at most six cycles.

    ``spans`` are per-axis initial bracket half-widths (grid spacings).
    Brackets shrink toward each accepted move; stops early once a sweep
    yields no improvement, or, when ``target`` is given, once f < target.
    """
    p = np.array(params, dtype=float)
    spans = np.array(spans, dtype=float)
    best = f(p)
    for _ in range(6):
        improved = False
        for i in range(p.size):
            def slice_f(x, i=i):
                q = p.copy()
                q[i] = x
                return f(q)
            x, fx = golden_minimize(slice_f, p[i] - spans[i], p[i] + spans[i], xtol=xtol)
            if fx < best - 1e-15:
                moved = abs(x - p[i])
                p[i] = x
                best = fx
                spans[i] = max(4.0 * moved, 64.0 * xtol)
                improved = True
        if target is not None and best < target:
            break
        if not improved:
            spans *= 0.25
            if np.all(spans < 8.0 * xtol):
                break
    return p, best


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
    return v / n


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random element of SO(dim): the QR factor Q of a normal matrix,
    signs fixed by R's diagonal, first column negated where det Q = -1."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_unit_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit vectors along the last axis of ``shape``, from one draw of normals.

    The stream is the one that as many calls of ``random_unit_vector`` read,
    in C order. A row of norm under 1e-12 (probability ~0) is drawn again;
    rows after it then differ from the one-by-one stream.
    """
    v = rng.standard_normal(shape)
    # The stacked product sums like the dot product inside np.linalg.norm
    # of one vector, so the rows match the one-by-one draws bit for bit.
    norms = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    for row in zip(*np.nonzero(norms[..., 0] < 1e-12)):
        v[row] = random_unit_vector(rng, shape[-1])
        norms[row] = 1.0
    return v / norms
