"""Log-scale singular value computations behind the certification routines.

Long products are kept as a unit-norm core with a separate log scale, so
singular value ratios stay computable far past float overflow.  Subspaces
are orthonormal frames; distances are sines of principal angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DependentColumnsError,
    DimensionMismatchError,
    NoGapError,
    ScaleOverflowError,
)
from .words import Letter, ReducedWord

GAP_TOLERANCE = 1e-12
SUBSPACE_TOLERANCE = 1e-8
_NORM_BAND = (0.5, 2.0)
_TINY = 1e-300


@dataclass(frozen=True, eq=False)
class ScaledMatrix:
    """A d x d matrix stored as e^logscale * core with core kept near unit norm."""

    core: np.ndarray
    logscale: float = 0.0

    def __post_init__(self):
        core = np.asarray(self.core, dtype=float)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {core.shape}")
        object.__setattr__(self, "core", core)

    @staticmethod
    def identity(dim: int) -> "ScaledMatrix":
        return ScaledMatrix(np.eye(dim), 0.0)

    @staticmethod
    def of(matrix: np.ndarray) -> "ScaledMatrix":
        return _renormalized(np.array(matrix, dtype=float, order="C"), 0.0)

    @property
    def dim(self) -> int:
        return self.core.shape[0]

    def times(self, factor: np.ndarray) -> "ScaledMatrix":
        """Right-multiply by an ordinary matrix, renormalizing the core."""
        return _renormalized(self.core @ factor, self.logscale)

    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return _renormalized(
            self.core @ other.core, self.logscale + other.logscale
        )

    def matrix(self) -> np.ndarray:
        """Materialize at true scale; refuses when the scale would overflow."""
        if abs(self.logscale) > 600.0:
            raise ScaleOverflowError(
                f"logscale {self.logscale:.1f} is too large to materialize"
            )
        return math.exp(self.logscale) * self.core


def _renormalized(core: np.ndarray, logscale: float) -> ScaledMatrix:
    """Rescale a core to a Frobenius norm (the cheap estimate of the
    operator norm) in band; may rescale core in place."""
    cores, logscales = _renormalized_rows(core[None], np.array([logscale]))
    return ScaledMatrix(cores[0], float(logscales[0]))


def _row_norms(cores: np.ndarray) -> np.ndarray:
    # one BLAS dot per row, as np.linalg.norm takes it for a single core;
    # a batched norm or einsum sums in another order
    flat = cores.reshape(len(cores), -1)
    with np.errstate(over="ignore", under="ignore"):  # renormalized_stack rescales
        squares = np.matmul(flat[:, None, :], flat[:, :, None])
    return np.sqrt(squares).reshape(-1)


def _log_each(values: np.ndarray) -> np.ndarray:
    # math.log, as the one-matrix path uses; np.log differs in the last bit on
    # some inputs
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def renormalized_stack(
    cores: np.ndarray, logscales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_renormalized applied to each matrix of an (N, d, d) stack with its
    log scale; the results are bitwise those of the one-matrix path.  The
    inputs are never modified, and may be returned as they are."""
    estimates = _row_norms(cores)
    out = ~((estimates >= _NORM_BAND[0]) & (estimates <= _NORM_BAND[1]))
    if not np.count_nonzero(out):
        return cores, logscales
    bad = ~np.isfinite(estimates) | (estimates == 0.0)
    if np.count_nonzero(bad):
        # the squares overflowed or underflowed: bring the entries to unit
        # size first (in-range cores never come here, so their bits stay)
        cores, logscales = cores.copy(), logscales.copy()
        scales = np.max(np.abs(cores[bad]), axis=(1, 2))
        if not np.all(np.isfinite(scales) & (scales > 0.0)):
            raise ValueError("matrix entries must be finite and not all zero")
        cores[bad] = cores[bad] / scales[:, None, None]
        logscales[bad] = logscales[bad] + _log_each(scales)
        estimates[bad] = _row_norms(cores[bad])
        out = (estimates < _NORM_BAND[0]) | (estimates > _NORM_BAND[1])
    # in-band rows are divided by 1.0 and shifted by log(1.0) = 0.0, which
    # leaves their bits as they are
    factors = np.where(out, estimates, 1.0)
    return cores / factors[:, None, None], logscales + _log_each(factors)


_FEW_ROWS = 4  # up to this many rows, running_products renormalizes row by row


def _renormalized_rows(
    cores: np.ndarray, logscales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """renormalized_stack for a few rows, bitwise, and in place: a BLAS dot
    and a band check per row, and renormalized_stack for out-of-range rows."""
    estimates = [math.sqrt(row.dot(row)) for row in cores.reshape(len(cores), -1)]
    if not all(0.0 < e < math.inf for e in estimates):
        return renormalized_stack(cores, logscales)
    logscales = logscales.copy()
    for row, e in enumerate(estimates):
        if not _NORM_BAND[0] <= e <= _NORM_BAND[1]:
            cores[row] /= e
            logscales[row] += math.log(e)
    return cores, logscales


def running_products(
    cores: np.ndarray, logscales: np.ndarray, factors: np.ndarray, on_left: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Extend the scale-tracked products of an (R, d, d) stack by the
    (C, R, d, d) factors, one length at a time, into the (C, R, d, d) cores
    and (C, R) log scales of the C products.  The first on_left rows take
    their factors on the left, as ScaledMatrix.compose, the others on the
    right, as ScaledMatrix.times, with their bits."""
    products = np.empty(factors.shape)
    scales = np.empty(factors.shape[:2])
    renormalize = _renormalized_rows if len(cores) <= _FEW_ROWS else renormalized_stack
    with np.errstate(over="ignore", under="ignore"):  # renormalization rescales
        for t, factor in enumerate(factors):
            out = products[t]
            if on_left:
                np.matmul(factor[:on_left], cores[:on_left], out=out[:on_left])
            if on_left < len(out):
                np.matmul(cores[on_left:], factor[on_left:], out=out[on_left:])
            out[...], scales[t] = renormalize(out, logscales)
            cores, logscales = out, scales[t]
    return products, scales


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images of a free group in GL(d, R), inverses precomputed."""

    rank: int
    dim: int
    images: Mapping[Letter, np.ndarray]

    @staticmethod
    def of(generators: Sequence[np.ndarray]) -> "Representation":
        if not generators:
            raise ValueError("need at least one generator image")
        mats = [np.asarray(g, dtype=float) for g in generators]
        dim = mats[0].shape[0]
        images: dict[Letter, np.ndarray] = {}
        for i, m in enumerate(mats, start=1):
            if m.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"generator {i} has shape {m.shape}, expected {(dim, dim)}"
                )
            if not np.all(np.isfinite(m)):
                raise ValueError(f"generator {i} has non-finite entries")
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"generator {i} is singular") from exc
            if np.max(np.abs(inv @ m - np.eye(dim))) > 1e-10:
                raise ValueError(
                    f"generator {i} is too ill-conditioned to invert reliably"
                )
            images[Letter(i, 1)] = m
            images[Letter(i, -1)] = inv
        return Representation(len(mats), dim, images)

    def image(self, letter: Letter) -> np.ndarray:
        try:
            return self.images[letter]
        except KeyError:
            raise ValueError(f"letter {letter} outside rank {self.rank}") from None

    @cached_property
    def stacked_images(self) -> np.ndarray:
        """(2 * rank, d, d) stack of the images in letter-code order:
        a, A, b, B, ..."""
        letters = [Letter(i, s) for i in range(1, self.rank + 1) for s in (1, -1)]
        return np.stack([self.images[letter] for letter in letters])

    @cached_property
    def letter_norm_bound(self) -> float:
        """Worst product norm(image(l)) * norm(image(l^-1)) over the letters.

        One-letter extensions change the attracting plane by at most this
        factor times the singular ratio at the current length.
        """
        worst_pair = 0.0
        for i in range(1, self.rank + 1):
            fwd = float(np.linalg.norm(self.images[Letter(i, 1)], 2))
            bwd = float(np.linalg.norm(self.images[Letter(i, -1)], 2))
            worst_pair = max(worst_pair, fwd * bwd)
        return worst_pair


def evaluate(rep: Representation, w: ReducedWord) -> ScaledMatrix:
    """Left-to-right product of generator images with running renormalization."""
    out = ScaledMatrix.identity(rep.dim)
    for letter in w:
        out = out.times(rep.image(letter))
    return out


def singular_values(m: ScaledMatrix) -> np.ndarray:
    """Log-scale singular values, descending."""
    s = np.linalg.svd(m.core, compute_uv=False)
    return m.logscale + np.log(np.clip(s, _TINY, None))


def log_norm(m: ScaledMatrix) -> float:
    """log of the operator norm."""
    return float(singular_values(m)[0])


def log_conorm(m: ScaledMatrix) -> float:
    """log of the smallest singular value."""
    return float(singular_values(m)[-1])


def gap_margin(m: ScaledMatrix, k: int) -> float:
    """log sigma_k - log sigma_{k+1}; zero means no gap of index k."""
    logs = singular_values(m)
    if not 1 <= k < len(logs):
        raise ValueError(f"gap index must satisfy 1 <= k < {len(logs)}, got {k}")
    return float(logs[k - 1] - logs[k])


def stacked_gap_margins(
    cores: np.ndarray, logscales: np.ndarray, k: int
) -> np.ndarray:
    """gap_margin of every matrix of an (N, d, d) stack, in one SVD call."""
    if not 1 <= k < cores.shape[-1]:
        raise ValueError(
            f"gap index must satisfy 1 <= k < {cores.shape[-1]}, got {k}"
        )
    s = np.linalg.svd(cores, compute_uv=False)
    # np.maximum is np.clip(s, _TINY, None) without clip's dispatch cost
    logs = logscales[:, None] + np.log(np.maximum(s, _TINY))
    return logs[:, k - 1] - logs[:, k]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-plane through the origin, held as an orthonormal d x k frame."""

    dimension: int
    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2 or frame.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"frame shape {frame.shape} does not match dimension {self.dimension}"
            )
        if not 1 <= self.dimension <= frame.shape[0]:
            raise DimensionMismatchError(
                f"dimension {self.dimension} invalid in ambient {frame.shape[0]}"
            )
        gram = frame.T @ frame
        if np.max(np.abs(gram - np.eye(self.dimension))) > 1e-12:
            raise ValueError("frame columns are not orthonormal")
        object.__setattr__(self, "frame", frame)

    @staticmethod
    def from_spanning(matrix: np.ndarray) -> "Subspace":
        """Orthonormalize spanning columns; rejects rank-deficient input."""
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        return Subspace(mat.shape[1], _orthonormal_frames(mat[None])[0])

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    def equals(self, other: "Subspace", tol: float = SUBSPACE_TOLERANCE) -> bool:
        return grassmann_distance(self, other) < tol


def _orthonormal_frames(spanning: np.ndarray) -> np.ndarray:
    """Q factors of an (N, d, m) stack of spanning columns, in one QR call;
    rejects the stack if any entry's columns are numerically dependent."""
    q, r = np.linalg.qr(spanning)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag < 1e-12 * np.maximum(1.0, diag.max(axis=-1, keepdims=True))):
        raise DependentColumnsError("spanning columns are numerically dependent")
    return q


def u_k(m: ScaledMatrix, k: int) -> Subspace:
    """Span of the top-k left singular vectors; needs a gap of index k."""
    left, s, _ = np.linalg.svd(m.core)
    _require_gap(m, k, s)
    return Subspace(k, left[:, :k])


def stacked_singular_frames(
    cores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd's left and transposed right singular matrices of an
    (N, d, d) stack, which hold u_k's and s_dk's frames, and the mask of
    the matrices without a gap of index k, where both raise NoGapError."""
    left, svals, right_t = np.linalg.svd(cores)
    logs = np.log(np.maximum(svals, _TINY))
    return left, right_t, logs[:, k - 1] - logs[:, k] <= GAP_TOLERANCE


def s_dk(m: ScaledMatrix, k: int) -> Subspace:
    """Span of the bottom (d-k) right singular vectors; needs a gap of index k."""
    _, s, right_t = np.linalg.svd(m.core)
    _require_gap(m, k, s)
    return Subspace(m.dim - k, right_t[k:].T)


def _require_gap(m: ScaledMatrix, k: int, svals: np.ndarray) -> None:
    if not 1 <= k < m.dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {m.dim}, got {k}")
    logs = np.log(np.clip(svals, _TINY, None))
    if logs[k - 1] - logs[k] <= GAP_TOLERANCE:
        raise NoGapError(
            f"no singular value gap of index {k}: "
            f"log margin {logs[k - 1] - logs[k]:.3e}"
        )


def grassmann_distance(v: Subspace, w: Subspace) -> float:
    """Sine of the largest principal angle between equal-dimension planes.

    Computed from the frame product as the norm of W minus its component
    inside V; this sine form has no cancellation for nearby planes, unlike
    sqrt(1 - cos^2) on the smallest overlap singular value.
    """
    if v.dimension != w.dimension or v.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError(
            f"cannot compare a {v.dimension}-plane with a {w.dimension}-plane"
        )
    residual = w.frame - v.frame @ (v.frame.T @ w.frame)
    return float(np.clip(np.linalg.svd(residual, compute_uv=False)[0], 0.0, 1.0))


def stacked_grassmann_distance(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """grassmann_distance between the frames of two (N, d, k) stacks, row by
    row, in one SVD call; each value has the bits of the one-pair path when
    the frames have its strides."""
    residual = w - v @ (np.swapaxes(v, -1, -2) @ w)
    return np.linalg.svd(residual, compute_uv=False)[:, 0].clip(0.0, 1.0)


def transversality_gap(v: Subspace, w: Subspace) -> float:
    """Smallest singular value of the stacked frames; positive iff V + W = R^d."""
    if v.ambient_dim != w.ambient_dim or v.dimension + w.dimension != v.ambient_dim:
        raise DimensionMismatchError(
            f"dimensions {v.dimension}+{w.dimension} do not fill ambient "
            f"{v.ambient_dim}"
        )
    stacked = np.hstack([v.frame, w.frame])
    return float(np.clip(np.linalg.svd(stacked, compute_uv=False)[-1], 0.0, 1.0))


def apply_to_subspace(matrix: np.ndarray, v: Subspace) -> Subspace:
    """Image of a subspace under an invertible matrix, re-orthonormalized."""
    return Subspace.from_spanning(matrix @ v.frame)


def stacked_apply_to_subspace(matrices: np.ndarray, v: Subspace) -> np.ndarray:
    """Frames of apply_to_subspace(m, v) for each matrix of an (N, d, d)
    stack, in one QR call, with from_spanning's checks and bits."""
    q = _orthonormal_frames(matrices @ v.frame)
    gram = np.swapaxes(q, -1, -2) @ q
    if np.max(np.abs(gram - np.eye(v.dimension))) > 1e-12:
        raise ValueError("frame columns are not orthonormal")
    return q
