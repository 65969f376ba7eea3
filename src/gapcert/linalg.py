"""Log-scale singular value computations behind the certification routines.

Long products are kept as a unit-norm core with a separate log scale, so
singular value ratios stay computable far past float overflow.  Subspaces
are orthonormal frames; distances are sines of principal angles.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DependentColumnsError,
    DimensionMismatchError,
    IllConditionedError,
    ScaleOverflowError,
)
from .words import ReducedWord, letter_to_string

GAP_TOLERANCE = 1e-12
SUBSPACE_TOLERANCE = 1e-8
_NORM_BAND = (0.5, 2.0)


class ScaledMatrix:
    """A d x d matrix stored as e^logscale * core with core kept near unit norm."""

    __slots__ = ("core", "logscale")

    def __init__(self, core: np.ndarray, logscale: float = 0.0):
        core = np.asarray(core, dtype=float)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {core.shape}")
        self.core = core
        self.logscale = logscale

    @staticmethod
    def identity(dim: int) -> "ScaledMatrix":
        return ScaledMatrix(np.eye(dim), 0.0)

    @property
    def dim(self) -> int:
        return self.core.shape[0]

    def times(self, factor: np.ndarray) -> "ScaledMatrix":
        """Right-multiply by an ordinary matrix, renormalizing the core: one
        step of running_products."""
        cores, logscales = running_products(
            self.core[None], np.array([self.logscale]), np.asarray(factor)[None, None]
        )
        return ScaledMatrix(cores[0, 0], float(logscales[0, 0]))

    # no caller in the package: the benchmark's tracer counts it by name
    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return ScaledMatrix(self.core, self.logscale + other.logscale).times(other.core)

    def matrix(self) -> np.ndarray:
        """Materialize at true scale; refuses when the scale would overflow."""
        if abs(self.logscale) > 600.0:
            raise ScaleOverflowError(
                f"logscale {self.logscale:.1f} is too large to materialize"
            )
        return math.exp(self.logscale) * self.core


def _row_norms(cores: np.ndarray) -> np.ndarray:
    # one BLAS dot per row, as np.linalg.norm takes it for a single core;
    # a batched norm or einsum sums in another order
    flat = cores.reshape(len(cores), -1)
    with np.errstate(over="ignore", under="ignore"):  # renormalized_stack rescales
        squares = np.matmul(flat[:, None, :], flat[:, :, None])
    return np.sqrt(squares).reshape(-1)


def renormalized_stack(
    cores: np.ndarray, logscales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each core of an (N, d, d) stack to a Frobenius norm (the
    cheap estimate of the operator norm) in band, adding np.log of its
    factor to its log scale.  The cores are renormalized in place and
    returned; the log scales are never written, and are returned as they
    are when every core is in band."""
    estimates = _row_norms(cores)
    out = ~((estimates >= _NORM_BAND[0]) & (estimates <= _NORM_BAND[1]))
    if not np.count_nonzero(out):
        return cores, logscales
    bad = ~np.isfinite(estimates) | (estimates == 0.0)
    if np.count_nonzero(bad):
        # the squares overflowed or underflowed: bring the entries to unit
        # size first (in-range cores never come here, so their bits stay)
        scales = np.max(np.abs(cores[bad]), axis=(1, 2))
        if not np.all(np.isfinite(scales) & (scales > 0.0)):
            raise ScaleOverflowError("matrix entries must be finite and not all zero")
        cores[bad] = cores[bad] / scales[:, None, None]
        logscales = logscales.copy()
        logscales[bad] = logscales[bad] + np.log(scales)
        estimates[bad] = _row_norms(cores[bad])
        out = (estimates < _NORM_BAND[0]) | (estimates > _NORM_BAND[1])
    # in-band rows are divided by 1.0 and shifted by log(1.0) = 0.0, which
    # leaves their bits as they are
    factors = np.where(out, estimates, 1.0)
    cores /= factors[:, None, None]
    return cores, logscales + np.log(factors)


_FEW_ROWS = 4  # up to this many rows, running_products renormalizes row by row


def _renormalized_rows(
    cores: np.ndarray, logscales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """renormalized_stack for a few rows, bitwise, and in place: a BLAS dot
    and a band check per row, one divide and one np.log over the rows, and
    renormalized_stack for out-of-range rows."""
    estimates = [math.sqrt(row.dot(row)) for row in cores.reshape(len(cores), -1)]
    if not all(0.0 < e < math.inf for e in estimates):
        return renormalized_stack(cores, logscales)
    factors = [1.0 if _NORM_BAND[0] <= e <= _NORM_BAND[1] else e for e in estimates]
    if factors.count(1.0) == len(factors):
        return cores, logscales
    cores /= np.array(factors)[:, None, None]
    return cores, logscales + np.log(factors)


def running_products(
    cores: np.ndarray, logscales: np.ndarray, factors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extend the scale-tracked products of an (R, d, d) stack by the
    (C, R, d, d) factors, one length at a time, into the (C, R, d, d) cores
    and (C, R) log scales of the C products.  Every row takes its factors on
    the right, with the bits of a one-row stack.  The inputs are only read,
    so they may be read-only or broadcast.  It builds every scale-tracked
    product of the package, ScaledMatrix.times and evaluate's included."""
    products = np.empty(factors.shape)
    scales = np.empty(factors.shape[:2])
    _running_products_into(cores, logscales, factors, products, scales)
    return products, scales


def _running_products_into(
    cores: np.ndarray,
    logscales: np.ndarray,
    factors: np.ndarray,
    products: np.ndarray,
    scales: np.ndarray,
) -> None:
    """running_products written into the caller's (C, R, d, d) products and
    (C, R) scales, which must not overlap the inputs: each length's matmul
    writes its products, which are then renormalized where they are."""
    renormalize = _renormalized_rows if len(cores) <= _FEW_ROWS else renormalized_stack
    with np.errstate(over="ignore", under="ignore"):  # renormalization rescales
        for t, factor in enumerate(factors):
            out = products[t]
            np.matmul(cores, factor, out=out)
            scales[t] = renormalize(out, logscales)[1]
            cores, logscales = out, scales[t]


class Representation:
    """Generator images of a free group in GL(d, R), inverses precomputed:
    stacked_images is the (2 * rank, d, d) stack of the images in letter-code
    order, a, A, b, B, ..."""

    def __init__(self, rank: int, dim: int, stacked_images: np.ndarray):
        self.rank = rank
        self.dim = dim
        self.stacked_images = stacked_images

    @staticmethod
    def of(generators: Sequence[np.ndarray]) -> "Representation":
        if not generators:
            raise ValueError("need at least one generator image")
        mats = [np.asarray(g, dtype=float) for g in generators]
        dim = mats[0].shape[0]
        images = []
        for i, m in enumerate(mats, start=1):
            if m.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"generator {i} has shape {m.shape}, expected {(dim, dim)}"
                )
            if not np.all(np.isfinite(m)):
                raise IllConditionedError(f"generator {i} has non-finite entries")
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                raise IllConditionedError(f"generator {i} is singular") from exc
            if np.max(np.abs(inv @ m - np.eye(dim))) > 1e-10:
                raise IllConditionedError(
                    f"generator {i} is too ill-conditioned to invert reliably"
                )
            images += [m, inv]
        return Representation(len(mats), dim, np.stack(images))

    def image(self, letter: int) -> np.ndarray:
        if not 0 <= letter < 2 * self.rank:
            raise ValueError(
                f"letter {letter_to_string(letter)} outside rank {self.rank}"
            )
        return self.stacked_images[letter]

    @cached_property
    def stacked_logdets(self) -> np.ndarray:
        """log|det| of stacked_images, from slogdet (det itself overflows
        on large images); an inverse letter takes exactly the negated value
        of its generator's."""
        _, logdets = np.linalg.slogdet(self.stacked_images[0::2])
        return np.stack([logdets, -logdets], axis=1).reshape(-1)

    @cached_property
    def stacked_duals(self) -> np.ndarray:
        """(2 * rank, d, d) stack of the dual images in letter-code order:
        letter l maps to image(l^-1)^T, the inverse-transpose of its image,
        so a word's product of them is the inverse-transpose of its
        product."""
        dim = self.dim
        swapped = self.stacked_images.reshape(self.rank, 2, dim, dim)[:, ::-1]
        return np.ascontiguousarray(swapped.reshape(-1, dim, dim).transpose(0, 2, 1))

    @cached_property
    def letter_norm_bound(self) -> float:
        """Worst product norm(image(l)) * norm(image(l^-1)) over the letters.

        One-letter extensions change the attracting plane by at most this
        factor times the singular ratio at the current length.
        """
        worst_pair = 0.0
        for fwd, bwd in self.stacked_images.reshape(self.rank, 2, self.dim, self.dim):
            pair = float(np.linalg.norm(fwd, 2)) * float(np.linalg.norm(bwd, 2))
            worst_pair = max(worst_pair, pair)
        return worst_pair


def evaluate(rep: Representation, w: ReducedWord) -> ScaledMatrix:
    """Left-to-right product of generator images with running
    renormalization: the last row of their running product."""
    if w.is_empty():
        return ScaledMatrix.identity(rep.dim)
    images = np.stack([rep.image(letter) for letter in w])[:, None]
    cores, logscales = running_products(np.eye(rep.dim)[None], np.zeros(1), images)
    return ScaledMatrix(cores[-1, 0], float(logscales[-1, 0]))


def stacked_top_singular(cores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigma_1 of every core of an (N, 3, 3) stack, and the relative gap
    (lambda_1 - lambda_2) / lambda_1 between the top two eigenvalues of its
    Gram matrix C C^T.  lambda_1 = sigma_1^2 comes in closed form from the
    trigonometric formula for symmetric 3 x 3 matrices (Kopp 2008):
    lambda_1 = q + 2 p cos(phi) and lambda_1 - lambda_2 = 2 sqrt(3) p
    sin(pi/3 - phi), with q the mean eigenvalue.  Its relative error is
    about u / gap; a core whose Gram is a multiple of I has gap nan.
    Every operation is elementwise, so each row has the bits of a one-row
    stack."""
    rows = [cores[:, i, :] for i in range(3)]
    g00, g11, g22 = (
        r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2] for r in rows
    )
    g01, g02, g12 = (
        u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]
        for u, v in ((rows[0], rows[1]), (rows[0], rows[2]), (rows[1], rows[2]))
    )
    q = (g00 + g11 + g22) / 3.0
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    off = g01 * g01 + g02 * g02 + g12 * g12
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off) / 6.0)
    det = (
        b00 * (b11 * b22 - g12 * g12)
        - g01 * (g01 * b22 - g12 * g02)
        + g02 * (g01 * g12 - b11 * g02)
    )
    with np.errstate(invalid="ignore", divide="ignore"):  # p = 0 gives nan
        phi = np.arccos(np.clip(det / (2.0 * p * p * p), -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    gap = 2.0 * math.sqrt(3.0) * p * np.sin(math.pi / 3.0 - phi) / top
    return 0.5 * np.log(top), gap


# stacked_log_tops takes a 3 x 3 core's Gram form only where its Gram's
# relative top eigen-gap is at least this; the form is accurate to u / gap.
GRAM_GAP_FLOOR = 1e-3


def power_images(
    rep: Representation, k: int, complementary: bool = False
) -> list[tuple[tuple, np.ndarray]]:
    """The letter images walked for the margin of index k: for each size m
    of the walked powers, those powers and their (2 * rank, W, m, m)
    images.  The walked powers are j in {k - 1, k, k + 1} with 1 <= j < d,
    or with complementary (a word set closed under inversion, read with
    stacked_margins' inverse rows) min(j, d - j) in their place.  Power j
    takes stacked_images for j = 1, stacked_duals for j = d - 1 (d >= 3),
    and otherwise the j x j minors of the images, lexicographic in their
    row and column sets, so that a word's product of them is wedge^j of
    its product (Cauchy-Binet)."""
    dim, groups = rep.dim, {}
    if not 1 <= k < dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {dim}, got {k}")
    powers = range(max(1, k - 1), min(k + 2, dim))
    if complementary:
        powers = sorted({min(j, dim - j) for j in powers})
    for j in powers:
        if j in (1, dim - 1):
            images = rep.stacked_images if j == 1 else rep.stacked_duals
        else:
            sets = np.array(list(itertools.combinations(range(dim), j)))
            images = np.linalg.det(
                rep.stacked_images[:, sets[:, None, :, None], sets[None, :, None, :]]
            )
        groups.setdefault(images.shape[-1], []).append((j, images))
    return [
        (tuple(j for j, _ in group), np.stack([images for _, images in group], axis=1))
        for group in groups.values()
    ]


def stacked_log_tops(cores: np.ndarray, logscales: np.ndarray) -> np.ndarray:
    """log sigma_1 of every matrix of an (N, m, m) stack with its log scale,
    each with its full relative accuracy: for m = 2 the closed form
    (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 of a core
    [[a, b], [c, d]], a sum of two nonnegative terms; for m = 3
    stacked_top_singular's Gram form, or an SVD's sigma_1 on a row whose
    Gram has a relative top gap below GRAM_GAP_FLOOR; for m >= 4 the root
    of its Gram's top eigenvalue by eigvalsh, whose error, about u
    sigma_1^2, is relative (a renormalized core's Gram cannot overflow)."""
    size = cores.shape[-1]
    if size == 2:
        a, b, c, d = cores[:, 0, 0], cores[:, 0, 1], cores[:, 1, 0], cores[:, 1, 1]
        tops = np.log((np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0)
    elif size == 3:
        tops, gaps = stacked_top_singular(cores)
        low = ~(gaps >= GRAM_GAP_FLOOR)
        if np.count_nonzero(low):
            tops[low] = np.log(np.linalg.svd(cores[low], compute_uv=False)[:, 0])
    else:
        tops = 0.5 * np.log(np.linalg.eigvalsh(cores @ cores.transpose(0, 2, 1))[:, -1])
    return tops + logscales


def walked_tops(
    walks: Sequence[tuple[Sequence[int], np.ndarray, np.ndarray]],
) -> dict[int, np.ndarray]:
    """T_j, log sigma_1 of the walked products of each power j: walks
    holds, for each group of power_images, its powers and the
    (..., W, m, m) cores and (..., W) log scales of its products, and each
    T_j has the (...) shape.  Each keeps its relative accuracy at any
    spread, where an SVD's sigma_{k+1} has an absolute error near
    n u sigma_1."""
    tops = {}
    for powers, cores, logscales in walks:
        size = cores.shape[-1]
        walked = stacked_log_tops(cores.reshape(-1, size, size), logscales.reshape(-1))
        tops.update(zip(powers, np.moveaxis(walked.reshape(logscales.shape), -1, 0)))
    return tops


def stacked_margins(
    tops: dict[int, np.ndarray],
    logdets: np.ndarray,
    k: int,
    dim: int,
    inverse: Optional[np.ndarray] = None,
) -> np.ndarray:
    """log sigma_k - log sigma_{k+1} of matrices M of GL(dim), clamped at 0:
    m_k = 2 L_k - L_{k-1} - L_{k+1}, L_j = log sigma_1(wedge^j M), with
    L_0 = 0 and L_dim = D = log|det M|.  tops holds walked_tops of the
    walks of power_images(rep, k, inverse is not None), and logdets the
    values D, in their shape.

    L_j = T_j, except that the powers j read from D carry it: L_d = D, and
    L_{d-1} = D + T_{d-1} for d >= 3, whose walked product is M^-T.  With
    inverse, the row along the first axis of each matrix's inverse (a word
    set closed under inversion), every power j > d/2 is read at the
    inverse as L_j = D + T_{d-j}[inverse], by Jacobi's complementary
    minors, sigma_1(wedge^j M) = |det M| sigma_1(wedge^(d-j) M^-1).  The
    margin is c D + 2 T_k - T_{k-1} - T_{k+1}, evaluated in that order, c
    the net coefficient of D."""
    if inverse is None:
        carried = {dim - 1, dim} if dim >= 3 else {dim}
    else:
        carried = set(range(dim // 2 + 1, dim + 1))

    def top(j: int) -> np.ndarray:
        if inverse is not None and 2 * j > dim:
            return np.take(tops[dim - j], inverse, axis=0)
        return tops[j]

    c = 2 * (k in carried) - (k - 1 in carried) - (k + 1 in carried)
    out = c * logdets + 2.0 * top(k)
    for j in (k - 1, k + 1):
        if 1 <= j < dim:
            out -= top(j)
    return np.maximum(out, 0.0)


class Subspace:
    """A k-plane through the origin, held as an orthonormal d x k frame."""

    __slots__ = ("dimension", "frame")

    def __init__(self, dimension: int, frame: np.ndarray):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[1] != dimension:
            raise DimensionMismatchError(
                f"frame shape {frame.shape} does not match dimension {dimension}"
            )
        if not 1 <= dimension <= frame.shape[0]:
            raise DimensionMismatchError(
                f"dimension {dimension} invalid in ambient {frame.shape[0]}"
            )
        gram = frame.T @ frame
        if np.max(np.abs(gram - np.eye(dimension))) > 1e-12:
            raise ValueError("frame columns are not orthonormal")
        self.dimension = dimension
        self.frame = frame

    @staticmethod
    def from_spanning(matrix: np.ndarray) -> "Subspace":
        """Orthonormalize spanning columns; rejects rank-deficient input."""
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        return Subspace(mat.shape[1], _orthonormal_frames(mat[None])[0])

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]


def _orthonormal_frames(spanning: np.ndarray) -> np.ndarray:
    """Q factors of an (N, d, m) stack of spanning columns, in one QR call;
    rejects the stack if any entry's columns are numerically dependent."""
    q, r = np.linalg.qr(spanning)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag < 1e-12 * np.maximum(1.0, diag.max(axis=-1, keepdims=True))):
        raise DependentColumnsError("spanning columns are numerically dependent")
    return q


def stacked_top_planes(cores: np.ndarray, k: int, dim: int) -> np.ndarray:
    """(N, dim, k) frames of the top-k left singular planes of M in GL(dim)
    from the top left singular vector w of the (N, m, m) cores of power k
    of power_images: w (k = 1), its complement (k = dim - 1, walked as
    M^-T), else the top-k block of w's contractions with the (k-1)-subsets
    J, which span <v_1, ..., v_k> for w = v_1 ^ ... ^ v_k."""
    left = np.linalg.svd(cores)[0]
    if k == 1 or k == dim - 1:
        return left[..., :1] if k == 1 else left[..., 1:]
    # row i, column J: w at J + {i} signed by the place of i, or +0.0 past w
    rows, faces = range(dim), list(itertools.combinations(range(dim), k - 1))
    place = {s: n for n, s in enumerate(itertools.combinations(rows, k))}
    at = [[place.get(tuple(sorted({i, *J})), len(place)) for J in faces] for i in rows]
    signs = [[(-1) ** sum(j < i for j in J if i not in J) for J in faces] for i in rows]
    top = np.concatenate([left[..., 0], np.zeros((len(left), 1))], axis=1)
    return np.linalg.svd(top[:, at] * signs)[0][..., :k]


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
