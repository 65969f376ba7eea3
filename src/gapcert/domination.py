"""Gap margins over positive word sets and scale-L domination certificates.

The margin of a word is the log ratio of its k-th to (k+1)-st singular
values; exponential growth of the per-length minimum margin is the
certification target.  A certificate records the fitted growth rate, the
support intercept on the fit window, and an explicit evidence-grade verdict.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, EmptySubsetError
from .linalg import (
    GAP_TOLERANCE,
    Representation,
    _running_products_into,
    stacked_det_margins,
    stacked_dual_margins,
    stacked_gap_margins,
)
from .subsets import GammaPSample, SubsetPSpec, gamma_p_plus
from .words import ReducedWord

CERTIFIED = "Certified"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# A margin of at most GAP_TOLERANCE at this length or longer refutes.
REFUTE_LENGTH = 6

# Singular-value ratios below machine epsilon are unresolvable, so SVD
# margins cap out a little above -log(eps) ~= 36.8 for generic dense
# matrices.  The closed forms of d = 2 and 3 do not; a window margin above
# this ceiling earns a note only when an SVD measured it (d >= 4, or a
# d = 3 row without a clear top gap).
MEASURABLE_MARGIN_CEILING = 34.0

# _margin_tables makes a level in blocks of this many products; certify_each
# stacks representations whose kept levels hold at most 4 * STACK_ROWS
STACK_ROWS = 4096

# certify keeps this many of its most recent certificates, keyed by content,
# least recently used first
MEMO_SIZE = 8
_MEMO: "dict[tuple, DominationCertificate]" = {}


class CertifyOptions(
    namedtuple("CertifyOptions", "lambda_min eps_res", defaults=(0.02, 1e-6))
):
    """Thresholds for turning a margin table into a verdict.

    lambda_min: least fitted growth rate accepted as domination evidence.
    eps_res: slack allowed below the reported support line on the window.
    """

    __slots__ = ()

    lambda_min: float
    eps_res: float


class DominationCertificate(
    namedtuple(
        "DominationCertificate",
        "k budget margins argmins lambda_hat c_hat slope_stderr "
        "residual_min fit_window verdict counterexample complete notes",
    )
):
    """Margin table plus fitted constants and an evidence-grade verdict.

    The fitted line m(t) ~ lambda_hat * t + c_hat uses least squares for the
    slope on the window [ceil(L/2), L] and the largest intercept keeping the
    line at or below every window margin (support form), so residual_min is
    the worst window slack relative to the reported line.
    """

    __slots__ = ()

    k: int
    budget: int
    margins: dict[int, float]
    argmins: dict[int, ReducedWord]
    lambda_hat: float
    c_hat: float
    slope_stderr: float
    residual_min: float
    fit_window: tuple[int, int]
    verdict: str
    counterexample: Optional[ReducedWord]
    complete: bool
    notes: tuple[str, ...]


def _margin_tables(
    reps: Sequence[Representation], sample: GammaPSample, k: int
) -> list[dict[int, tuple[float, ReducedWord, bool]]]:
    """Minimum margin per length of each representation of a stack, with
    its argmin word and whether an SVD measured it, walking the sample's
    coded levels once for all of them.

    The stack's products of a level are (N, R, W, d, d), word-major: each
    is its parent's product times one letter image, one running_products
    step over a block of words, so every product has the bits of
    evaluate(rep, w) whatever R is.  W = 2 for d = 3, where the second
    product is the dual M^{-T}, walked with the letters' stacked_duals, and
    W = 1 otherwise.  For d = 2 the margin is the closed form of
    stacked_det_margins and for d = 3 that of stacked_dual_margins, each
    with the row's log|det| summed along the parents like its log scale;
    d >= 4 and the d = 3 rows without a clear top gap take an SVD.  A level
    is made in blocks of max(1, STACK_ROWS // R) words.  When a longer
    level follows, each block writes its products where the next level
    reads them, so only the previous and the current level are held
    (certify_each bounds R times the kept level); the last level's blocks
    take turns in one block's buffer.  np.argmin returns the first minimum,
    which in sort_key order is the lexicographic tie-break.
    """
    dim = reps[0].dim
    if not 1 <= k < dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {dim}, got {k}")
    count = len(reps)
    walked = [
        np.stack([rep.stacked_images, rep.stacked_duals], axis=1)
        if dim == 3
        else rep.stacked_images[:, None]
        for rep in reps
    ]
    images = np.stack(walked, axis=1)
    width = images.shape[2]
    letter_logdets = np.stack([rep.stacked_logdets for rep in reps], axis=1)
    logdets = np.zeros((1, count))
    cores = np.broadcast_to(np.eye(dim), (1, count, width, dim, dim))
    logscales = np.zeros((1, count, width))
    levels = sample.levels
    block = max(1, STACK_ROWS // count)
    tables: list[dict[int, tuple[float, ReducedWord, bool]]] = [{} for _ in reps]
    for t, (parents, letters) in enumerate(levels, start=1):
        size = len(letters)
        if not size:
            break  # prefix-closed: every longer level is empty too
        logdets = np.take(logdets, parents, axis=0) + np.take(
            letter_logdets, letters, axis=0
        )
        level = np.empty((size, count))
        measured = np.empty((size, count), dtype=bool)
        keep = t < len(levels) and len(levels[t][1]) > 0
        held = size if keep else min(size, block)
        products = np.empty((held,) + cores.shape[1:])
        scales = np.empty((held, count, width))
        for lo in range(0, size, block):
            rows = slice(lo, lo + block)
            into = rows if keep else slice(0, len(letters[rows]))
            level[rows], measured[rows] = _level_block(
                cores, logscales, images, parents[rows], letters[rows],
                logdets[rows], k, products[into], scales[into],
            )
        cores, logscales = products, scales
        best = np.argmin(level, axis=0)
        words = sample.decode(t, best)
        for table, row, svd, i, w in zip(
            tables, level.T, measured.T, best.tolist(), words
        ):
            table[t] = (float(row[i]), w, bool(svd[i]))
    if not tables[0]:
        raise EmptySubsetError("no positive words at any length up to the budget")
    return tables


def _level_block(
    cores: np.ndarray,
    logscales: np.ndarray,
    images: np.ndarray,
    parents: np.ndarray,
    letters: np.ndarray,
    logdets: np.ndarray,
    k: int,
    products: np.ndarray,
    scales: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, R) margins of some words of a level and the mask of those an
    SVD measured; the words' (n, R, W, d, d) products and (n, R, W) log
    scales are written into products and scales, contiguous arrays that
    the inputs do not overlap.  Each product is its parent's times its
    letter's image: one running_products step over the parents and images
    gathered with np.take."""
    dim, shape = cores.shape[-1], logdets.shape
    flat, flat_scales = products.reshape(-1, dim, dim), scales.reshape(-1)
    _running_products_into(
        np.take(cores, parents, axis=0).reshape(-1, dim, dim),
        np.take(logscales, parents, axis=0).reshape(-1),
        np.take(images, letters, axis=0).reshape(1, -1, dim, dim),
        flat[None],
        flat_scales[None],
    )
    logdets = logdets.reshape(-1)
    if dim == 2:
        margin = stacked_det_margins(flat, flat_scales, logdets)
        svd = np.zeros(len(flat), dtype=bool)
    elif dim == 3:
        margin, svd = stacked_dual_margins(flat, flat_scales, logdets, k)
    else:
        margin = stacked_gap_margins(flat, flat_scales, k)
        svd = np.ones(len(flat), dtype=bool)
    return margin.reshape(shape), svd.reshape(shape)


def _fit_slope(points: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Least squares slope, intercept and slope standard error."""
    ts = np.array([p[0] for p in points], dtype=float)
    ms = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(ts, ms, 1)
    if len(ts) > 2:
        residuals = ms - (slope * ts + intercept)
        spread = float(((ts - ts.mean()) ** 2).sum())
        variance = float(residuals @ residuals) / (len(ts) - 2)
        stderr = math.sqrt(variance / spread)
    else:
        stderr = 0.0
    return float(slope), float(intercept), stderr


def certify(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    budget: int,
    opts: CertifyOptions = CertifyOptions(),
) -> DominationCertificate:
    """Build a margin table and fit it into an evidence-grade certificate.

    The last MEMO_SIZE certificates are kept, keyed by the generator images'
    bytes, spec, k, budget and opts, so a process that certifies the same
    inputs again (several configs of one representation, as `gapcert sweep`
    runs them) gets them back without a walk.  Each call returns its own copy of the margin and argmin
    dicts; errors are not kept.
    """
    if budget < 2:
        raise BudgetError(f"certification needs a budget >= 2, got {budget}")
    key = (rep.rank, rep.dim, rep.stacked_images.tobytes(), spec, k, budget, opts)
    cert = _MEMO.pop(key, None)
    if cert is None:
        cert = certify_each([rep], gamma_p_plus(spec, budget), k, opts)[0]
    _MEMO[key] = cert
    if len(_MEMO) > MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    return cert._replace(margins=dict(cert.margins), argmins=dict(cert.argmins))


def _require_same_rank(rep: Representation, spec: SubsetPSpec) -> None:
    """Refuse a subset of a free group other than the representation's."""
    if spec.rank != rep.rank:
        raise ValueError(
            f"subset is of rank {spec.rank}, the representation of rank {rep.rank}"
        )


def certify_each(
    reps: Sequence[Representation],
    sample: GammaPSample,
    k: int,
    opts: CertifyOptions = CertifyOptions(),
) -> list[DominationCertificate]:
    """certify for each representation over one enumeration, in stacked
    groups of _group_size(sample); each certificate has the bits of its own
    certify call."""
    if sample.budget < 2:
        raise BudgetError(f"certification needs a budget >= 2, got {sample.budget}")
    for rep in reps:
        _require_same_rank(rep, sample.spec)
    group = _group_size(sample)
    return [
        _certificate(table, sample, k, opts)
        for start in range(0, len(reps), group)
        for table in _margin_tables(reps[start : start + group], sample, k)
    ]


def _group_size(sample: GammaPSample) -> int:
    """How many representations certify_each stacks in one walk of the
    sample's levels: max(1, 4 * STACK_ROWS // N), N the largest level
    followed by a nonempty one, so a group's kept level holds at most
    4 * STACK_ROWS products."""
    sizes = [len(letters) for _, letters in sample.levels]
    kept = max((n for n, after in zip(sizes, sizes[1:]) if after), default=1)
    return max(1, 4 * STACK_ROWS // kept)


def _certificate(
    table: dict[int, tuple[float, ReducedWord, bool]],
    sample: GammaPSample,
    k: int,
    opts: CertifyOptions,
) -> DominationCertificate:
    """Fit one margin table into a certificate."""
    budget = sample.budget
    margin_map = {t: v[0] for t, v in table.items()}
    argmin_map = {t: v[1] for t, v in table.items()}
    measured = {t for t, v in table.items() if v[2]}
    notes = [f"evidence at scale L={budget}; finite enumeration, not a proof"]
    if not sample.complete:
        notes.append("positive set enumeration is truncated (complete=false)")

    refuted_at = sorted(
        t for t, m in margin_map.items() if t >= REFUTE_LENGTH and m <= GAP_TOLERANCE
    )
    counterexample = argmin_map[refuted_at[0]] if refuted_at else None

    lo = max(1, math.ceil(budget / 2))
    window = [(t, margin_map[t]) for t in sorted(margin_map) if lo <= t <= budget]
    # the closed forms of d = 2 and 3 do not saturate; SVD margins do
    if any(m > MEASURABLE_MARGIN_CEILING and t in measured for t, m in window):
        notes.append(
            "window margins exceed the double-precision ratio ceiling "
            f"(~{MEASURABLE_MARGIN_CEILING:.1f} log-units); the fitted slope "
            "may be depressed by singular-value saturation"
        )
    if len(window) >= 2:
        lam, _, stderr = _fit_slope(window)
        c_hat = min(m - lam * t for t, m in window)
        residual_min = min(m - (lam * t + c_hat) for t, m in window)
    else:  # a nan rate and residual pass no threshold below
        lam, c_hat, stderr, residual_min = math.nan, math.nan, math.nan, math.nan
        notes.append("fit window has fewer than two populated lengths")

    if refuted_at:
        verdict = REFUTED
    elif lam >= opts.lambda_min and residual_min >= -opts.eps_res:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE

    return DominationCertificate(
        k=k,
        budget=budget,
        margins=margin_map,
        argmins=argmin_map,
        lambda_hat=lam,
        c_hat=c_hat,
        slope_stderr=stderr,
        residual_min=residual_min,
        fit_window=(lo, budget),
        verdict=verdict,
        counterexample=counterexample,
        complete=sample.complete,
        notes=tuple(notes),
    )
