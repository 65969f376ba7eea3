"""Gap margins over positive word sets and scale-L domination certificates.

The margin of a word is the log ratio of its k-th to (k+1)-st singular
values; exponential growth of the per-length minimum margin is the
certification target.  A certificate records the fitted growth rate, the
support intercept on the fit window, and an explicit evidence-grade verdict.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetError, EmptySubsetError
from .linalg import (
    GAP_TOLERANCE,
    Representation,
    _running_products_into,
    power_images,
    stacked_margins,
    walked_tops,
)
from .subsets import GammaPSample, SubsetPSpec, gamma_p_plus
from .words import ReducedWord

CERTIFIED = "Certified"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# A margin of at most GAP_TOLERANCE at this length or longer refutes.
REFUTE_LENGTH = 6

# _level_margins makes a level in blocks of this many products; certify_each
# stacks representations whose kept levels hold at most 4 * STACK_ROWS
STACK_ROWS = 4096

# certify keeps this many of its most recent certificates, keyed by content,
# least recently used first
MEMO_SIZE = 8
_MEMO: "dict[tuple, DominationCertificate]" = {}


class CertifyOptions(namedtuple("CertifyOptions", "lambda_min", defaults=(0.02,))):
    """The threshold for turning a margin table into a verdict: lambda_min,
    the least fitted growth rate accepted as domination evidence, which
    the rate must clear by two of its standard errors."""

    __slots__ = ()

    lambda_min: float


class DominationCertificate(
    namedtuple(
        "DominationCertificate",
        "k budget margins argmins lambda_hat c_hat slope_stderr "
        "fit_window verdict counterexample complete notes",
    )
):
    """Margin table plus fitted constants and an evidence-grade verdict.

    The fitted line m(t) ~ lambda_hat * t + c_hat uses least squares for the
    slope on the window [ceil(L/2), L] and the largest intercept keeping the
    line at or below every window margin (support form).
    """

    __slots__ = ()

    k: int
    budget: int
    margins: dict[int, float]
    argmins: dict[int, ReducedWord]
    lambda_hat: float
    c_hat: float
    slope_stderr: float
    fit_window: tuple[int, int]
    verdict: str
    counterexample: Optional[ReducedWord]
    complete: bool
    notes: tuple[str, ...]


def _margin_tables(
    reps: Sequence[Representation], sample: GammaPSample, k: int
) -> list[dict[int, tuple[float, ReducedWord]]]:
    """Minimum margin per length of each representation of a stack, with
    its argmin word, from one _level_margins walk of the sample's coded
    levels, which reads the powers above d/2 at the inverse words when the
    sample has its inverse rows.  np.argmin returns the first minimum,
    which in sort_key order is the lexicographic tie-break."""
    dim = reps[0].dim
    # the powers walked for k reach past d/2 (never for d = 2)
    inverse = sample.inverse_rows if 2 * min(k + 1, dim - 1) > dim else None
    tables: list[dict[int, tuple[float, ReducedWord]]] = [{} for _ in reps]
    for t, level in enumerate(_level_margins(reps, sample.levels, k, inverse), start=1):
        best = np.argmin(level, axis=0)
        words = sample.decode(t, best)
        for table, row, i, w in zip(tables, level.T, best.tolist(), words):
            table[t] = (float(row[i]), w)
    if not tables[0]:
        raise EmptySubsetError("no positive words at any length up to the budget")
    return tables


def _level_margins(
    reps: Sequence[Representation],
    levels: Sequence[tuple[np.ndarray, np.ndarray]],
    k: int,
    inverse: Optional[Sequence[np.ndarray]] = None,
) -> Iterator[np.ndarray]:
    """The (N, R) margins of index k of each nonempty level's words, for
    each representation of a stack, in one walk of the coded levels: a
    word is its parent (a row of the previous level, or the empty word)
    followed by its letter.  inverse, when given, holds for each level the
    row of each word's inverse in it (GammaPSample.inverse_rows); the
    walked powers are then power_images' complementary ones, and each
    power above d/2 is read at the inverse word.

    Each group of power_images is walked as (N, R, W, m, m) products,
    word-major, each its parent's times one letter's images in one
    running_products step over a block of words, so every product has the
    bits of its one-word walk whatever R is; the log|det| is summed along
    the parents like the log scales.  A level is made in blocks of
    max(1, STACK_ROWS // R) words, whose walked_tops are kept for the whole
    level, since a word's inverse may sit in another block; the margins
    are one stacked_margins call once the level is done.  When a longer
    level follows, each block writes its products where the next level
    reads them, so only the previous and the current level are held
    (certify_each bounds R times the kept level); the last level's blocks
    take turns in one block's buffer.
    """
    dim, count = reps[0].dim, len(reps)
    complementary = inverse is not None
    walked = [
        (group[0][0], np.stack([images for _, images in group], axis=1))
        for group in zip(*(power_images(rep, k, complementary) for rep in reps))
    ]
    walks = [
        (np.broadcast_to(np.eye(m.shape[-1]), m[:1].shape), np.zeros(m[:1].shape[:3]))
        for _, m in walked
    ]
    letter_logdets = np.stack([rep.stacked_logdets for rep in reps], axis=1)
    logdets = np.zeros((1, count))
    block = max(1, STACK_ROWS // count)
    for t, (parents, letters) in enumerate(levels, start=1):
        size = len(letters)
        if not size:
            break  # prefix-closed: every longer level is empty too
        logdets = np.take(logdets, parents, axis=0) + np.take(
            letter_logdets, letters, axis=0
        )
        tops = {j: np.empty((size, count)) for powers, _ in walked for j in powers}
        keep = t < len(levels) and len(levels[t][1]) > 0
        held = size if keep else min(size, block)
        products = [
            (np.empty((held,) + cores.shape[1:]), np.empty((held,) + scales.shape[1:]))
            for cores, scales in walks
        ]
        for lo in range(0, size, block):
            rows = slice(lo, lo + block)
            into = rows if keep else slice(0, len(letters[rows]))
            block_tops = _level_block(
                walked, walks, parents[rows], [letters[rows]],
                [(p[into][None], s[into][None]) for p, s in products],
            )
            for j, top in block_tops.items():
                tops[j][rows] = top[0]
        walks = products
        yield stacked_margins(
            tops, logdets, k, dim, inverse[t - 1] if complementary else None
        )


def _level_block(
    walked: Sequence[tuple[tuple[int, ...], np.ndarray]],
    walks: Sequence[tuple[np.ndarray, np.ndarray]],
    parents: np.ndarray,
    codes: np.ndarray,
    products: Sequence[tuple[np.ndarray, np.ndarray]],
) -> dict[int, np.ndarray]:
    """The (C, n, ...) walked_tops of a level's block of words (C = 1) or a
    limit walk's chunk: per group, one running_products walk from the
    parents' rows of walks by the images of the (C, n) letter codes,
    written into its pair in products (contiguous, not overlapping walks)."""
    for (_, images), (cores, logscales), (out, scales) in zip(walked, walks, products):
        size, count = cores.shape[-1], len(codes)
        _running_products_into(
            np.take(cores, parents, axis=0).reshape(-1, size, size),
            np.take(logscales, parents, axis=0).reshape(-1),
            np.take(images, codes, axis=0).reshape(count, -1, size, size),
            out.reshape(count, -1, size, size),
            scales.reshape(count, -1),
        )
    return walked_tops(
        [(powers, out, scales) for (powers, _), (out, scales) in zip(walked, products)]
    )


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

    The verdict is Refuted on a margin of at most GAP_TOLERANCE at a
    length of REFUTE_LENGTH or more, else Certified when lambda_hat -
    2 * slope_stderr >= opts.lambda_min, else Inconclusive.

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
    table: dict[int, tuple[float, ReducedWord]],
    sample: GammaPSample,
    k: int,
    opts: CertifyOptions,
) -> DominationCertificate:
    """Fit one margin table into a certificate."""
    budget = sample.budget
    margin_map = {t: v[0] for t, v in table.items()}
    argmin_map = {t: v[1] for t, v in table.items()}
    notes = [f"evidence at scale L={budget}; finite enumeration, not a proof"]
    if not sample.complete:
        notes.append("positive set enumeration is truncated (complete=false)")

    refuted_at = sorted(
        t for t, m in margin_map.items() if t >= REFUTE_LENGTH and m <= GAP_TOLERANCE
    )
    counterexample = argmin_map[refuted_at[0]] if refuted_at else None

    lo = max(1, math.ceil(budget / 2))
    window = [(t, margin_map[t]) for t in sorted(margin_map) if lo <= t <= budget]
    if len(window) >= 2:
        lam, _, stderr = _fit_slope(window)
        c_hat = min(m - lam * t for t, m in window)
    else:  # a nan rate passes no threshold below
        lam, c_hat, stderr = math.nan, math.nan, math.nan
        notes.append("fit window has fewer than two populated lengths")

    if refuted_at:
        verdict = REFUTED
    elif lam - 2.0 * stderr >= opts.lambda_min:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
        if lam >= opts.lambda_min:
            notes.append(
                f"rate_within_stderr: lambda_hat {lam:.4f} - 2 * slope_stderr "
                f"{stderr:.4f} is below lambda_min {opts.lambda_min}"
            )

    return DominationCertificate(
        k=k,
        budget=budget,
        margins=margin_map,
        argmins=argmin_map,
        lambda_hat=lam,
        c_hat=c_hat,
        slope_stderr=stderr,
        fit_window=(lo, budget),
        verdict=verdict,
        counterexample=counterexample,
        complete=sample.complete,
        notes=tuple(notes),
    )
