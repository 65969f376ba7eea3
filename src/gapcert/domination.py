"""Gap margins over positive word sets and scale-L domination certificates.

The margin of a word is the log ratio of its k-th to (k+1)-st singular
values; exponential growth of the per-length minimum margin is the
certification target.  A certificate records the fitted growth rate, the
support intercept on the fit window, and an explicit evidence-grade verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetError, EmptySubsetError
from .linalg import (
    GAP_TOLERANCE,
    Representation,
    renormalized_stack,
    stacked_gap_margins,
)
from .subsets import (
    Directed,
    GammaPSample,
    Primitive,
    SubsetPSpec,
    code_letter,
    gamma_p_plus,
)
from .words import Letter, ReducedWord

CERTIFIED = "Certified"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# Singular-value ratios below machine epsilon are unresolvable, so computed
# margins cap out a little above -log(eps) ~= 36.8 for generic dense matrices.
MEASURABLE_MARGIN_CEILING = 34.0


@dataclass(frozen=True)
class CertifyOptions:
    """Thresholds for turning a margin table into a verdict.

    lambda_min: least fitted growth rate accepted as domination evidence.
    eps_res: slack allowed below the reported support line on the window.
    t_refute: an exactly-zero margin at length >= t_refute refutes.
    """

    lambda_min: float = 0.02
    eps_res: float = 1e-6
    t_refute: int = 6


@dataclass(frozen=True)
class DominationCertificate:
    """Margin table plus fitted constants and an evidence-grade verdict.

    The fitted line m(t) ~ lambda_hat * t + c_hat uses least squares for the
    slope on the window [ceil(L/2), L] and the largest intercept keeping the
    line at or below every window margin (support form), so residual_min is
    the worst window slack relative to the reported line.
    """

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

    def margin_points(self) -> list[tuple[int, float]]:
        return sorted(self.margins.items())


def _margin_table(
    rep: Representation, sample: GammaPSample, k: int
) -> dict[int, tuple[float, ReducedWord]]:
    """Minimum margin per length, walking the sample's coded levels.

    Each level's products are its parents' products times one letter image,
    taken as one stacked matmul per letter and renormalized row by row, so
    every product, and so every margin, has the bits of evaluate(rep, w).
    Only the previous level's stack is kept.  np.argmin returns the first
    minimum, which in sort_key order is the lexicographic tie-break.
    """
    if not 1 <= k < rep.dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {rep.dim}, got {k}")
    cores = np.eye(rep.dim)[None]
    logscales = np.zeros(1)
    table: dict[int, tuple[float, ReducedWord]] = {}
    for t, (parents, letters) in enumerate(sample.levels, start=1):
        if not len(letters):
            break  # prefix-closed: every longer level is empty too
        stacked = np.empty((len(letters), rep.dim, rep.dim))
        for code in np.flatnonzero(np.bincount(letters)):
            rows = np.flatnonzero(letters == code)
            stacked[rows] = np.matmul(
                cores[parents[rows]], rep.image(code_letter(int(code)))
            )
        cores, logscales = renormalized_stack(stacked, logscales[parents])
        level = stacked_gap_margins(cores, logscales, k)
        i = int(np.argmin(level))
        table[t] = (float(level[i]), sample.word(t, i))
    if not table:
        raise EmptySubsetError("no positive words at any length up to the budget")
    return table


def margins(
    rep: Representation, spec: SubsetPSpec, k: int, budget: int
) -> dict[int, tuple[float, ReducedWord]]:
    """Per-length minimum margins with lexicographic argmin tie-break."""
    if budget < 2:
        raise BudgetError(f"margin tables need a budget >= 2, got {budget}")
    return _margin_table(rep, gamma_p_plus(spec, budget), k)


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


def slope_tolerance(*certs: "DominationCertificate", floor: float = 1e-9) -> float:
    """Comparison tolerance for fitted slopes: twice the summed standard
    errors, floored to keep exact fits comparable."""
    return max(2.0 * sum(c.slope_stderr for c in certs), floor)


def certify(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    budget: int,
    opts: CertifyOptions = CertifyOptions(),
    extra_notes: Iterable[str] = (),
) -> DominationCertificate:
    """Build a margin table and fit it into an evidence-grade certificate."""
    if budget < 2:
        raise BudgetError(f"certification needs a budget >= 2, got {budget}")
    sample = gamma_p_plus(spec, budget)
    table = _margin_table(rep, sample, k)
    margin_map = {t: v[0] for t, v in table.items()}
    argmin_map = {t: v[1] for t, v in table.items()}
    notes = [
        f"evidence at scale L={budget}; finite enumeration, not a proof",
        *extra_notes,
    ]
    if not sample.complete:
        notes.append("positive set enumeration is truncated (complete=false)")

    counterexample = None
    refuted_at = [
        t
        for t in sorted(margin_map)
        if t >= opts.t_refute and margin_map[t] <= GAP_TOLERANCE
    ]
    if refuted_at:
        counterexample = argmin_map[refuted_at[0]]

    lo = max(1, math.ceil(budget / 2))
    window = [(t, margin_map[t]) for t in sorted(margin_map) if lo <= t <= budget]
    if window and max(m for _, m in window) > MEASURABLE_MARGIN_CEILING:
        notes.append(
            "window margins exceed the double-precision ratio ceiling "
            f"(~{MEASURABLE_MARGIN_CEILING:.1f} log-units); the fitted slope "
            "may be depressed by singular-value saturation"
        )
    if len(window) >= 2:
        lam, _, stderr = _fit_slope(window)
        c_hat = min(m - lam * t for t, m in window)
        residual_min = min(m - (lam * t + c_hat) for t, m in window)
        fitted = True
    else:
        lam, c_hat, stderr, residual_min = math.nan, math.nan, math.nan, math.nan
        fitted = False
        notes.append("fit window has fewer than two populated lengths")

    if refuted_at:
        verdict = REFUTED
    elif fitted and lam >= opts.lambda_min and residual_min >= -opts.eps_res:
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


def primitive_stable_certify(
    rep: Representation,
    k: int,
    max_period: int,
    budget: int,
    opts: CertifyOptions = CertifyOptions(),
) -> DominationCertificate:
    """Certify over the primitive-element axis set.

    The margin index k is taken on the word images; flow-level statements
    about the inverted cocycle read the same data at index d-k.
    """
    spec = Primitive(rep.rank, max_period)
    return certify(
        rep,
        spec,
        k,
        budget,
        opts,
        extra_notes=(
            f"primitive classes enumerated up to period {max_period}",
            f"gap index {k} on word images equals index {rep.dim - k} "
            "on the inverted flow cocycle",
        ),
    )


def directed_anosov_certify(
    rep: Representation,
    k: int,
    steps: Iterable[Letter],
    budget: int,
    opts: CertifyOptions = CertifyOptions(),
) -> DominationCertificate:
    """Certify over the set of step-restricted (directed) lines."""
    step_set = frozenset(steps)
    if not step_set:
        raise EmptySubsetError("directed step set is empty")
    spec = Directed(rep.rank, step_set, allow_inverse_pairs=True)
    return certify(
        rep,
        spec,
        k,
        budget,
        opts,
        extra_notes=(
            f"gap index {k} on word images equals index {rep.dim - k} "
            "on the inverted flow cocycle",
        ),
    )
