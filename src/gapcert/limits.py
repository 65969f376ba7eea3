"""Boundary limit planes: values, transversality, convergence, regularity.

For a certified triple (representation, subset, gap index k) the forward
limit map sends an eventually periodic forward endpoint to the limit of
the attracting k-planes computed along its prefixes; the backward map is
the same computation on the flipped subset at the complementary index.
This module evaluates those maps with a stopping rule that couples the
observed Grassmannian steps to the certificate's decay bound, tabulates
transversality of forward/backward pairs, runs seed-plane convergence and
membership-gated attraction checks, estimates the small-scale regularity
exponent by regression, and reproduces the boundary-discontinuity probe.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .domination import CERTIFIED, DominationCertificate, certify
from .errors import (
    GapcertError,
    InsufficientSampleError,
    MembershipError,
    NoConvergenceError,
    NoGapError,
    NonTransverseSeedError,
    NotCertifiedError,
    NumericalError,
)
from .linalg import (
    SUBSPACE_TOLERANCE,
    Representation,
    ScaledMatrix,
    Subspace,
    evaluate,
    grassmann_distance,
    renormalized_stack,
    stacked_apply_to_subspace,
    stacked_gap_margins,
    stacked_grassmann_distance,
    stacked_u_k,
    transversality_gap,
    u_k,
)
from .subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    SubsetPSpec,
    gamma_p_plus,
    hat,
    is_primitive,
    letter_code,
    q_plus_boundary,
    word_in_positive_set,
)
from .words import (
    BiInfiniteGeodesic,
    BoundaryPoint,
    Letter,
    ReducedWord,
    concat,
    generator,
    gromov_product,
    invert,
    periodic_point,
    ray_point,
    rotate,
    translate,
    visual_distance,
)

DEFAULT_TOL = 1e-10
DEFAULT_N_MAX = 400
DEFAULT_CERT_BUDGET = 8
# The certificate's tail bound may lag the observed steps by this factor
# before the stopping rule treats the two signals as contradictory.
BOUND_SLACK = 10.0
# Regression pairs must share a prefix of at least this length; the
# exponent is a small-scale property and unit-scale pairs pollute the fit.
SMALL_SCALE_PREFIX = 2


# ---------------------------------------------------------------------------
# membership of points and pairs


def _least_rotation(w: ReducedWord) -> ReducedWord:
    return min((rotate(w, i) for i in range(len(w))), key=ReducedWord.sort_key)


def _tail_letter_set(x: BoundaryPoint, start: int) -> set[Letter]:
    """Every letter appearing in the expansion of x at positions >= start."""
    pre = x.preperiod.letters
    return set(pre[start:]) | set(x.period.letters)


def point_in_forward_set(spec: SubsetPSpec, x: BoundaryPoint) -> bool:
    """Whether x is the forward endpoint of some line of the subset."""
    if isinstance(spec, FullBoundary):
        return True
    if isinstance(spec, Directed):
        # a finite head is a shift of the line; only the tail must be directed
        return all(l in spec.steps for l in x.period.letters)
    if isinstance(spec, AxisFamily):
        return _least_rotation(x.period) in spec.words
    if isinstance(spec, Primitive):
        return x.period.max_index() <= spec.rank and is_primitive(
            x.period, spec.rank
        )
    raise TypeError(f"unknown subset description {spec!r}")


def pair_in_subset(spec: SubsetPSpec, x: BoundaryPoint, y: BoundaryPoint) -> bool:
    """Whether (x, y) is an (forward, backward) endpoint pair of the subset."""
    if x == y:
        return False
    if isinstance(spec, FullBoundary):
        return True
    junction = int(gromov_product(x, y))
    if isinstance(spec, Directed):
        forward_ok = _tail_letter_set(x, junction) <= spec.steps
        backward_ok = all(
            l.inverse() in spec.steps for l in _tail_letter_set(y, junction)
        )
        return forward_ok and backward_ok
    # axis-like subsets: after removing the shared approach, the pair must
    # be the two ends of one periodic line through the identity
    approach = invert(x.prefix(junction))
    px, py = translate(approach, x), translate(approach, y)
    if not (px.preperiod.is_empty() and py.preperiod.is_empty()):
        return False
    if py.period != invert(px.period):
        return False
    if isinstance(spec, AxisFamily):
        return _least_rotation(px.period) in spec.words
    if isinstance(spec, Primitive):
        return px.period.max_index() <= spec.rank and is_primitive(
            px.period, spec.rank
        )
    raise TypeError(f"unknown subset description {spec!r}")


# ---------------------------------------------------------------------------
# limit map values


@dataclass(frozen=True, eq=False)
class LimitMapValue:
    """A converged limit plane at one boundary point.

    iterations is the prefix length at which the stopping rule fired,
    last_step the final successive Grassmannian step, cauchy_bound the
    certified step bound at that length, and skipped_prefixes the lengths
    whose evaluation had no usable singular gap and were passed over.
    """

    point: BoundaryPoint
    subspace: Subspace
    iterations: int
    last_step: float
    cauchy_bound: float
    skipped_prefixes: tuple[int, ...] = ()


def cauchy_constant(rep: Representation, certificate: DominationCertificate) -> float:
    """Prefactor of the certified successive-step bound C * exp(-rate * n).

    The singular ratio is bounded through the support intercept over the
    certificate's whole margin table (not just the fit window), so the
    bound covers every sampled length of the certified family.
    """
    intercept = min(
        m - certificate.lambda_hat * t for t, m in certificate.margins.items()
    )
    return rep.letter_norm_bound * math.exp(-intercept)


def _require_certified(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    certificate: Optional[DominationCertificate],
    cert_budget: int,
) -> DominationCertificate:
    if certificate is None:
        certificate = certify(rep, spec, k, cert_budget)
    if certificate.k != k:
        raise ValueError(
            f"certificate is for index {certificate.k}, expected {k}"
        )
    if certificate.verdict != CERTIFIED:
        raise NotCertifiedError(
            f"domination certificate verdict is {certificate.verdict}; "
            "limit planes need a Certified setup"
        )
    return certificate


def _membership_error(x: BoundaryPoint) -> MembershipError:
    return MembershipError(f"{x} is not a forward endpoint of the given subset")


def xi_upper(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    x: BoundaryPoint,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
    assume_member: bool = False,
) -> LimitMapValue:
    """Forward limit plane: attracting k-planes along prefixes of x.

    Stops at the first prefix where three signals agree: the observed
    successive step is below tol, the prefix's own singular-gap margin
    just rose (a falling margin means a cancellation is still unwinding,
    as on detoured rays where early planes look converged but flip later),
    and the remaining-tail bound - seeded at the prefix's actual margin
    and decaying at the certified rate - is below 10 * tol.  If the
    signals still disagree at n_max the evaluation is refused rather than
    trusted.  Prefixes without a usable singular gap are skipped and
    recorded.
    """
    if not (assume_member or point_in_forward_set(spec, x)):
        raise _membership_error(x)
    certificate = _require_certified(rep, spec, k, certificate, cert_budget)
    outcome = _read_limit_walk(rep, k, x, certificate.lambda_hat, tol, n_max)
    if isinstance(outcome, GapcertError):
        raise outcome.with_traceback(None)
    return outcome


# Kinds of shared walk: limit planes (xi_upper / xi_lower, capped at n_max
# prefixes) and flow splittings (capped at n_steps lengths).
LIMIT_WALK = "limit"
SPLITTING_WALK = "splitting"

# The open walk table: per (kind, length cap), the tolerances its walks
# settle and their outcomes by walk key.
_SHARED_WALKS: ContextVar[Optional[dict]] = ContextVar(
    "gapcert_shared_walks", default=None
)

# Failures a shared walk may meet past the stopping step of the tolerance
# being read, where a walk at that tolerance alone has already stopped.
_WALK_FAILURES = (NumericalError, FloatingPointError, np.linalg.LinAlgError)


@contextmanager
def shared_walks(reads: Iterable[tuple[str, int, float]]) -> Iterator[None]:
    """Share limit-plane and splitting walks within the block.

    reads names the walks the block will read, one entry per reader, as
    (kind, length cap, tolerance) with kind LIMIT_WALK or SPLITTING_WALK.
    Inside the block each walk of a kind and cap with two or more readers
    runs once per (representation, point or line, index, rate) and settles
    in that pass every tolerance read at its kind and cap, and no other;
    later calls at any of those tolerances read the stored outcome, which
    is bitwise that of a separate walk.  A kind and cap with one reader
    has nothing to share and is not tabled.  Calls at other tolerances or
    caps, and calls outside the block, walk as usual.  Membership and
    certificate checks still run on every call.
    """
    groups: dict[tuple[str, int], list[float]] = {}
    for kind, cap, tol in reads:
        groups.setdefault((kind, cap), []).append(tol)
    token = _SHARED_WALKS.set(
        {
            group: (tuple(sorted(set(tols))), {})
            for group, tols in groups.items()
            if len(tols) > 1
        }
    )
    try:
        yield
    finally:
        _SHARED_WALKS.reset(token)


def _read_walk(
    group: tuple[str, int],
    key: tuple,
    tol: float,
    walk: Callable[[tuple[float, ...]], Sequence[Any]],
) -> Any:
    """The outcome at tol of walk, a one-pass walk that returns one outcome
    per tolerance it is given, from the open walk table when the block
    reads tol at this kind and cap."""
    shared = _SHARED_WALKS.get()
    entry = None if shared is None else shared.get(group)
    if entry is None or tol not in entry[0]:
        (outcome,) = walk((tol,))
        return outcome
    tols, table = entry
    outcomes = table.get(key)
    if outcomes is None:
        try:
            outcomes = dict(zip(tols, walk(tols)))
        except _WALK_FAILURES:
            # the shared walk goes on past tol's stopping step, so it may
            # fail where a walk at tol alone would not: each tolerance is
            # then walked alone, once
            outcomes = {}
        table[key] = outcomes
    if tol not in outcomes:
        (outcomes[tol],) = walk((tol,))
    return outcomes[tol]


def _read_limit_walk(
    rep: Representation,
    k: int,
    x: BoundaryPoint,
    rate: float,
    tol: float,
    n_max: int,
) -> LimitMapValue | GapcertError:
    """xi_upper's walk at x, from the open walk table when there is one."""
    return _read_walk(
        (LIMIT_WALK, n_max),
        (rep, k, x, rate),
        tol,
        lambda tols: _limit_walk(rep, k, [x], rate, tols, n_max)[0],
    )


def read_splitting_walk(
    rep: Representation,
    line: BiInfiniteGeodesic,
    k: int,
    rate: float,
    n_steps: int,
    tol: float,
    walk: Callable[[tuple[float, ...]], Sequence[Any]],
) -> Any:
    """The outcome at tol of walk, the flow's one-pass splitting walk over
    line, from the open walk table when there is one."""
    return _read_walk((SPLITTING_WALK, n_steps), (rep, line, k, rate), tol, walk)


# Prefix positions whose letter codes are looked up at a time.
_LETTER_CHUNK = 32


def _spelled(
    points: Sequence[BoundaryPoint],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Letter codes of each point's preperiod then period, padded into one
    array, with the preperiod and period lengths as columns."""
    pre = np.array([len(x.preperiod) for x in points])[:, None]
    per = np.array([len(x.period) for x in points])[:, None]
    spelled = np.zeros((len(points), int((pre + per).max())), dtype=np.intp)
    for row, x in enumerate(points):
        letters = x.preperiod.letters + x.period.letters
        spelled[row, : len(letters)] = [letter_code(l) for l in letters]
    return spelled, pre, per


def _letter_codes(
    spelled: np.ndarray, pre: np.ndarray, per: np.ndarray, start: int
) -> np.ndarray:
    """Letter codes at positions start, ..., start + _LETTER_CHUNK - 1."""
    at = np.arange(start, start + _LETTER_CHUNK)
    at = np.where(at < pre, at, pre + (at - pre) % per)
    return np.take_along_axis(spelled, at, axis=1)


def _limit_walk(
    rep: Representation,
    k: int,
    points: Sequence[BoundaryPoint],
    rate: float,
    tols: Sequence[float],
    n_max: int,
) -> list[tuple[LimitMapValue | GapcertError, ...]]:
    """xi_upper's prefix walk, at every point in lockstep and for every
    tolerance in one pass.

    Each prefix length takes one stacked matmul, one row-wise
    renormalization and three stacked SVDs (frames, margins, steps) over
    the points still walking, so each point's products, frames, margins
    and steps have the bits of the one-point loop.  A point walks until
    each tolerance has settled or the walk runs out; no walk state depends
    on the tolerance, so each tolerance's outcome is the one a walk at that
    tolerance alone would give.  Returns per point one outcome per
    tolerance, in the order of tols: its LimitMapValue, or the NoGapError /
    NoConvergenceError it ends in; callers raise a point's error when they
    read that point.
    """
    if not 1 <= k < rep.dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {rep.dim}, got {k}")
    if not points:
        return []
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    allowances = [BOUND_SLACK * tol for tol in tols]
    images = rep.stacked_images
    outcomes: list[list[LimitMapValue | GapcertError]] = [
        [None] * len(tols) for _ in points
    ]
    skipped: list[list[int]] = [[] for _ in points]
    # per point, the tolerances (by index) it has not settled yet
    waiting: list[list[int]] = [list(range(len(tols))) for _ in points]
    # state of the rows still walking; bases hold the full left singular
    # matrices of the current planes, whose first k columns are the frames
    spelled, pre, per = _spelled(points)
    rows = np.arange(len(points))
    # each row's loosest waiting tolerance: no other can settle before it
    loosest = np.full(len(points), max(tols))
    cores = np.repeat(np.eye(rep.dim)[None], len(points), axis=0)
    logscales = np.zeros(len(points))
    bases = np.empty_like(cores)
    has_plane = np.zeros(len(points), dtype=bool)
    all_planes = False
    steps = np.full(len(points), math.inf)
    margins_prev = np.full(len(points), -math.inf)
    last_margins = np.full(len(points), math.nan)
    for n in range(1, n_max + 1):
        if not len(rows):
            break
        column = (n - 1) % _LETTER_CHUNK
        if column == 0:
            letters = _letter_codes(spelled[rows], pre[rows], per[rows], n - 1)
        cores, logscales = renormalized_stack(
            np.matmul(cores, images[letters[:, column]]), logscales
        )
        left, gapless = stacked_u_k(cores, k)
        some_gapless = np.count_nonzero(gapless) > 0
        if some_gapless:
            # a gapless prefix keeps its row's plane, step and last margin,
            # and reads as margin -inf, so the next gap counts as rising
            for r in rows[gapless].tolist():
                skipped[r].append(n)
            live = np.flatnonzero(~gapless)
            margins = np.full(len(rows), -math.inf)
            margins[live] = stacked_gap_margins(cores[live], logscales[live], k)
        else:
            margins = stacked_gap_margins(cores, logscales, k)
        if all_planes and not some_gapless:
            steps = stacked_grassmann_distance(bases[..., :k], left[..., :k])
        else:
            moving = np.flatnonzero(has_plane & ~gapless)
            if len(moving):
                steps = steps.copy()
                steps[moving] = stacked_grassmann_distance(
                    bases[moving][..., :k], left[moving][..., :k]
                )
        if some_gapless:
            bases = np.where(gapless[:, None, None], bases, left)
            last_margins = np.where(gapless, last_margins, margins)
        else:
            bases, last_margins = left, margins
        has_plane = has_plane | ~gapless
        all_planes = all_planes or not some_gapless
        rising = margins > margins_prev
        margins_prev = margins
        hopeful = np.flatnonzero((steps <= loosest) & rising)
        if not len(hopeful):
            continue
        done = []
        for i, m in zip(hopeful.tolist(), margins[hopeful].tolist()):
            r = int(rows[i])
            step = float(steps[i])
            ratio = math.exp(-m)
            bound = worst_pair * ratio * tail_factor
            settled = [
                j for j in waiting[r] if step <= tols[j] and bound <= allowances[j]
            ]
            if not settled:
                continue
            value = LimitMapValue(
                point=points[r],
                subspace=Subspace(k, left[i][:, :k]),
                iterations=n,
                last_step=step,
                cauchy_bound=worst_pair * ratio,
                skipped_prefixes=tuple(skipped[r]),
            )
            for j in settled:
                outcomes[r][j] = value
            waiting[r] = [j for j in waiting[r] if j not in settled]
            if waiting[r]:
                loosest[i] = max(tols[j] for j in waiting[r])
            else:
                done.append(i)
        if not done:
            continue
        keep = np.ones(len(rows), dtype=bool)
        keep[done] = False
        rows, letters, cores, logscales, bases = (
            rows[keep], letters[keep], cores[keep], logscales[keep], bases[keep]
        )
        has_plane, steps, margins_prev, last_margins, loosest = (
            has_plane[keep],
            steps[keep],
            margins_prev[keep],
            last_margins[keep],
            loosest[keep],
        )
    for i, r in enumerate(rows.tolist()):
        x = points[r]
        for j in waiting[r]:
            if not has_plane[i]:
                first = skipped[r]
                offending = str(x.prefix(first[0])) if first else "(empty)"
                outcomes[r][j] = NoGapError(
                    f"no prefix of {x} up to length {n_max} has a singular gap "
                    f"of index {k}; first offending prefix '{offending}'"
                )
                continue
            tol = tols[j]
            bound = worst_pair * math.exp(-float(last_margins[i])) * tail_factor
            outcomes[r][j] = NoConvergenceError(
                f"no certified convergence for {x} within {n_max} prefixes: "
                f"last step {float(steps[i]):.3e} against tolerance {tol:.1e}, "
                f"ray-margin tail bound {bound:.3e} against allowance "
                f"{BOUND_SLACK * tol:.1e}, {len(skipped[r])} gapless prefixes "
                "skipped"
            )
    return [tuple(row) for row in outcomes]


def xi_lower(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    y: BoundaryPoint,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
    assume_member: bool = False,
) -> LimitMapValue:
    """Backward limit plane of dimension d-k: the forward map of the
    flipped subset at the complementary index, on the same code path.

    A supplied certificate must be for (flipped subset, d-k).
    """
    return xi_upper(
        rep,
        hat(spec),
        rep.dim - k,
        y,
        tol=tol,
        n_max=n_max,
        certificate=certificate,
        cert_budget=cert_budget,
        assume_member=assume_member,
    )


# ---------------------------------------------------------------------------
# transversality


@dataclass(frozen=True)
class TransversalityTable:
    """Per-pair transversality gaps between forward and backward planes."""

    pairs: tuple[tuple[BoundaryPoint, BoundaryPoint], ...]
    gaps: tuple[float, ...]
    minimum: float


def transversality_table(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    pairs: Sequence[tuple[BoundaryPoint, BoundaryPoint]],
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    dual_certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> TransversalityTable:
    """Transversality gap of (forward plane at x, backward plane at y)
    for each subset pair, with the worst gap summarized."""
    if not pairs:
        raise ValueError("transversality table needs at least one pair")
    certificate = _require_certified(rep, spec, k, certificate, cert_budget)
    dual_certificate = _require_certified(
        rep, hat(spec), rep.dim - k, dual_certificate, cert_budget
    )
    forward: dict[BoundaryPoint, Subspace] = {}
    backward: dict[BoundaryPoint, Subspace] = {}
    gaps: list[float] = []
    for x, y in pairs:
        if not pair_in_subset(spec, x, y):
            raise MembershipError(f"({x}, {y}) is not an endpoint pair of the subset")
        if x not in forward:
            forward[x] = xi_upper(
                rep, spec, k, x, tol, n_max, certificate=certificate
            ).subspace
        if y not in backward:
            backward[y] = xi_lower(
                rep, spec, k, y, tol, n_max, certificate=dual_certificate
            ).subspace
        gaps.append(transversality_gap(forward[x], backward[y]))
    return TransversalityTable(
        pairs=tuple((x, y) for x, y in pairs),
        gaps=tuple(gaps),
        minimum=min(gaps),
    )


# ---------------------------------------------------------------------------
# convergence curves


@dataclass(frozen=True)
class ConvergenceCurve:
    """Distances along a word schedule, with the pass/fail summary."""

    lengths: tuple[int, ...]
    distances: tuple[float, ...]
    final: float
    passed: bool


def _eventually_decreasing(values: Sequence[float], floor: float = 1e-12) -> bool:
    """Nonincreasing over the last half, up to 10% wobble above a floor."""
    tail = list(values[len(values) // 2 :])
    return all(b <= 1.1 * a + floor for a, b in zip(tail, tail[1:]))


def sdp_check(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    x: BoundaryPoint,
    y: BoundaryPoint,
    seed: Subspace,
    schedule: Optional[Sequence[ReducedWord]] = None,
    tol: float = 1e-8,
    n_points: int = 30,
    xi_tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    dual_certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> ConvergenceCurve:
    """Push a seed k-plane along the schedule toward the forward plane at x.

    The seed must be transverse to the backward plane at y.  The default
    schedule takes the prefixes of x, which are the forward vertices of
    the connecting line when that line passes through the identity; an
    explicit schedule's limiting behavior is the caller's responsibility.
    Passes when the final distance is below tol and the curve's tail is
    decreasing within noise.
    """
    certificate = _require_certified(rep, spec, k, certificate, cert_budget)
    dual_certificate = _require_certified(
        rep, hat(spec), rep.dim - k, dual_certificate, cert_budget
    )
    if not pair_in_subset(spec, x, y):
        raise MembershipError(f"({x}, {y}) is not an endpoint pair of the subset")
    target = xi_upper(
        rep, spec, k, x, xi_tol, n_max, certificate=certificate
    ).subspace
    repeller = xi_lower(
        rep, spec, k, y, xi_tol, n_max, certificate=dual_certificate
    ).subspace
    gap = transversality_gap(seed, repeller)
    if gap <= SUBSPACE_TOLERANCE:
        raise NonTransverseSeedError(
            f"seed plane meets the backward limit plane (gap {gap:.2e})"
        )
    if schedule is None:
        if int(gromov_product(x, y)) != 0:
            raise MembershipError(
                "the connecting line misses the identity; "
                "supply an explicit schedule"
            )
        lengths = tuple(range(1, n_points + 1))
        products = _prefix_products(rep, x, n_points)
    else:
        lengths = tuple(len(g) for g in schedule)
        products = (evaluate(rep, g) for g in schedule)
    if not lengths:
        raise ValueError("schedule must contain at least one word")
    cores = np.stack([m.core for m in products])
    moved = stacked_apply_to_subspace(cores, seed)
    distances = stacked_grassmann_distance(moved, target.frame).tolist()
    final = distances[-1]
    return ConvergenceCurve(
        lengths=lengths,
        distances=tuple(distances),
        final=final,
        passed=final < tol and _eventually_decreasing(distances),
    )


def _prefix_products(rep: Representation, x: BoundaryPoint, count: int):
    """evaluate(rep, x.prefix(n)) for n = 1, ..., count, as one running
    product; each prefix extends the last on the right, so the bits are
    evaluate's."""
    current = ScaledMatrix.identity(rep.dim)
    for n in range(count):
        current = current.times(rep.image(x.letter_at(n)))
        yield current


def cartan_check(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    x: BoundaryPoint,
    words: Sequence[ReducedWord],
    b: int = 0,
    tol: float = 1e-8,
    xi_tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> ConvergenceCurve:
    """Distance from the attracting plane of each verified positive word
    to the forward plane at x.

    Every word must be a verified member of the positive set within
    shift b (word_in_positive_set); words without a witness are refused,
    never silently accepted.
    """
    if not words:
        raise ValueError("cartan check needs at least one word")
    if b < 0:
        raise ValueError("shift b must be >= 0")
    certificate = _require_certified(rep, spec, k, certificate, cert_budget)
    longest = max(len(w) for w in words)
    sample = gamma_p_plus(spec, longest + b)
    for w in words:
        if not word_in_positive_set(spec, w, b, sample=sample):
            raise MembershipError(
                f"'{w}' has no witness in the positive set within shift {b}"
            )
    target = xi_upper(
        rep, spec, k, x, xi_tol, n_max, certificate=certificate
    ).subspace
    distances = [
        grassmann_distance(u_k(evaluate(rep, w), k), target) for w in words
    ]
    final = distances[-1]
    return ConvergenceCurve(
        lengths=tuple(len(w) for w in words),
        distances=tuple(distances),
        final=final,
        passed=final < tol,
    )


# ---------------------------------------------------------------------------
# regularity


@dataclass(frozen=True)
class HolderFit:
    """Power-law fit of plane distance against boundary distance."""

    alpha_hat: float
    log_c_hat: float
    r_squared: float
    pairs_used: int
    cutoff: float


def holder_estimate(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    b: int = 0,
    kappa: float = 1.0,
    sample_size: int = 200,
    seed: int = 0,
    max_period: int = 6,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> HolderFit:
    """Estimate the regularity exponent of the forward limit map.

    Samples distinct endpoint pairs from the b-shifted forward boundary
    sample, keeps those at small scale (shared prefix of at least
    SMALL_SCALE_PREFIX, i.e. visual distance <= exp(-kappa * 2)) whose
    plane distance is numerically nonzero, and fits
    log(plane distance) = alpha * log(visual distance) + log C.
    Deterministic for a fixed seed.
    """
    certificate = _require_certified(rep, spec, k, certificate, cert_budget)
    points = sorted(q_plus_boundary(spec, max_period, b), key=str)
    rng = np.random.default_rng(seed)
    cutoff = math.exp(-kappa * SMALL_SCALE_PREFIX)
    outcomes: dict[BoundaryPoint, LimitMapValue | GapcertError] = {}

    def walk(batch: list[tuple[BoundaryPoint, BoundaryPoint, float]]) -> None:
        fresh = list(dict.fromkeys(p for x, y, _ in batch for p in (x, y)))
        members = []
        for p in fresh:
            if p in outcomes:
                continue
            if point_in_forward_set(spec, p):
                members.append(p)
            else:
                outcomes[p] = _membership_error(p)
        walked = _limit_walk(rep, k, members, certificate.lambda_hat, (tol,), n_max)
        outcomes.update((p, outcome) for p, (outcome,) in zip(members, walked))

    def plane_at(p: BoundaryPoint) -> Subspace:
        outcome = outcomes[p]
        if isinstance(outcome, GapcertError):
            raise outcome
        return outcome.subspace

    log_visual: list[float] = []
    log_plane: list[float] = []
    seen: set[frozenset[BoundaryPoint]] = set()
    attempts = 0
    limit = 50 * sample_size
    # Draw pairs in the order the one-pair-at-a-time loop would: each round
    # draws just enough small-scale pairs to cover the shortfall if all of
    # them score, walks their new points together, then scores them in
    # order, so a failed point raises when its pair is read.
    while len(points) >= 2 and len(log_visual) < sample_size and attempts < limit:
        batch = []
        while len(batch) < sample_size - len(log_visual) and attempts < limit:
            attempts += 1
            i, j = rng.integers(0, len(points), size=2)
            if i == j:
                continue
            x, y = points[i], points[j]
            key = frozenset((x, y))
            if key in seen:
                continue
            visual = visual_distance(x, y, kappa)
            if visual > cutoff:
                continue
            seen.add(key)
            batch.append((x, y, visual))
        walk(batch)
        for x, y, visual in batch:
            separation = grassmann_distance(plane_at(x), plane_at(y))
            if separation <= 1e-14:
                continue
            log_visual.append(math.log(visual))
            log_plane.append(math.log(separation))
    if len(log_visual) < 10:
        raise InsufficientSampleError(
            f"only {len(log_visual)} usable small-scale pairs (need 10)"
        )
    xs = np.array(log_visual)
    ys = np.array(log_plane)
    design = np.column_stack([xs, np.ones_like(xs)])
    (alpha, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    residuals = ys - design @ np.array([alpha, intercept])
    total = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - float(residuals @ residuals) / total
    return HolderFit(
        alpha_hat=float(alpha),
        log_c_hat=float(intercept),
        r_squared=r_squared,
        pairs_used=len(log_visual),
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# discontinuity probe


@dataclass(frozen=True)
class DiscontinuityProbe:
    """Rows m -> (visual distance to the base point, plane separation)."""

    exponents: tuple[int, ...]
    visual: tuple[float, ...]
    separations: tuple[float, ...]
    separated: bool


def discontinuity_probe(
    rep: Representation,
    exponents: Iterable[int] = range(1, 11),
    kappa: float = 1.0,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> DiscontinuityProbe:
    """Probe the forward limit map across the first-axis family.

    Evaluates the forward plane at the base periodic point of the first
    generator and at its detoured approximants (first-generator power,
    one second-generator letter, then the periodic tail).  The approach
    distance shrinks while the plane separation need not: `separated`
    reports whether the separation stays large as the approach collapses.
    """
    if rep.rank < 2:
        raise ValueError("the probe needs at least two generators")
    exponents = tuple(exponents)
    if not exponents or any(m < 1 for m in exponents):
        raise ValueError("exponents must be positive")
    a_word = ReducedWord((generator(1),))
    b_word = ReducedWord((generator(2),))
    spec = AxisFamily(rep.rank, (a_word,))
    certificate = _require_certified(rep, spec, 1, None, cert_budget)
    base = xi_upper(
        rep, spec, 1, periodic_point(a_word), tol, n_max, certificate=certificate
    ).subspace
    visual: list[float] = []
    separations: list[float] = []
    for m in exponents:
        approx = ray_point(
            concat(ReducedWord(tuple(generator(1) for _ in range(m))), b_word),
            a_word,
        )
        value = xi_upper(
            rep, spec, 1, approx, tol, n_max, certificate=certificate
        ).subspace
        visual.append(visual_distance(approx, periodic_point(a_word), kappa))
        separations.append(grassmann_distance(base, value))
    separated = visual[-1] <= math.exp(-2.0 * kappa) and min(separations) >= 0.5
    return DiscontinuityProbe(
        exponents=exponents,
        visual=tuple(visual),
        separations=tuple(separations),
        separated=separated,
    )
