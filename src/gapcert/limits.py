"""Boundary limit planes: values, transversality, convergence, regularity.

For a certified triple (representation, subset, gap index k) the forward
limit map sends an eventually periodic forward endpoint to the limit of
the attracting k-planes computed along its prefixes; the backward map is
the same computation on the flipped subset at the complementary index.
A prefix walks certify's exterior powers for index k: its margin is
certify's, and its plane is read off the top vector of its wedge^k, whose
error stays near u where the top-k block of rho's product loses
u sigma_1 / sigma_k (Bochi-Potrie-Sambarino).  This module evaluates
those maps with a stopping rule that couples the observed Grassmannian
steps to the certificate's decay bound, tabulates transversality of
forward/backward pairs, runs seed-plane convergence and membership-gated
attraction checks, estimates the small-scale regularity exponent by
regression, and reproduces the boundary-discontinuity probe.
A plane is walked once per process: a table keyed by the generator images'
bytes, the point and the index keeps its walk for every later reader.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .domination import (
    CERTIFIED,
    DominationCertificate,
    _level_block,
    _require_same_rank,
    certify,
)
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
    GAP_TOLERANCE,
    SUBSPACE_TOLERANCE,
    Representation,
    Subspace,
    evaluate,
    grassmann_distance,
    power_images,
    running_products,
    stacked_apply_to_subspace,
    stacked_grassmann_distance,
    stacked_margins,
    stacked_top_planes,
    transversality_gap,
)
from .pcg64 import Stream
from .subsets import (
    AxisFamily,
    SubsetPSpec,
    _require_pair,
    hat,
    point_in_forward_set,
    q_plus_boundary,
    word_in_positive_set,
)
from .words import (
    BoundaryPoint,
    ReducedWord,
    gromov_product,
    periodic_point,
    visual_distance,
)

DEFAULT_TOL = 1e-10
DEFAULT_N_MAX = 400
DEFAULT_CERT_BUDGET = 8
# A convergence curve passes when its final distance is below this.
PASS_TOL = 1e-8
# The certificate's tail bound may lag the observed steps by this factor
# before the stopping rule treats the two signals as contradictory.
BOUND_SLACK = 10.0
# Regression pairs must share a prefix of at least this length; the
# exponent is a small-scale property and unit-scale pairs pollute the fit.
SMALL_SCALE_PREFIX = 2


# ---------------------------------------------------------------------------
# limit map values


class LimitMapValue(
    namedtuple(
        "LimitMapValue",
        "point subspace iterations last_step cauchy_bound skipped_prefixes",
        defaults=((),),
    )
):
    """A converged limit plane at one boundary point.

    iterations is the prefix length at which the stopping rule fired,
    last_step the final successive Grassmannian step, cauchy_bound the
    certified step bound at that length, and skipped_prefixes the lengths
    whose evaluation had no usable singular gap and were passed over.
    """

    __slots__ = ()

    point: BoundaryPoint
    subspace: Subspace
    iterations: int
    last_step: float
    cauchy_bound: float
    skipped_prefixes: tuple[int, ...]


def _require_certified(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    certificate: Optional[DominationCertificate],
) -> DominationCertificate:
    """certificate, or one made at DEFAULT_CERT_BUDGET when none is given,
    once it is for index k and Certified."""
    _require_same_rank(rep, spec)
    if certificate is None:
        certificate = certify(rep, spec, k, DEFAULT_CERT_BUDGET)
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
) -> LimitMapValue:
    """Forward limit plane: attracting k-planes along prefixes of x.

    Stops at the first prefix where three signals agree: the observed
    successive step is below tol, the prefix's own gap margin (certify's)
    just rose (a falling margin means a cancellation is still unwinding,
    as on detoured rays where early planes look converged but flip later),
    and the remaining-tail bound - seeded at the prefix's actual margin
    and decaying at the certified rate - is below 10 * tol.  If the
    signals still disagree at n_max the evaluation is refused rather than
    trusted.  Prefixes with a margin of at most GAP_TOLERANCE are skipped
    and recorded.
    """
    if not point_in_forward_set(spec, x):
        raise _membership_error(x)
    certificate = _require_certified(rep, spec, k, certificate)
    return _plane(rep, k, x, certificate.lambda_hat, tol, n_max)


def _plane(
    rep: Representation, k: int, x: BoundaryPoint, rate: float, tol: float, n_max: int
) -> LimitMapValue:
    """The k-plane at x by xi_upper's stopping rule at the given rate, read
    from the walk table's walk of x.  The rule fires at the first length
    that passes, and a cap only cuts it off: a value is kept on the walk
    under (rate, tol) for every read whose cap reaches its stop, and a read
    whose cap falls short runs the rule again.  Errors are not kept."""
    walk = _table_walk(rep, k, x)
    value = walk.values.get((rate, tol))
    if value is None or value.iterations > n_max:
        (value,) = _limit_planes(rep, k, [x], rate, tol, n_max, walk)
        if isinstance(value, GapcertError):
            raise value
        walk.values[rate, tol] = value
    return value


# ---------------------------------------------------------------------------
# the walk core and the walk table

# The most walks the table keeps, the least recently read out first.
WALKS_SIZE = 128
_WALKS: "dict[tuple, _Walk]" = {}


def _table_walk(rep: Representation, k: int, x: BoundaryPoint) -> "_Walk":
    """The process's prefix walk of x at index k, made on its first read.
    The table is keyed by content, the generator images' bytes, x and k,
    as certify's memo is, so every reader of one plane in the process (the
    tasks of a run, the configs of a sweep, both summands of a splitting)
    resumes one walk; no key holds a tolerance, cap or rate, on which no
    walk depends.  It takes no lock: gapcert starts no thread."""
    key = (rep.rank, rep.dim, rep.stacked_images.tobytes(), x, k)
    walk = _WALKS[key] = _WALKS.pop(key, None) or _Walk(rep, k, [x])
    if len(_WALKS) > WALKS_SIZE:
        del _WALKS[next(iter(_WALKS))]
    return walk


# Lengths a walk advances at a time: their products are built one after
# another, their letter lookups, tops, SVDs and steps taken once.
_WALK_CHUNK = 8

# Failures a chunk may meet past a reader's stopping length, where a walk
# one length at a time has already stopped.
_WALK_FAILURES = (NumericalError, FloatingPointError, np.linalg.LinAlgError)


class _Chunk(namedtuple("_Chunk", "start rows frames live margins rising steps")):
    """The lengths start + 1, ..., start + len(live) of the walk's rows
    `rows`.  Per length and row: the d x k frame of the row's plane
    (frames), whether the row has a plane there (live), its gap margin
    (-inf where not live), whether that margin rose from the length
    before, and the step from its last plane (inf without one)."""

    __slots__ = ()

    start: int
    rows: np.ndarray
    frames: np.ndarray
    live: np.ndarray
    margins: np.ndarray
    rising: np.ndarray
    steps: np.ndarray


class _Walk:
    """The prefix products of some points in lockstep, one row per point,
    with the attracting k-planes, gap margins and steps of every length
    walked.  A row walks power_images(rep, k) by certify's _level_block
    and keeps their log scales and its log|det|, so a margin is certify's;
    a plane is stacked_top_planes of power k.  It advances _WALK_CHUNK
    lengths at a time, and one at a time only while it walks a failed
    chunk again.

    Nothing a walk keeps depends on a tolerance or length cap, so readers
    at any of them share it; values holds _plane's outcomes on the walk.
    """

    def __init__(self, rep: Representation, k: int, points: Sequence[BoundaryPoint]):
        width = len(points)
        self.rep, self.k, self.groups = rep, k, power_images(rep, k)
        self.codes = _prefix_codes(points)
        self.length = 0
        self.rows = np.arange(width)  # the rows walking on
        self.chunks: list[_Chunk] = []
        self.single_until = 0  # after a chunk that failed, single lengths
        self.values: dict[tuple[float, float], LimitMapValue] = {}
        # per row: each group's products and their log scales, the log|det|,
        # the frame of its last plane, and the margin at the last length
        self.products = [
            (np.tile(np.eye(m), (width, w, 1, 1)), np.zeros((width, w)))
            for w, m in (images.shape[1:3] for _, images in self.groups)
        ]
        self.logdets = np.zeros(width)
        self.last = np.empty((width, rep.dim, k))
        self.has_plane = np.zeros(width, dtype=bool)
        self.last_margins = np.full(width, -math.inf)

    def read(self, n_max: int, waiting: np.ndarray) -> Iterator[_Chunk]:
        """The chunks that start below length n_max: those kept, then new
        ones that walk the rows still waiting.  A row that has stopped waiting
        when the walk goes on stops walking for good, so a walk of several
        rows serves one reader, while a reader of one row that stops leaves
        a walk to resume."""
        at = 0
        while True:
            while at < len(self.chunks) and self.chunks[at].start < n_max:
                at += 1
                yield self.chunks[at - 1]
            if at < len(self.chunks) or self.length >= n_max:
                return
            self.rows = self.rows[waiting[self.rows]]
            if not len(self.rows):
                return
            single = self.length < self.single_until
            count = min(1 if single else _WALK_CHUNK, n_max - self.length)
            try:
                self._walk(count)
            except _WALK_FAILURES:
                # the chunk may reach past a reader's stop: walk it again
                # one length at a time, so the walk raises only where that
                # would
                if count == 1:
                    raise
                self.single_until = self.length + count

    def _walk(self, count: int) -> None:
        rows, start, width = self.rows, self.length, len(self.rows)
        dim, k, shape = self.rep.dim, self.k, (count, width)
        # one gather of the letter codes serves every group and the log|det|
        codes = self.codes(rows, start, count)
        walked = [
            (np.empty(shape + c.shape[1:]), np.empty(shape + s.shape[1:]))
            for c, s in self.products
        ]
        tops = _level_block(self.groups, self.products, rows, codes, walked)
        dets = np.take(self.rep.stacked_logdets, codes)
        logdets = np.cumsum(np.vstack([self.logdets[rows], dets]), axis=0)[1:]
        margins = stacked_margins(tops, logdets, k, dim)
        live = margins > GAP_TOLERANCE
        # a length without a plane keeps its row's plane and reads as
        # margin -inf, so the next margin counts as rising
        margins[~live] = -math.inf
        group = zip(self.groups, walked)
        power = next(c[:, :, p.index(k)] for (p, _), (c, _) in group if k in p)
        frames = stacked_top_planes(power.reshape((-1,) + power.shape[2:]), k, dim)
        frames = frames.reshape(count, width, dim, k)
        # the rows' last planes, then the chunk's; latest[t] indexes each
        # row's plane after t lengths of the chunk (-1: none yet)
        planes = np.concatenate([self.last[rows], frames.reshape(-1, dim, k)])
        own = np.arange(width, width * (count + 1)).reshape(count, width)
        first = np.where(self.has_plane[rows], np.arange(width), -1)[None]
        latest = np.maximum.accumulate(np.concatenate([first, np.where(live, own, -1)]))
        moving = live & (latest[:-1] >= 0)
        steps = np.full((count, width), math.inf)
        if moving.any():
            steps[moving] = stacked_grassmann_distance(
                planes[latest[:-1][moving]], planes[own[moving]]
            )
        rising = margins > np.vstack([self.last_margins[rows], margins[:-1]])
        # nothing below fails numerically: keep the chunk
        self.chunks.append(_Chunk(start, rows, frames, live, margins, rising, steps))
        self.length += count
        for (cores, scales), (chunk, chunk_scales) in zip(self.products, walked):
            cores[rows], scales[rows] = chunk[-1], chunk_scales[-1]
        self.logdets[rows] = logdets[-1]
        self.last[rows] = planes[latest[-1]]  # -1 reads some plane, unread
        self.has_plane[rows] = latest[-1] >= 0
        self.last_margins[rows] = margins[-1]


def _prefix_codes(points: Sequence[BoundaryPoint]) -> Callable[..., np.ndarray]:
    """codes(rows, start, count): the (count, len(rows)) letter codes at
    positions start, ..., start + count - 1 of the rows' points."""
    # each point's preperiod then period, padded into one array, with the
    # preperiod and period lengths as columns
    pre = np.array([len(x.preperiod) for x in points])[:, None]
    per = np.array([len(x.period) for x in points])[:, None]
    spelled = np.zeros((len(points), int((pre + per).max(initial=0))), dtype=np.intp)
    for row, x in enumerate(points):
        letters = x.preperiod.letters + x.period.letters
        spelled[row, : len(letters)] = letters

    def codes(rows: np.ndarray, start: int, count: int) -> np.ndarray:
        at = np.arange(start, start + count)
        at = np.where(at < pre[rows], at, pre[rows] + (at - pre[rows]) % per[rows])
        return np.take_along_axis(spelled[rows], at, axis=1).T

    return codes


def _limit_planes(rep, k, points, rate, tol, n_max, walk=None) -> list:
    """_limit_stops over walk (by default a new walk of the points in
    lockstep), with a LimitMapValue made at each stop."""
    walk = walk or _Walk(rep, k, points)
    outcomes = _limit_stops(rep, k, points, rate, tol, n_max, walk)
    worst_pair = rep.letter_norm_bound
    for r, stop in enumerate(outcomes):
        if not isinstance(stop, GapcertError):
            chunk, t, i, skipped = stop
            outcomes[r] = LimitMapValue(
                point=points[r],
                subspace=Subspace(k, chunk.frames[t, i]),
                iterations=chunk.start + t + 1,
                last_step=float(chunk.steps[t, i]),
                cauchy_bound=worst_pair * math.exp(-float(chunk.margins[t, i])),
                skipped_prefixes=skipped,
            )
    return outcomes


def _limit_stops(rep, k, points, rate, tol, n_max, walk: _Walk) -> list:
    """xi_upper's stopping rule at tol, up to n_max prefixes, over walk,
    the prefix walk of points: per point, where the rule first fires, as
    (chunk, t, i, skipped) - the plane in chunk.frames[t, i], at length
    chunk.start + t + 1 after the gapless lengths skipped - or the
    NoGapError / NoConvergenceError that its reader raises."""
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    allowance = BOUND_SLACK * tol
    outcomes: list = [None] * len(points)
    waiting = np.ones(len(points), dtype=bool)
    skipped: list[list[int]] = [[] for _ in points]
    for chunk in walk.read(n_max, waiting):
        upto = min(len(chunk.live), n_max - chunk.start)
        rows, live = chunk.rows, chunk.live[:upto]
        if not live.all():
            for t, i in zip(*np.nonzero(~live & waiting[rows])):
                skipped[rows[i]].append(chunk.start + int(t) + 1)
        hits = chunk.rising[:upto] & (chunk.steps[:upto] <= tol) & waiting[rows]
        # row by row, its hits in order of length, up to its first that passes
        columns, lengths = np.nonzero(hits.T)
        stopped_at = -1
        for i, t in zip(columns.tolist(), lengths.tolist()):
            if i == stopped_at:
                continue
            ratio = math.exp(-float(chunk.margins[t, i]))
            if worst_pair * ratio * tail_factor > allowance:
                continue
            stopped_at, r, n = i, int(rows[i]), chunk.start + t + 1
            stopped = tuple(skipped[r][: bisect_left(skipped[r], n)])
            outcomes[r] = (chunk, t, i, stopped)
            waiting[r] = False
        if not waiting.any():
            break
    # per point still waiting, the step and margin at its last plane
    last: dict[int, tuple[float, float]] = {}
    for chunk in walk.chunks if waiting.any() else ():
        live = chunk.live[: max(n_max - chunk.start, 0)] & waiting[chunk.rows]
        for t, i in zip(*np.nonzero(live)):
            last[int(chunk.rows[i])] = (chunk.steps[t, i], chunk.margins[t, i])
    for r in np.nonzero(waiting)[0].tolist():
        x = points[r]
        if r not in last:
            offending = str(x.prefix(skipped[r][0])) if skipped[r] else "(empty)"
            outcomes[r] = NoGapError(
                f"no prefix of {x} up to length {n_max} has a singular gap "
                f"of index {k}; first offending prefix '{offending}'"
            )
            continue
        step, margin = last[r]
        bound = worst_pair * math.exp(-float(margin)) * tail_factor
        outcomes[r] = NoConvergenceError(
            f"no certified convergence for {x} within {n_max} prefixes: "
            f"last step {float(step):.3e} against tolerance {tol:.1e}, "
            f"ray-margin tail bound {bound:.3e} against allowance "
            f"{allowance:.1e}, {len(skipped[r])} gapless prefixes skipped"
        )
    return outcomes


def xi_lower(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    y: BoundaryPoint,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
) -> LimitMapValue:
    """Backward limit plane of dimension d-k: the forward plane of the
    flipped subset at the complementary index, on the same code path.

    A supplied certificate must be for (subset, k).  It is the flipped
    subset's at d-k too, as sigma_i(g^-1) = 1/sigma_{d+1-i}(g).
    """
    if not point_in_forward_set(hat(spec), y):
        raise _membership_error(y)
    certificate = _require_certified(rep, spec, k, certificate)
    return _plane(rep, rep.dim - k, y, certificate.lambda_hat, tol, n_max)


# ---------------------------------------------------------------------------
# transversality


class TransversalityTable(namedtuple("TransversalityTable", "pairs gaps minimum")):
    """Per-pair transversality gaps between forward and backward planes."""

    __slots__ = ()

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
) -> TransversalityTable:
    """Transversality gap of (forward plane at x, backward plane at y)
    for each subset pair, with the worst gap summarized.  One certificate
    rates the planes on both sides."""
    if not pairs:
        raise ValueError("transversality table needs at least one pair")
    certificate = _require_certified(rep, spec, k, certificate)
    gaps: list[float] = []
    for x, y in pairs:
        _require_pair(spec, x, y)
        forward = xi_upper(rep, spec, k, x, tol, n_max, certificate=certificate)
        backward = xi_lower(rep, spec, k, y, tol, n_max, certificate=certificate)
        gaps.append(transversality_gap(forward.subspace, backward.subspace))
    return TransversalityTable(tuple(map(tuple, pairs)), tuple(gaps), min(gaps))


# ---------------------------------------------------------------------------
# convergence curves


class ConvergenceCurve(
    namedtuple("ConvergenceCurve", "lengths distances final passed")
):
    """Distances along a word schedule, with the pass/fail summary."""

    __slots__ = ()

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
    tol: float = PASS_TOL,
    n_points: int = 30,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
) -> ConvergenceCurve:
    """Push a seed k-plane along the schedule toward the forward plane at x.

    The seed must be transverse to the backward plane at y.  The default
    schedule takes the prefixes of x, which are the forward vertices of
    the connecting line when that line passes through the identity; an
    explicit schedule's limiting behavior is the caller's responsibility.
    Passes when the final distance is below tol and the curve's tail is
    decreasing within noise.  Both limit planes are walked at DEFAULT_TOL,
    at the rate of the one certificate.
    """
    certificate = _require_certified(rep, spec, k, certificate)
    _require_pair(spec, x, y)
    target = xi_upper(rep, spec, k, x, DEFAULT_TOL, n_max, certificate).subspace
    repeller = xi_lower(rep, spec, k, y, DEFAULT_TOL, n_max, certificate).subspace
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
        # the prefixes of x as one running product, bitwise evaluate's
        factors = rep.stacked_images[[x.letter_at(n) for n in range(n_points)]][:, None]
        cores = running_products(np.eye(rep.dim)[None], np.zeros(1), factors)[0][:, 0]
    else:
        lengths = tuple(len(g) for g in schedule)
        cores = [evaluate(rep, g).core for g in schedule]
    if not lengths:
        raise ValueError("schedule must contain at least one word")
    cores = np.asarray(cores)
    moved = stacked_apply_to_subspace(cores, seed)
    distances = stacked_grassmann_distance(moved, target.frame).tolist()
    final = distances[-1]
    return ConvergenceCurve(
        lengths=lengths,
        distances=tuple(distances),
        final=final,
        passed=final < tol and _eventually_decreasing(distances),
    )


def cartan_check(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    x: BoundaryPoint,
    words: Sequence[ReducedWord],
    b: int = 0,
    n_max: int = DEFAULT_N_MAX,
    certificate: Optional[DominationCertificate] = None,
) -> ConvergenceCurve:
    """Distance from the attracting plane of each verified positive word
    to the forward plane at x, walked at DEFAULT_TOL; passes when the last
    distance is below PASS_TOL.

    Every word must be a verified member of the positive set within
    shift b (word_in_positive_set); words without a witness are refused,
    never silently accepted.  The words are walked in lockstep as the
    prefixes of a limit plane are, each read at its own length: its plane
    off certify's wedge^k, and a NoGapError at the first word, in order,
    whose margin there is at most GAP_TOLERANCE.  The empty word has no
    plane, and raises NoGapError at once.
    """
    if not words:
        raise ValueError("cartan check needs at least one word")
    if b < 0:
        raise ValueError("shift b must be >= 0")
    certificate = _require_certified(rep, spec, k, certificate)
    for w in words:
        if w.max_index() > rep.rank:
            raise ValueError(f"word {w} exceeds rank {rep.rank}")
        if not word_in_positive_set(spec, w, b):
            raise MembershipError(
                f"'{w}' has no witness in the positive set within shift {b}"
            )
        if w.is_empty():
            raise NoGapError(f"the empty word has no singular gap of index {k}")
    target = xi_upper(rep, spec, k, x, DEFAULT_TOL, n_max, certificate).subspace
    lengths = np.array([len(w) for w in words])
    frames = np.empty((len(words), rep.dim, k))
    live = np.zeros(len(words), dtype=bool)
    # each word w walks as the point w.(its last letter)^inf, whose prefix
    # of length |w| is w, and stops walking once read there
    waiting = np.ones(len(words), dtype=bool)
    points = [BoundaryPoint(w, w[-1:]) for w in words]
    for chunk in _Walk(rep, k, points).read(int(lengths.max()), waiting):
        at = lengths[chunk.rows] - chunk.start - 1
        (here,) = np.nonzero(at < len(chunk.live))
        rows = chunk.rows[here]
        frames[rows] = chunk.frames[at[here], here]
        live[rows] = chunk.live[at[here], here]
        waiting[rows] = False
    if not live.all():
        gapless = words[int(np.argmin(live))]
        raise NoGapError(f"'{gapless}' has no singular gap of index {k}")
    distances = stacked_grassmann_distance(frames, target.frame).tolist()
    final = distances[-1]
    return ConvergenceCurve(
        lengths=tuple(lengths.tolist()),
        distances=tuple(distances),
        final=final,
        passed=final < PASS_TOL,
    )


# ---------------------------------------------------------------------------
# regularity


class HolderFit(
    namedtuple("HolderFit", "alpha_hat log_c_hat r_squared pairs_used cutoff")
):
    """Power-law fit of plane distance against boundary distance."""

    __slots__ = ()

    alpha_hat: float
    log_c_hat: float
    r_squared: float
    pairs_used: int
    cutoff: float


def _small_scale_pairs(points, kappa, cutoff, sample_size, seed) -> Iterator:
    """The pairs (i, j) of ids into points that holder_estimate samples: of
    at most 50 * sample_size two-id draws, those with i != j at visual
    distance <= cutoff, each at its first unordered occurrence, in order.
    A block of m pairs is 2m integer draws of the seed's Stream."""
    stream = Stream(seed)
    # exp(-kappa g) falls as the shared prefix g grows: it passes from g =
    # SMALL_SCALE_PREFIX on, and below where math.exp says (0 past 745)
    short = [math.exp(-kappa * g) <= cutoff for g in range(SMALL_SCALE_PREFIX)]
    passes = np.array(short + [True])
    # each point's first m letters, read off its preperiod and period
    m = SMALL_SCALE_PREFIX
    heads = np.array([(x.preperiod.letters + x.period.letters * m)[:m] for x in points])
    seen = set()
    left = 50 * sample_size if len(points) >= 2 else 0
    while left > 0:
        draws = stream.integers(len(points), 2 * min(sample_size, left)).reshape(-1, 2)
        left -= len(draws)
        shared = np.cumprod(heads[draws[:, 0]] == heads[draws[:, 1]], axis=1).sum(1)
        for i, j in draws[(draws[:, 0] != draws[:, 1]) & passes[shared]].tolist():
            if (min(i, j), max(i, j)) not in seen:
                seen.add((min(i, j), max(i, j)))
                yield i, j


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
) -> HolderFit:
    """Estimate the regularity exponent of the forward limit map.

    Samples distinct endpoint pairs from the b-shifted forward boundary
    sample, keeps those at small scale (shared prefix of at least
    SMALL_SCALE_PREFIX, i.e. visual distance <= exp(-kappa * 2)) whose
    plane distance is numerically nonzero, and fits
    log(plane distance) = alpha * log(visual distance) + log C.
    Deterministic for a fixed seed.  A scored pair whose visual distance
    underflows to 0 raises NumericalError.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    certificate = _require_certified(rep, spec, k, certificate)
    points = sorted(q_plus_boundary(spec, max_period, b), key=str)
    cutoff = math.exp(-kappa * SMALL_SCALE_PREFIX)
    pairs = _small_scale_pairs(points, kappa, cutoff, sample_size, seed)
    # per point id walked: its frame at its stop, or its error
    frames = np.empty((len(points), rep.dim, k))
    failures: dict[int, Optional[GapcertError]] = {}
    log_visual, log_plane = [], []
    # Each round takes just enough pairs to cover the shortfall if all of
    # them score, walks their new points together (forward endpoints of
    # spec, so none is membership-checked), scores its pairs up to the
    # first that reads a failed point with the pairwise loop's bits, then
    # raises that point's error.
    while len(log_visual) < sample_size:
        batch = list(islice(pairs, sample_size - len(log_visual)))
        if not batch:
            break
        new = [p for p in dict.fromkeys(np.ravel(batch).tolist()) if p not in failures]
        if new:
            walked = [points[p] for p in new]
            walk, rate = _Walk(rep, k, walked), certificate.lambda_hat
            stops = _limit_stops(rep, k, walked, rate, tol, n_max, walk)
            for p, stop in zip(new, stops):
                failures[p] = stop if isinstance(stop, GapcertError) else None
                if failures[p] is None:
                    frames[p] = stop[0].frames[stop[1:3]]
        read = [any(map(failures.get, pair)) for pair in batch] + [True]
        read = read.index(True)
        pair_frames = frames[np.array(batch)[:read]]
        separations = stacked_grassmann_distance(pair_frames[:, 0], pair_frames[:, 1])
        for (i, j), separation in zip(batch, separations.tolist()):
            if separation > 1e-14:
                visual = visual_distance(points[i], points[j], kappa)
                if visual == 0.0:
                    shared = points[i].prefix(int(gromov_product(points[i], points[j])))
                    raise NumericalError(
                        f"visual distance underflows to 0 at kappa = {kappa!r} "
                        f"for a pair sharing the prefix {shared}"
                    )
                log_visual.append(math.log(visual))
                log_plane.append(math.log(separation))
        if read < len(batch):
            raise next(filter(None, map(failures.get, batch[read])))
    if len(log_visual) < 10:
        raise InsufficientSampleError(
            f"only {len(log_visual)} usable small-scale pairs (need 10)"
        )
    xs, ys = np.array(log_visual), np.array(log_plane)
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


class DiscontinuityProbe(
    namedtuple("DiscontinuityProbe", "exponents visual separations separated")
):
    """Rows m -> (visual distance to the base point, plane separation)."""

    __slots__ = ()

    exponents: tuple[int, ...]
    visual: tuple[float, ...]
    separations: tuple[float, ...]
    separated: bool


def discontinuity_probe(
    rep: Representation,
    exponents: Iterable[int] = range(1, 11),
    n_max: int = DEFAULT_N_MAX,
) -> DiscontinuityProbe:
    """Probe the forward limit map across the first-axis family.

    Evaluates the forward plane at the base periodic point of the first
    generator and at its detoured approximants (first-generator power,
    one second-generator letter, then the periodic tail).  The approach
    distance shrinks while the plane separation need not: `separated`
    reports whether the separation stays large as the approach collapses.
    Planes are walked at DEFAULT_TOL, distances taken at kappa = 1, and the
    certificate made at DEFAULT_CERT_BUDGET.
    """
    if rep.rank < 2:
        raise ValueError("the probe needs at least two generators")
    exponents = tuple(exponents)
    if not exponents or any(m < 1 for m in exponents):
        raise ValueError("exponents must be positive")
    a_word = ReducedWord((0,))
    spec = AxisFamily(rep.rank, (a_word,))
    certificate = _require_certified(rep, spec, 1, None)
    base_point = periodic_point(a_word)
    approximants = [
        BoundaryPoint(ReducedWord((0,) * m + (2,)), a_word) for m in exponents
    ]
    # each plane read through the walk table (the points lie in the axis
    # family by construction); the first failed point, in order, raises
    base, *others = (
        _plane(rep, 1, p, certificate.lambda_hat, DEFAULT_TOL, n_max).subspace
        for p in [base_point, *approximants]
    )
    visual = [visual_distance(p, base_point) for p in approximants]
    separations = [grassmann_distance(base, other) for other in others]
    separated = visual[-1] <= math.exp(-2.0) and min(separations) >= 0.5
    return DiscontinuityProbe(
        exponents=exponents,
        visual=tuple(visual),
        separations=tuple(separations),
        separated=separated,
    )
