"""Discrete-time flow side: shift space, bundle cocycle, splittings.

A shift point is a marked bi-infinite geodesic whose endpoint pair belongs
to the declared subset; the quotient by the group action is realized by
always reading words from the marked origin, so the time-n bundle map over
a point is the inverse image of its forward word - exactly, with no
distortion constants.  On top of the cocycle this module measures
Anosov-style singular gap margins at the complementary index, extracts the
stable/unstable splitting as limits of singular subspaces, checks the
splitting for invariance / domination / endpoint consistency against the
boundary limit maps, runs the block graph transform with its contraction
hypotheses to rebuild invariant sections over periodic orbits, and probes
stability of the certificate under random generator perturbations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domination import CERTIFIED, DominationCertificate, _fit_slope, certify
from .errors import (
    HypothesesFailError,
    MembershipError,
    NoConvergenceError,
    NotCertifiedError,
    SingularBlockError,
)
from .limits import (
    BOUND_SLACK,
    DEFAULT_CERT_BUDGET,
    DEFAULT_TOL,
    _require_certified,
    _walk_in_chunks,
    pair_in_subset,
    read_splitting_walk,
    xi_lower,
    xi_upper,
)
from .linalg import (
    Representation,
    ScaledMatrix,
    Subspace,
    apply_to_subspace,
    evaluate,
    grassmann_distance,
    running_products,
    stacked_gap_margins,
    stacked_grassmann_distance,
    stacked_singular_frames,
    transversality_gap,
)
from .subsets import SubsetPSpec, letter_code
from .words import (
    EMPTY_WORD,
    BiInfiniteGeodesic,
    BoundaryPoint,
    Letter,
    ReducedWord,
    concat,
    geodesic_through,
    invert,
    translate,
)

DEFAULT_FLOW_STEPS = 80
# Norm ceiling of the three graph-transform hypotheses.
HYPOTHESES_LIMIT = 1.0 / 3.0
# Contraction factor of the graph transform once the hypotheses hold.
CONTRACTION_FACTOR = 5.0 / 6.0


# ---------------------------------------------------------------------------
# shift space


@dataclass(frozen=True)
class ShiftPoint:
    """A marked geodesic line whose endpoint pair belongs to the subset.

    The marked origin is the line's vertex(0); shifting moves the marker
    one step toward the forward endpoint.  All cocycle evaluations re-base
    words at the marker, which realizes the group quotient exactly.
    """

    spec: SubsetPSpec
    line: BiInfiniteGeodesic

    def forward_word(self, n: int) -> ReducedWord:
        """The word labelling the path from the marker to the n-th forward
        vertex."""
        if n < 0:
            raise ValueError(f"forward length must be >= 0, got {n}")
        return concat(invert(self.line.vertex(0)), self.line.vertex(n))


def shift_point(
    spec: SubsetPSpec,
    forward: BoundaryPoint,
    backward: BoundaryPoint,
    origin: ReducedWord = EMPTY_WORD,
) -> ShiftPoint:
    """Build a shift point after verifying the endpoint pair membership."""
    if not pair_in_subset(spec, forward, backward):
        raise MembershipError(
            f"({forward}, {backward}) is not an endpoint pair of the subset"
        )
    return ShiftPoint(spec, geodesic_through(forward, backward, origin))


def shift(x: ShiftPoint, n: int = 1) -> ShiftPoint:
    """Move the marked origin n steps toward the forward endpoint."""
    return ShiftPoint(x.spec, x.line.reparametrize(n))


# ---------------------------------------------------------------------------
# cocycle


def cocycle(rep: Representation, x: ShiftPoint, n: int) -> ScaledMatrix:
    """Time-n bundle map over x: inverse image of the forward word.

    Satisfies the cocycle law: the time-(n+m) map equals the time-m map
    over the n-shifted point composed with the time-n map.
    """
    return evaluate(rep, invert(x.forward_word(n)))


def _step_factors(
    rep: Representation, line: BiInfiniteGeodesic, start: int, count: int
) -> np.ndarray:
    """The (count, 2, d, d) factors that take the running maps from length
    start to start + count: the time-n map over x is the inverse image of
    the n-th step letter times the time-(n-1) map, a factor on the left;
    the time-n map arriving at x from shift(x, -n) extends on the right by
    the inverse image of the letter n steps back, as cocycle() builds it."""
    codes = [
        (letter_code(line.step_letter(n)), letter_code(line.step_letter(-n - 1)))
        for n in range(start, start + count)
    ]
    return rep.stacked_images[np.array(codes, dtype=np.intp).reshape(count, 2) ^ 1]


def _cocycle_stack(rep: Representation, x: ShiftPoint, count: int):
    """Cores and log scales of cocycle(rep, x, n) for n = 1, ..., count as
    one running product, whose rounding differs from cocycle()'s."""
    factors = _step_factors(rep, x.line, 0, count)[:, :1]
    cores, logscales = running_products(np.eye(rep.dim)[None], np.zeros(1), factors, 1)
    return cores[:, 0], logscales[:, 0]


@dataclass(frozen=True, eq=False)
class FlowMarginCurve:
    """Per-point singular gap margins of the time-n maps, with a line fit
    over the second half of the lengths."""

    point: ShiftPoint
    lengths: tuple[int, ...]
    margins: tuple[float, ...]
    slope: float
    slope_stderr: float


def anosov_margins(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    n_steps: int,
    points: Sequence[ShiftPoint],
) -> list[FlowMarginCurve]:
    """Margin curves n -> gap of the time-n map at the complementary index.

    The gap sits at index d-k because the cocycle inverts words: the
    k-th/(k+1)-th ratio of a word matrix is the (d-k)-th/(d-k+1)-th ratio
    of its inverse.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 steps to fit a slope, got {n_steps}")
    index = rep.dim - k
    curves = []
    for x in points:
        if not pair_in_subset(spec, x.line.forward, x.line.backward):
            raise MembershipError(
                f"({x.line.forward}, {x.line.backward}) is not an endpoint "
                "pair of the subset"
            )
        margins = stacked_gap_margins(*_cocycle_stack(rep, x, n_steps), index).tolist()
        window_lo = max(1, math.ceil(n_steps / 2))
        slope, _, stderr = _fit_slope(
            [(n, margins[n - 1]) for n in range(window_lo, n_steps + 1)]
        )
        curves.append(
            FlowMarginCurve(
                point=x,
                lengths=tuple(range(1, n_steps + 1)),
                margins=tuple(margins),
                slope=slope,
                slope_stderr=stderr,
            )
        )
    return curves


# ---------------------------------------------------------------------------
# splitting extraction


@dataclass(frozen=True, eq=False)
class SplittingSample:
    """Stable/unstable pair over one shift point with its diagnostics.

    margin_lengths/margin_values is the domination margin curve of the
    time-n maps; invariance residuals compare the one-step image of each
    summand with the splitting computed at the shifted point.
    """

    point: ShiftPoint
    stable: Subspace
    unstable: Subspace
    transversality: float
    invariance_stable: float
    invariance_unstable: float
    margin_lengths: tuple[int, ...]
    margin_values: tuple[float, ...]
    iterations: int
    last_step_stable: float
    last_step_unstable: float
    skipped_lengths: tuple[int, ...] = ()


def _raw_splitting(
    rep: Representation,
    x: ShiftPoint,
    k: int,
    n_steps: int,
    tols: Sequence[float],
    rate: float,
) -> list[tuple[Subspace, Subspace, dict] | NoConvergenceError]:
    """Iterate the singular subspaces of the time-n maps until both limits
    settle under the margin-seeded tail bound, for every tolerance in one
    pass, a chunk of lengths at a time.

    A chunk takes one SVD with vectors (frames and gaps), one values-only
    SVD (margins) and one stacked Grassmann distance per summand (steps),
    with the bits of the one-length loop, and is scanned length by length
    with its stopping rule.  Returns one outcome per tolerance, in the
    order of tols, from the first length where its own rule holds: the
    (stable, unstable, diagnostics) triple, or the NoConvergenceError a
    walk at that tolerance alone ends in.
    """
    dim, index = rep.dim, rep.dim - k
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    outcomes: list = [None] * len(tols)
    pending = list(range(len(tols)))
    margins: list[tuple[int, float]] = []
    skipped: list[int] = []
    # the forward and backward maps; at the last length with a gap, the
    # right singular matrix of one and the left one of the other, and steps
    cores, logscales = np.repeat(np.eye(dim)[None], 2, axis=0), np.zeros(2)
    bases: list[np.ndarray] = []
    step_s = step_u = math.inf

    def advance(start: int, count: int) -> bool:
        nonlocal pending, cores, logscales, bases, step_s, step_u
        factors = _step_factors(rep, x.line, start, count)
        chunk, scales = running_products(cores, logscales, factors, on_left=1)
        flat = chunk.reshape(-1, dim, dim)
        left, right_t, gapless = stacked_singular_frames(flat, index)
        gapless = gapless.reshape(count, 2).any(axis=1).tolist()
        chunk_margins = stacked_gap_margins(flat, scales.reshape(-1), index).tolist()
        live = [t for t in range(count) if not gapless[t]]
        frames = [right_t[0::2][live], left[1::2][live]]
        if bases:
            frames = [np.concatenate([f[None], g]) for f, g in zip(bases, frames)]
        # stable frames are views of whole right singular matrices, so they
        # have the strides, and the steps the bits, of s_dk's frames
        stable = np.swapaxes(frames[0][:, index:], -1, -2)
        unstable = frames[1][..., :index]
        steps = [[math.inf] * (len(live) - len(stable) + 1)] * 2
        if len(stable) > 1:
            steps = [
                first + stacked_grassmann_distance(f[:-1], f[1:]).tolist()
                for first, f in zip(steps, (stable, unstable))
            ]
        # nothing below fails numerically: scan the chunk
        skipped.extend(start + t + 1 for t in range(count) if gapless[t])
        for row, t in enumerate(live):
            n = start + t + 1
            margin_s, margin_u = chunk_margins[2 * t], chunk_margins[2 * t + 1]
            margins.append((n, margin_s))
            step_s, step_u = steps[0][row], steps[1][row]
            bound_s = worst_pair * math.exp(-margin_s) * tail_factor
            bound_u = worst_pair * math.exp(-margin_u) * tail_factor
            for j in pending:
                tol = tols[j]
                if (
                    step_s <= tol
                    and step_u <= tol
                    and max(bound_s, bound_u) <= BOUND_SLACK * tol
                ):
                    outcomes[j] = (
                        Subspace(dim - index, right_t[2 * t][index:].T),
                        Subspace(index, left[2 * t + 1][:, :index]),
                        {
                            "iterations": n,
                            "step_s": step_s,
                            "step_u": step_u,
                            "margins": list(margins),
                            "skipped": [m for m in skipped if m < n],
                        },
                    )
            pending = [j for j in pending if outcomes[j] is None]
            if not pending:
                return False
        if live:
            bases = [frames[0][-1], frames[1][-1]]
        cores, logscales = chunk[-1], scales[-1]
        return True

    _walk_in_chunks(n_steps, advance, lambda: 2)
    for j in pending:
        outcomes[j] = NoConvergenceError(
            f"splitting did not settle within {n_steps} steps: last steps "
            f"{step_s:.3e}/{step_u:.3e} against tolerance {tols[j]:.1e}, "
            f"{len(skipped)} gapless lengths skipped"
        )
    return outcomes


def _splitting(
    rep: Representation,
    x: ShiftPoint,
    k: int,
    n_steps: int,
    tol: float,
    rate: float,
    shared: bool = True,
) -> tuple[Subspace, Subspace, dict]:
    """The splitting over x at one tolerance, read from the open walk table
    when there is one and shared is set; raises the walk's
    NoConvergenceError."""

    def walk(tols: Sequence[float]) -> list:
        return _raw_splitting(rep, x, k, n_steps, tols, rate)

    if shared:
        outcome = read_splitting_walk(rep, x.line, k, rate, n_steps, tol, walk)
    else:
        (outcome,) = walk((tol,))
    if isinstance(outcome, NoConvergenceError):
        raise outcome.with_traceback(None)
    return outcome


def bg_splitting(
    rep: Representation,
    x: ShiftPoint,
    k: int,
    n_steps: int = DEFAULT_FLOW_STEPS,
    tol: float = DEFAULT_TOL,
    certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> SplittingSample:
    """Stable/unstable splitting over x from singular-subspace limits.

    stable is the limit of the most-contracted k right-singular directions
    of the time-n maps over x; unstable is the limit of the top (d-k)
    left-singular directions of the time-n maps arriving at x from the
    n-fold backward shift.  Residuals against the splitting at the shifted
    point are measured before returning.
    """
    certificate = _require_certified(rep, x.spec, k, certificate, cert_budget)
    rate = certificate.lambda_hat
    # nothing else reads the splitting over x itself, so it is not tabled
    stable, unstable, diag = _splitting(rep, x, k, n_steps, tol, rate, shared=False)
    stable_next, unstable_next, _ = _splitting(rep, shift(x), k, n_steps, tol, rate)
    one_step = cocycle(rep, x, 1).core
    return SplittingSample(
        point=x,
        stable=stable,
        unstable=unstable,
        transversality=transversality_gap(stable, unstable),
        invariance_stable=grassmann_distance(
            apply_to_subspace(one_step, stable), stable_next
        ),
        invariance_unstable=grassmann_distance(
            apply_to_subspace(one_step, unstable), unstable_next
        ),
        margin_lengths=tuple(n for n, _ in diag["margins"]),
        margin_values=tuple(m for _, m in diag["margins"]),
        iterations=diag["iterations"],
        last_step_stable=diag["step_s"],
        last_step_unstable=diag["step_u"],
        skipped_lengths=tuple(diag["skipped"]),
    )


@dataclass(frozen=True, eq=False)
class SplittingReport:
    """Residuals of the three splitting checks for one sample."""

    invariance_stable: float
    invariance_unstable: float
    transversality: float
    ratio_lengths: tuple[int, ...]
    ratio_values: tuple[float, ...]
    ratio_slope: float
    stable_endpoint_residual: float
    unstable_endpoint_residual: float
    passed: bool


def splitting_checks(
    rep: Representation,
    sample: SplittingSample,
    tol: float = 1e-6,
    certificate: Optional[DominationCertificate] = None,
    dual_certificate: Optional[DominationCertificate] = None,
    cert_budget: int = DEFAULT_CERT_BUDGET,
) -> SplittingReport:
    """Invariance, domination decay, and endpoint consistency of a sample.

    Every residual is recomputed from the sample's subspaces rather than
    echoed from its stored diagnostics, so a corrupted sample is caught:
    invariance pushes the summands one step and compares them against the
    splitting extracted at the shifted point.  Domination is the
    log of the worst stable stretch over the least unstable stretch of the
    time-n maps; its fitted slope must be negative.  Endpoint consistency
    compares the summands with the boundary limit maps at the line's
    endpoints re-based at the marker.
    """
    x = sample.point
    k = sample.stable.dimension
    certificate = _require_certified(rep, x.spec, k, certificate, cert_budget)
    stable_next, unstable_next, _ = _splitting(
        rep, shift(x), k, DEFAULT_FLOW_STEPS, DEFAULT_TOL, certificate.lambda_hat
    )
    one_step = cocycle(rep, x, 1).core
    invariance_stable = grassmann_distance(
        apply_to_subspace(one_step, sample.stable), stable_next
    )
    invariance_unstable = grassmann_distance(
        apply_to_subspace(one_step, sample.unstable), unstable_next
    )
    ratio_lengths = list(sample.margin_lengths)
    ratio_values = []
    if ratio_lengths:
        cores = _cocycle_stack(rep, x, max(ratio_lengths))[0][
            np.array(ratio_lengths) - 1
        ]
        stretched = np.linalg.svd(cores @ sample.stable.frame, compute_uv=False)
        kept = np.linalg.svd(cores @ sample.unstable.frame, compute_uv=False)
        ratio_values = (np.log(stretched[:, 0]) - np.log(kept[:, -1])).tolist()
    ratio_slope, _, _ = _fit_slope(list(zip(ratio_lengths, ratio_values)))

    marker = x.line.vertex(0)
    fwd = translate(invert(marker), x.line.forward)
    bwd = translate(invert(marker), x.line.backward)
    stable_residual = grassmann_distance(
        sample.stable,
        xi_upper(
            rep, x.spec, k, fwd, certificate=certificate, cert_budget=cert_budget
        ).subspace,
    )
    unstable_residual = grassmann_distance(
        sample.unstable,
        xi_lower(
            rep,
            x.spec,
            k,
            bwd,
            certificate=dual_certificate,
            cert_budget=cert_budget,
        ).subspace,
    )
    transversality = transversality_gap(sample.stable, sample.unstable)
    passed = (
        invariance_stable < tol
        and invariance_unstable < tol
        and transversality > 0.0
        and ratio_slope < 0.0
        and stable_residual < tol
        and unstable_residual < tol
    )
    return SplittingReport(
        invariance_stable=invariance_stable,
        invariance_unstable=invariance_unstable,
        transversality=transversality,
        ratio_lengths=tuple(ratio_lengths),
        ratio_values=tuple(ratio_values),
        ratio_slope=ratio_slope,
        stable_endpoint_residual=stable_residual,
        unstable_endpoint_residual=unstable_residual,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# graph transform


@dataclass(frozen=True, eq=False)
class BlockMap:
    """A linear map split into blocks against a stable/unstable frame:
    a11 maps stable to stable, a22 unstable to unstable, a12/a21 the
    shears between them."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    @staticmethod
    def from_matrix(m: np.ndarray, k: int) -> "BlockMap":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"block split needs a square matrix, got {m.shape}")
        if not 1 <= k < m.shape[0]:
            raise ValueError(f"split index must satisfy 1 <= k < {m.shape[0]}")
        return BlockMap(m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:])

    def matrix(self) -> np.ndarray:
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])

    @property
    def k(self) -> int:
        return self.a11.shape[0]

    @property
    def complement(self) -> int:
        return self.a22.shape[0]


def transform_hypotheses(blocks: BlockMap) -> dict[str, float]:
    """The three hypothesis norms of the graph transform; each must stay
    at or below 1/3 for the 5/6 contraction.  Singular diagonal blocks
    report an infinite norm."""
    norms: dict[str, float] = {}
    try:
        inv22 = np.linalg.inv(blocks.a22)
        norms["contraction"] = float(
            np.linalg.norm(blocks.a11, 2) * np.linalg.norm(inv22, 2)
        )
        norms["lower_shear"] = float(np.linalg.norm(inv22 @ blocks.a21, 2))
    except np.linalg.LinAlgError:
        norms["contraction"] = math.inf
        norms["lower_shear"] = math.inf
    try:
        norms["upper_shear"] = float(
            np.linalg.norm(np.linalg.solve(blocks.a11, blocks.a12), 2)
        )
    except np.linalg.LinAlgError:
        norms["upper_shear"] = math.inf
    return norms


def check_hypotheses(blocks: BlockMap) -> dict[str, float]:
    """Verify the 1/3 norm hypotheses, returning the measured norms."""
    norms = transform_hypotheses(blocks)
    violations = {
        name: value
        for name, value in norms.items()
        if not value <= HYPOTHESES_LIMIT + 1e-12
    }
    if violations:
        raise HypothesesFailError(
            "graph-transform hypotheses violated: "
            + ", ".join(f"{n} = {v:.4f} > 1/3" for n, v in violations.items()),
            norms=norms,
        )
    return norms


def graph_transform(blocks: BlockMap, f: np.ndarray) -> np.ndarray:
    """Push the graph of f (a map from the unstable to the stable summand)
    through the block map: the image of the graph is again a graph, of the
    returned matrix."""
    f = np.asarray(f, dtype=float)
    if f.shape != (blocks.k, blocks.complement):
        raise ValueError(
            f"section must be {blocks.k} x {blocks.complement}, got {f.shape}"
        )
    numerator = blocks.a11 @ f + blocks.a12
    denominator = blocks.a21 @ f + blocks.a22
    try:
        return np.linalg.solve(denominator.T, numerator.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(
            "graph transform denominator block is singular"
        ) from exc


def graph_subspace(f: np.ndarray) -> Subspace:
    """The graph of a section as a subspace: spanned by (f(v), v)."""
    f = np.asarray(f, dtype=float)
    return Subspace.from_spanning(np.vstack([f, np.eye(f.shape[1])]))


@dataclass(frozen=True, eq=False)
class InvariantSection:
    """Fixed sections of the cyclic graph transform over a periodic orbit."""

    sections: tuple[np.ndarray, ...]
    residual: float
    sweeps: int


def invariant_section(
    blocks_seq: Sequence[BlockMap],
    tol: float = 1e-10,
    max_sweeps: int = 2000,
) -> InvariantSection:
    """Iterate the orbit-composed graph transform from zero sections to a
    fixed point.

    blocks_seq[i] maps the fiber over orbit point i to the fiber over
    point i+1 (cyclically).  The hypotheses are verified at every orbit
    point first; the returned residual is the worst Grassmannian distance
    between the pushed graph of section i and the graph of section i+1.
    """
    if not blocks_seq:
        raise ValueError("need at least one block map")
    for position, blocks in enumerate(blocks_seq):
        try:
            check_hypotheses(blocks)
        except HypothesesFailError as exc:
            raise HypothesesFailError(
                f"orbit point {position}: {exc}", norms=exc.norms
            ) from exc
    p = len(blocks_seq)
    sections = [
        np.zeros((blocks.k, blocks.complement)) for blocks in blocks_seq
    ]
    for sweep in range(1, max_sweeps + 1):
        pushed = [graph_transform(blocks_seq[i], sections[i]) for i in range(p)]
        updated = [pushed[(i - 1) % p] for i in range(p)]
        change = max(
            float(np.linalg.norm(updated[i] - sections[i], 2)) for i in range(p)
        )
        sections = updated
        if change <= tol / 10.0:
            residual = max(
                grassmann_distance(
                    apply_to_subspace(
                        blocks_seq[i].matrix(), graph_subspace(sections[i])
                    ),
                    graph_subspace(sections[(i + 1) % p]),
                )
                for i in range(p)
            )
            if residual < tol:
                return InvariantSection(
                    sections=tuple(sections), residual=residual, sweeps=sweep
                )
    raise NoConvergenceError(
        f"graph transform did not reach a fixed section in {max_sweeps} "
        f"sweeps at tolerance {tol:.1e}"
    )


def orbit_block_maps(
    rep: Representation, samples: Sequence[SplittingSample]
) -> tuple[BlockMap, ...]:
    """Block maps of the one-step cocycle along a periodic orbit, written
    in the stable/unstable frames of the given samples.

    samples[i] must sit over the i-fold shift of samples[0]'s point, with
    the orbit closing up after the last one.  The representation may be a
    perturbation of the one that produced the samples: that is how the
    graph transform measures how far a perturbed cocycle pushes the
    reference splitting.
    """
    frames = [
        np.hstack([s.stable.frame, s.unstable.frame]) for s in samples
    ]
    maps = []
    for i, sample in enumerate(samples):
        step = cocycle(rep, sample.point, 1).matrix()
        target = frames[(i + 1) % len(samples)]
        maps.append(
            BlockMap.from_matrix(
                np.linalg.solve(target, step @ frames[i]),
                sample.stable.dimension,
            )
        )
    return tuple(maps)


# ---------------------------------------------------------------------------
# stability probe


@dataclass(frozen=True, eq=False)
class StabilityTable:
    """Re-certification verdicts under entrywise generator perturbations."""

    epsilon: float
    trials: int
    budget: int
    seed: int
    verdicts: tuple[str, ...]
    counts: dict[str, int]
    worst_lambda_hat: float
    worst_margins: dict[int, float]


def stability_probe(
    rep: Representation,
    spec: SubsetPSpec,
    k: int,
    epsilon: float,
    trials: int,
    budget: int,
    seed: int = 0,
) -> StabilityTable:
    """Perturb every generator image entrywise by independent uniforms in
    [-epsilon, epsilon] and re-run certification, per independently seeded
    trial.  The base representation must already be Certified."""
    if epsilon < 0:
        raise ValueError(f"perturbation size must be >= 0, got {epsilon}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    base = certify(rep, spec, k, budget)
    if base.verdict != CERTIFIED:
        raise NotCertifiedError(
            f"stability probe needs a Certified base, got {base.verdict}"
        )
    verdicts = []
    worst: Optional[DominationCertificate] = None
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        perturbed = Representation.of(
            [
                rep.image(Letter(i, 1))
                + rng.uniform(-epsilon, epsilon, (rep.dim, rep.dim))
                for i in range(1, rep.rank + 1)
            ]
        )
        cert = certify(perturbed, spec, k, budget)
        verdicts.append(cert.verdict)
        if worst is None or cert.lambda_hat < worst.lambda_hat:
            worst = cert
    return StabilityTable(
        epsilon=epsilon,
        trials=trials,
        budget=budget,
        seed=seed,
        verdicts=tuple(verdicts),
        counts=dict(Counter(verdicts)),
        worst_lambda_hat=worst.lambda_hat,
        worst_margins=dict(worst.margins),
    )
