"""Discrete-time flow side: shift space, bundle cocycle, splittings.

A shift point is a line of the declared subset seen from its marker: the
line's two ends translated so that the marker is the identity.  So the
group's translates of a marked line are one point, and the time-n bundle
map over it is the inverse image of its forward end's length-n prefix -
exactly, with no distortion constants.  On top of the cocycle this module
measures Anosov-style singular gap margins at the complementary index,
reads the stable/unstable splitting over a point as the limit planes at
its two ends (two reads of the limit-plane walks), checks the splitting for
invariance / domination / endpoint consistency, runs the block graph
transform with its contraction hypotheses to rebuild invariant sections
over periodic orbits, and probes stability of the certificate under random
generator perturbations.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .domination import (
    CERTIFIED,
    CertifyOptions,
    DominationCertificate,
    _fit_slope,
    _group_size,
    _level_margins,
    _require_same_rank,
    certify_each,
)
from .errors import (
    HypothesesFailError,
    NoConvergenceError,
    NoGapError,
    NotCertifiedError,
    OriginOffGeodesicError,
    SingularBlockError,
)
from .limits import (
    DEFAULT_N_MAX,
    DEFAULT_TOL,
    _plane,
    _require_certified,
    xi_lower,
    xi_upper,
)
from .linalg import (
    Representation,
    ScaledMatrix,
    Subspace,
    apply_to_subspace,
    grassmann_distance,
    running_products,
    transversality_gap,
)
from .pcg64 import Stream
from .subsets import SubsetPSpec, _require_pair, gamma_p_plus
from .words import BoundaryPoint, gromov_product, translate

DEFAULT_FLOW_STEPS = 80
# Norm ceiling of the three graph-transform hypotheses.
HYPOTHESES_LIMIT = 1.0 / 3.0
# Ceiling of every residual the splitting checks pass.
SPLITTING_TOL = 1e-6
# Residual an invariant section must reach, within this many sweeps.
SECTION_TOL = 1e-10
MAX_SWEEPS = 2000


# ---------------------------------------------------------------------------
# shift space


class ShiftPoint(namedtuple("ShiftPoint", "spec forward backward")):
    """A marked line of the subset as its two ends seen from the marker:
    translated so that the marker is the identity, which lies on the line
    between them.  Letter n of forward labels the line's n-th step past
    the marker, and the translates of one marked line compare equal."""

    __slots__ = ()

    spec: SubsetPSpec
    forward: BoundaryPoint
    backward: BoundaryPoint


def shift_point(
    spec: SubsetPSpec, forward: BoundaryPoint, backward: BoundaryPoint
) -> ShiftPoint:
    """The line from backward to forward marked at the identity, after
    verifying the endpoint pair membership; raises OriginOffGeodesicError
    when the identity is not on it."""
    _require_pair(spec, forward, backward)
    if gromov_product(forward, backward) != 0:
        raise OriginOffGeodesicError("the identity is not on the geodesic")
    return ShiftPoint(spec, forward, backward)


def shift(x: ShiftPoint, n: int = 1) -> ShiftPoint:
    """Move the marker n steps toward the forward end (toward the backward
    end for n < 0): translate both ends by the inverse of the steps."""
    steps = x.forward.prefix(n) if n >= 0 else x.backward.prefix(-n)
    back = steps.inverse()
    return ShiftPoint(x.spec, translate(back, x.forward), translate(back, x.backward))


# ---------------------------------------------------------------------------
# cocycle


def cocycle(rep: Representation, x: ShiftPoint, n: int) -> ScaledMatrix:
    """Time-n bundle map over x: inverse image of the forward word (from
    the marker to the n-th forward vertex), row n of _cocycle_stack.

    Satisfies the cocycle law: the time-(n+m) map equals the time-m map
    over the n-shifted point composed with the time-n map.
    """
    if n < 0:
        raise ValueError(f"forward length must be >= 0, got {n}")
    if n == 0:
        return ScaledMatrix.identity(rep.dim)
    cores, logscales = _cocycle_stack(rep, x, n)
    return ScaledMatrix(cores[-1], float(logscales[-1]))


def _cocycle_stack(rep: Representation, x: ShiftPoint, count: int):
    """Cores and log scales of the time-n maps over x for n = 1, ..., count
    as one running product: the time-n map rho(forward word)^-1 is the
    transpose of rho(forward word)^-T, the running product of the dual
    images of x.forward's letters."""
    codes = np.array([x.forward.letter_at(n) for n in range(count)], dtype=np.intp)
    cores, logscales = running_products(
        np.eye(rep.dim)[None], np.zeros(1), rep.stacked_duals[codes][:, None]
    )
    return cores[:, 0].transpose(0, 2, 1), logscales[:, 0]


class FlowMarginCurve(
    namedtuple("FlowMarginCurve", "point lengths margins slope slope_stderr")
):
    """Per-point singular gap margins of the time-n maps, with a line fit
    over the second half of the lengths."""

    __slots__ = ()

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
    of its inverse.  So each curve is the index-k margin of the forward
    words, walked as certify walks a subset's levels.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 steps to fit a slope, got {n_steps}")
    _require_same_rank(rep, spec)
    window_lo = max(1, math.ceil(n_steps / 2))
    curves = []
    for x in points:
        _require_pair(spec, x.forward, x.backward)
        # level n is the forward word of length n + 1, its parent the word
        # of level n - 1 (the empty word for n = 0)
        levels = [([0], [x.forward.letter_at(n)]) for n in range(n_steps)]
        margins = [float(level[0, 0]) for level in _level_margins([rep], levels, k)]
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


class SplittingSample(
    namedtuple(
        "SplittingSample",
        "point stable unstable iterations n_steps last_step_stable "
        "last_step_unstable skipped_lengths",
        defaults=((),),
    )
):
    """Stable/unstable pair over one shift point as extracted: the stop at
    iterations (the later of the two summands' stops) of the n_steps it
    could take, each summand's last subspace step, and the lengths either
    summand skipped for want of a gap.  It carries no residuals:
    splitting_checks measures them."""

    __slots__ = ()

    point: ShiftPoint
    stable: Subspace
    unstable: Subspace
    iterations: int
    n_steps: int
    last_step_stable: float
    last_step_unstable: float
    skipped_lengths: tuple[int, ...]


def _splitting(
    rep: Representation,
    x: ShiftPoint,
    k: int,
    n_steps: int,
    tol: float,
    rate: float,
) -> SplittingSample:
    """The splitting over x as two limit-plane reads at tol within n_steps
    prefixes: the k-plane at the forward end and the (d-k)-plane at the
    backward end; raises NoConvergenceError when either does not settle."""
    try:
        stable = _plane(rep, k, x.forward, rate, tol, n_steps)
        unstable = _plane(rep, rep.dim - k, x.backward, rate, tol, n_steps)
    except (NoGapError, NoConvergenceError) as exc:
        raise NoConvergenceError(
            f"splitting did not settle within {n_steps} steps: {exc}"
        ) from exc
    return SplittingSample(
        point=x,
        stable=stable.subspace,
        unstable=unstable.subspace,
        iterations=max(stable.iterations, unstable.iterations),
        n_steps=n_steps,
        last_step_stable=stable.last_step,
        last_step_unstable=unstable.last_step,
        skipped_lengths=tuple(
            sorted({*stable.skipped_prefixes, *unstable.skipped_prefixes})
        ),
    )


def bg_splitting(
    rep: Representation,
    x: ShiftPoint,
    k: int,
    n_steps: int = DEFAULT_FLOW_STEPS,
    tol: float = DEFAULT_TOL,
    certificate: Optional[DominationCertificate] = None,
) -> SplittingSample:
    """Stable/unstable splitting over x: the limit planes at its ends.

    stable, the most-contracted k directions of the time-n maps over x, is
    the forward k-plane: those maps invert the forward end's prefixes, so
    it is read as their top block, which does not saturate as the maps'
    bottom block does.  unstable, the top (d-k) directions of the maps into
    x from its n-fold backward shift, is the backward (d-k)-plane.  Both
    are read at tol within n_steps prefixes at the certificate's rate, from
    the walks limit-map reads.  Only extracts: splitting_checks measures
    the residuals.
    """
    certificate = _require_certified(rep, x.spec, k, certificate)
    return _splitting(rep, x, k, n_steps, tol, certificate.lambda_hat)


class SplittingReport(
    namedtuple(
        "SplittingReport",
        "invariance_stable invariance_unstable transversality ratio_lengths "
        "ratio_values ratio_slope stable_endpoint_residual "
        "unstable_endpoint_residual passed",
    )
):
    """Residuals of the three splitting checks for one sample."""

    __slots__ = ()

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
    certificate: Optional[DominationCertificate] = None,
    n_max: int = DEFAULT_N_MAX,
) -> SplittingReport:
    """Invariance, domination decay, and endpoint consistency of a sample.

    Every residual is measured from the sample's subspaces, so a corrupted
    sample is caught: invariance pushes the summands one step and compares
    them against the splitting extracted at the shifted point within the
    sample's n_steps, at DEFAULT_TOL.  Domination is the log of the worst
    stable stretch over the least unstable stretch of the time-n maps, at
    every length up to the sample's stop that neither summand skipped; its
    fitted slope must be negative.  Endpoint consistency compares the
    summands with the boundary limit maps at the point's ends, read at
    DEFAULT_TOL up to n_max prefixes at the certificate's rate: the walks
    the sample was read from, so it measures how far the sample's own stop
    lies from the stop at DEFAULT_TOL.
    Every residual must be below SPLITTING_TOL.
    """
    x = sample.point
    k = sample.stable.dimension
    certificate = _require_certified(rep, x.spec, k, certificate)
    shifted = _splitting(
        rep, shift(x), k, sample.n_steps, DEFAULT_TOL, certificate.lambda_hat
    )
    cores = _cocycle_stack(rep, x, sample.iterations)[0]  # row 1: the one-step map
    invariance_stable = grassmann_distance(
        apply_to_subspace(cores[0], sample.stable), shifted.stable
    )
    invariance_unstable = grassmann_distance(
        apply_to_subspace(cores[0], sample.unstable), shifted.unstable
    )
    skipped = set(sample.skipped_lengths)
    ratio_lengths = [n for n in range(1, sample.iterations + 1) if n not in skipped]
    ratio_cores = cores[np.array(ratio_lengths) - 1]
    stretched = np.linalg.svd(ratio_cores @ sample.stable.frame, compute_uv=False)
    kept = np.linalg.svd(ratio_cores @ sample.unstable.frame, compute_uv=False)
    ratio_values = (np.log(stretched[:, 0]) - np.log(kept[:, -1])).tolist()
    ratio_slope, _, _ = _fit_slope(list(zip(ratio_lengths, ratio_values)))

    stable_residual = grassmann_distance(
        sample.stable,
        xi_upper(rep, x.spec, k, x.forward, n_max=n_max, certificate=certificate).subspace,
    )
    unstable_residual = grassmann_distance(
        sample.unstable,
        xi_lower(rep, x.spec, k, x.backward, n_max=n_max, certificate=certificate).subspace,
    )
    transversality = transversality_gap(sample.stable, sample.unstable)
    passed = (
        invariance_stable < SPLITTING_TOL
        and invariance_unstable < SPLITTING_TOL
        and transversality > 0.0
        and ratio_slope < 0.0
        and stable_residual < SPLITTING_TOL
        and unstable_residual < SPLITTING_TOL
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


class BlockMap(namedtuple("BlockMap", "a11 a12 a21 a22")):
    """A linear map split into blocks against a stable/unstable frame:
    a11 maps stable to stable, a22 unstable to unstable, a12/a21 the
    shears between them."""

    __slots__ = ()

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


class InvariantSection(namedtuple("InvariantSection", "sections residual sweeps")):
    """Fixed sections of the cyclic graph transform over a periodic orbit."""

    __slots__ = ()

    sections: tuple[np.ndarray, ...]
    residual: float
    sweeps: int


def invariant_section(blocks_seq: Sequence[BlockMap]) -> InvariantSection:
    """Iterate the orbit-composed graph transform from zero sections to a
    fixed point with residual below SECTION_TOL, within MAX_SWEEPS sweeps.

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
    for sweep in range(1, MAX_SWEEPS + 1):
        pushed = [graph_transform(blocks_seq[i], sections[i]) for i in range(p)]
        updated = [pushed[(i - 1) % p] for i in range(p)]
        change = max(
            float(np.linalg.norm(updated[i] - sections[i], 2)) for i in range(p)
        )
        sections = updated
        if change <= SECTION_TOL / 10.0:
            residual = max(
                grassmann_distance(
                    apply_to_subspace(
                        blocks_seq[i].matrix(), graph_subspace(sections[i])
                    ),
                    graph_subspace(sections[(i + 1) % p]),
                )
                for i in range(p)
            )
            if residual < SECTION_TOL:
                return InvariantSection(
                    sections=tuple(sections), residual=residual, sweeps=sweep
                )
    raise NoConvergenceError(
        f"graph transform did not reach a fixed section in {MAX_SWEEPS} "
        f"sweeps at tolerance {SECTION_TOL:.1e}"
    )


def orbit_block_maps(
    rep: Representation, samples: Sequence[SplittingSample]
) -> tuple[BlockMap, ...]:
    """Block maps of the one-step cocycle along a periodic orbit, written
    in the stable/unstable frames of the given samples.

    samples[i] must sit over the i-fold shift of samples[0]'s point, with
    the orbit closing up after the last one; raises ValueError otherwise.
    The representation may be a perturbation of the one that produced the
    samples: that is how the graph transform measures how far a perturbed
    cocycle pushes the reference splitting.
    """
    p = len(samples)
    for i, sample in enumerate(samples):
        if shift(sample.point) != samples[(i + 1) % p].point:
            raise ValueError(
                f"sample {(i + 1) % p} is not over the shift of sample {i}'s "
                "point: the samples do not form a periodic orbit"
            )
    frames = [
        np.hstack([s.stable.frame, s.unstable.frame]) for s in samples
    ]
    maps = []
    for i, sample in enumerate(samples):
        step = cocycle(rep, sample.point, 1).matrix()
        target = frames[(i + 1) % p]
        maps.append(
            BlockMap.from_matrix(
                np.linalg.solve(target, step @ frames[i]),
                sample.stable.dimension,
            )
        )
    return tuple(maps)


# ---------------------------------------------------------------------------
# stability probe


class StabilityTable(
    namedtuple(
        "StabilityTable",
        "epsilon trials budget seed verdicts counts worst_lambda_hat "
        "worst_margins",
    )
):
    """Re-certification verdicts under entrywise generator perturbations."""

    __slots__ = ()

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
    opts: CertifyOptions = CertifyOptions(),
) -> StabilityTable:
    """Perturb every generator image entrywise by independent uniforms in
    [-epsilon, epsilon] and re-run certification with opts, per
    independently seeded trial.  The subset is enumerated once, and the
    trials are drawn and certified group by group (domination.certify_each,
    one stacked walk of the levels a group), the base in the first group.
    The base must be Certified: the probe raises NotCertifiedError after
    the first group when it is not, and certifies the base alone when a
    trial of the first group fails to draw or certify, so NotCertifiedError
    comes ahead of the trial's error."""
    if epsilon < 0:
        raise ValueError(f"perturbation size must be >= 0, got {epsilon}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    sample = gamma_p_plus(spec, budget)
    group = _group_size(sample)
    drawn = (_perturbed(rep, epsilon, seed, trial) for trial in range(trials))
    try:
        base, *certs = certify_each([rep, *islice(drawn, group - 1)], sample, k, opts)
    except Exception:
        (base,) = certify_each([rep], sample, k, opts)
        if base.verdict == CERTIFIED:
            raise
    if base.verdict != CERTIFIED:
        raise NotCertifiedError(
            f"stability probe needs a Certified base, got {base.verdict}"
        )
    while len(certs) < trials:
        certs += certify_each(list(islice(drawn, group)), sample, k, opts)
    verdicts = tuple(cert.verdict for cert in certs)
    worst = min(certs, key=lambda cert: cert.lambda_hat)
    return StabilityTable(
        epsilon=epsilon,
        trials=trials,
        budget=budget,
        seed=seed,
        verdicts=verdicts,
        counts=dict(Counter(verdicts)),
        worst_lambda_hat=worst.lambda_hat,
        worst_margins=dict(worst.margins),
    )


def _perturbed(
    rep: Representation, epsilon: float, seed: int, trial: int
) -> Representation:
    """rep with every generator image moved entrywise by uniforms in
    [-epsilon, epsilon], drawn from the trial's own seed."""
    stream, shape = Stream((seed, trial)), (rep.dim, rep.dim)
    return Representation.of(
        [
            g + stream.uniform(-epsilon, epsilon, rep.dim**2).reshape(shape)
            for g in rep.stacked_images[0::2]
        ]
    )
