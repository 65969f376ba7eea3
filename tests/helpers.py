"""Independent oracles and hypothesis strategies shared by the test suite.

The oracles deliberately use slow, obviously-correct algorithms (scan-based
free reduction, raw letter expansion, tree medians from the four-point
distance formula) so they share no code path with the package.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from gapcert.errors import NoConvergenceError, NoGapError
from gapcert.limits import BOUND_SLACK, LimitMapValue
from gapcert.linalg import (
    Representation,
    ScaledMatrix,
    gap_margin,
    grassmann_distance,
    s_dk,
    u_k,
)
from gapcert.subsets import AxisFamily, Directed, FullBoundary, Primitive
from gapcert.words import BoundaryPoint, Letter, ReducedWord

# ---------------------------------------------------------------------------
# word oracles


def naive_reduce(letters) -> tuple[Letter, ...]:
    """Quadratic free reduction by repeated single-pair cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].inverse():
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_inverse(letters) -> tuple[Letter, ...]:
    return tuple(l.inverse() for l in reversed(letters))


def naive_distance(u: ReducedWord, v: ReducedWord) -> int:
    """Tree distance between vertices: length of the reduced word u^-1 v."""
    return len(naive_reduce(naive_inverse(u.letters) + v.letters))


def naive_median(u: ReducedWord, v: ReducedWord, w: ReducedWord) -> ReducedWord:
    """The unique tree vertex lying on all three geodesics between u, v, w."""
    d_uv = naive_distance(u, v)
    d_uw = naive_distance(u, w)
    d_vw = naive_distance(v, w)
    k = (d_uv + d_uw - d_vw) // 2  # distance from u to the median
    path = naive_reduce(naive_inverse(u.letters) + v.letters)[:k]
    return ReducedWord(naive_reduce(u.letters + path))


def expand_point(pre, per, n: int) -> tuple[Letter, ...]:
    """First n letters of the infinite word pre.(per)^inf, from raw pieces."""
    out = list(pre)
    i = 0
    while len(out) < n:
        out.append(per[i % len(per)])
        i += 1
    return tuple(out[:n])


def point_letters(x: BoundaryPoint, n: int) -> tuple[Letter, ...]:
    return tuple(x.letter_at(i) for i in range(n))


# ---------------------------------------------------------------------------
# linear algebra oracles


def singular_values_eig(a: np.ndarray) -> np.ndarray:
    """Singular values via the symmetric eigenproblem of a^T a, descending."""
    w = np.linalg.eigvalsh(a.T @ a)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def grassmann_distance_projectors(f: np.ndarray, g: np.ndarray) -> float:
    """Largest principal angle sine as the 2-norm of the projector difference."""

    def proj(frame):
        q, _ = np.linalg.qr(frame)
        return q @ q.T

    return float(np.linalg.norm(proj(f) - proj(g), 2))


def random_invertible(rng, dim: int, spread: float = 2.0) -> np.ndarray:
    """Well-conditioned random invertible matrix with log-uniform spectrum."""
    q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q1 @ np.diag(np.exp(rng.uniform(-spread, spread, size=dim))) @ q2


def random_orthonormal_frame(rng, dim: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    return q


def top_eigenspace(matrix: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the span of the k largest-modulus eigenvectors.

    Independent oracle route: eigen-decomposition instead of iterated
    singular frames.  Requires |eigval_k| > |eigval_{k+1}| and the top-k
    eigenvalues to be real (enough for the test matrices used here).
    """
    vals, vecs = np.linalg.eig(matrix)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    assert abs(vals[k - 1]) > abs(vals[k]) * (1 + 1e-9), "no modulus gap"
    top = vecs[:, :k]
    assert np.max(np.abs(top.imag)) < 1e-9, "top eigenvectors not real"
    q, _ = np.linalg.qr(top.real)
    return q


def word_matrix(rep, w) -> np.ndarray:
    """Plain float product of the letter images, no rescaling."""
    out = np.eye(rep.dim)
    for letter in w:
        out = out @ rep.image(letter)
    return out


# ---------------------------------------------------------------------------
# hypothesis strategies


def letters(rank: int = 2):
    return st.builds(Letter, st.integers(1, rank), st.sampled_from((1, -1)))


@st.composite
def reduced_words(draw, rank: int = 2, min_len: int = 0, max_len: int = 8):
    n = draw(st.integers(min_len, max_len))
    out: list[Letter] = []
    for _ in range(n):
        l = draw(letters(rank))
        if out and l == out[-1].inverse():
            l = l.inverse()  # flip instead of cancelling; keeps length exact
        out.append(l)
    return ReducedWord(tuple(out))


@st.composite
def cyclically_reduced_words(draw, rank: int = 2, min_len: int = 1, max_len: int = 6):
    keep = list(draw(reduced_words(rank, max(min_len, 1), max_len)).letters)
    while len(keep) >= 2 and keep[0] == keep[-1].inverse():
        keep.pop()
    return ReducedWord(tuple(keep))


@st.composite
def boundary_points(draw, rank: int = 2, max_pre: int = 4, max_per: int = 4):
    per = draw(cyclically_reduced_words(rank, 1, max_per))
    pre = draw(reduced_words(rank, 0, max_pre))
    keep = list(pre.letters)
    while keep and keep[-1] == per.letters[0].inverse():
        keep.pop()  # drop letters that would cancel into the period
    return BoundaryPoint(ReducedWord(tuple(keep)), per)


@st.composite
def reps_and_subsets(draw):
    """A representation and a subset of each of the four kinds, d in {2, 3}.

    Integer generators make exact ties between singular values common:
    tied words and gapless prefixes.
    """
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("full", "directed", "axis", "primitive")))
    rank = 2 if kind == "primitive" else draw(st.integers(1, 2))
    if kind == "full":
        spec = FullBoundary(rank)
    elif kind == "directed":
        steps = draw(st.sets(letters(rank), min_size=1))
        spec = Directed(rank, frozenset(steps), allow_inverse_pairs=True)
    elif kind == "axis":
        axis = cyclically_reduced_words(rank, 1, 4)
        words = draw(st.lists(axis, min_size=1, max_size=3))
        spec = AxisFamily(rank, tuple(words))
    else:
        spec = Primitive(2, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gens = [rng.integers(-2, 3, size=(dim, dim)).astype(float) for _ in range(rank)]
        assume(all(abs(np.linalg.det(g)) > 0.5 for g in gens))
    else:
        gens = [random_invertible(rng, dim) for _ in range(rank)]
    return Representation.of(gens), spec


def tolerance_sets():
    """Distinct walk tolerances in any order, as one pass settles them:
    always 1e-8 and 1e-10, the tolerances a run reads, and maybe 1e-6."""
    return st.sets(st.just(1e-6), max_size=1).flatmap(
        lambda extra: st.permutations([1e-8, 1e-10, *extra])
    )


# ---------------------------------------------------------------------------
# limit-plane oracle


def reference_xi_upper(rep, k, x, rate, tol, n_max):
    """The one-point prefix loop that the chunked lockstep walk of
    gapcert.limits replaced: one scale-tracked product per prefix, then u_k, gap_margin
    and grassmann_distance on it.  Raises NoGapError / NoConvergenceError
    as the walk reports them."""
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    current = ScaledMatrix.identity(rep.dim)
    plane = None
    step = math.inf
    bound = math.inf
    margin_prev = -math.inf
    skipped = []
    for n in range(1, n_max + 1):
        current = current.times(rep.image(x.letter_at(n - 1)))
        try:
            candidate = u_k(current, k)
        except NoGapError:
            skipped.append(n)
            margin_prev = -math.inf
            continue
        margin = gap_margin(current, k)
        if plane is not None:
            step = grassmann_distance(plane, candidate)
        plane = candidate
        rising = margin > margin_prev
        margin_prev = margin
        bound = worst_pair * math.exp(-margin) * tail_factor
        if step <= tol and rising and bound <= BOUND_SLACK * tol:
            return LimitMapValue(
                point=x,
                subspace=plane,
                iterations=n,
                last_step=step,
                cauchy_bound=worst_pair * math.exp(-margin),
                skipped_prefixes=tuple(skipped),
            )
    if plane is None:
        offending = str(x.prefix(skipped[0])) if skipped else "(empty)"
        raise NoGapError(
            f"no prefix of {x} up to length {n_max} has a singular gap of "
            f"index {k}; first offending prefix '{offending}'"
        )
    raise NoConvergenceError(
        f"no certified convergence for {x} within {n_max} prefixes: "
        f"last step {step:.3e} against tolerance {tol:.1e}, ray-margin tail "
        f"bound {bound:.3e} against allowance {BOUND_SLACK * tol:.1e}, "
        f"{len(skipped)} gapless prefixes skipped"
    )


# ---------------------------------------------------------------------------
# splitting oracle


def forward_maps(rep, x, count):
    """cocycle(rep, x, n) for n = 1, ..., count, one length at a time: the
    time-n map is the inverse image of the n-th step letter times the
    time-(n-1) map, extended on the left with ScaledMatrix.compose."""
    current = ScaledMatrix.identity(rep.dim)
    for t in range(count):
        step = ScaledMatrix(rep.image(x.line.step_letter(t).inverse()))
        current = step.compose(current)
        yield current


def backward_maps(rep, x, count):
    """cocycle(rep, shift(x, -n), n) for n = 1, ..., count, one length at a
    time, each extending the last on the right as cocycle() builds it."""
    current = ScaledMatrix.identity(rep.dim)
    for n in range(1, count + 1):
        current = current.times(rep.image(x.line.step_letter(-n).inverse()))
        yield current


def reference_raw_splitting(rep, x, k, n_steps, tol, rate):
    """The one-tolerance, one-length-at-a-time splitting walk that the
    chunked one-pass walk of gapcert.flow generalizes: returns (stable,
    unstable, diagnostics) at the first length where both steps are below
    tol and the tail bound is below its allowance, or raises
    NoConvergenceError."""
    index = rep.dim - k
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    stable = unstable = None
    step_s = step_u = math.inf
    margins = []
    skipped = []
    maps = zip(forward_maps(rep, x, n_steps), backward_maps(rep, x, n_steps))
    for n, (forward_map, backward_map) in enumerate(maps, start=1):
        try:
            stable_cand = s_dk(forward_map, index)
            unstable_cand = u_k(backward_map, index)
        except NoGapError:
            skipped.append(n)
            continue
        margin_s = gap_margin(forward_map, index)
        margin_u = gap_margin(backward_map, index)
        margins.append((n, margin_s))
        if stable is not None:
            step_s = grassmann_distance(stable, stable_cand)
            step_u = grassmann_distance(unstable, unstable_cand)
        stable, unstable = stable_cand, unstable_cand
        bound_s = worst_pair * math.exp(-margin_s) * tail_factor
        bound_u = worst_pair * math.exp(-margin_u) * tail_factor
        bound = max(bound_s, bound_u)
        if step_s <= tol and step_u <= tol and bound <= BOUND_SLACK * tol:
            diag = {
                "iterations": n,
                "step_s": step_s,
                "step_u": step_u,
                "margins": margins,
                "skipped": skipped,
            }
            return stable, unstable, diag
    raise NoConvergenceError(
        f"splitting did not settle within {n_steps} steps: last steps "
        f"{step_s:.3e}/{step_u:.3e} against tolerance {tol:.1e}, "
        f"{len(skipped)} gapless lengths skipped"
    )
