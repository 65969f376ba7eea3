"""Independent oracles and hypothesis strategies shared by the test suite.

The oracles deliberately use slow, obviously-correct algorithms (scan-based
free reduction, raw letter expansion, tree medians from the four-point
distance formula) so they share no code path with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from gapcert import domination
from gapcert.errors import BudgetError, NoConvergenceError, NoGapError
from gapcert.flow import shift_point
from gapcert.limits import BOUND_SLACK, LimitMapValue
from gapcert.linalg import (
    GAP_TOLERANCE,
    Representation,
    ScaledMatrix,
    Subspace,
    _renormalized_rows,
    grassmann_distance,
    power_images,
    stacked_margins,
    walked_tops,
)
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    gamma_p_plus,
    is_primitive,
    reduced_ball,
)
from gapcert.words import (
    BoundaryPoint,
    ReducedWord,
    concat,
    gromov_product,
    least_rotation,
    periodic_point,
    rotate,
    translate,
)

# ---------------------------------------------------------------------------
# word oracles


def naive_reduce(letters) -> tuple[int, ...]:
    """Quadratic free reduction by repeated single-pair cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1] ^ 1:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_inverse(letters) -> tuple[int, ...]:
    return tuple(l ^ 1 for l in reversed(letters))


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


def expand_point(pre, per, n: int) -> tuple[int, ...]:
    """First n letters of the infinite word pre.(per)^inf, from raw pieces."""
    out = list(pre)
    i = 0
    while len(out) < n:
        out.append(per[i % len(per)])
        i += 1
    return tuple(out[:n])


def point_letters(x: BoundaryPoint, n: int) -> tuple[int, ...]:
    return tuple(x.letter_at(i) for i in range(n))


def gromov_product_at(base: ReducedWord, x: BoundaryPoint, y: BoundaryPoint) -> float:
    """Gromov product of x and y seen from the vertex `base`."""
    g = base.inverse()
    return gromov_product(translate(g, x), translate(g, y))


def check_witness(w: ReducedWord, pair: tuple[BoundaryPoint, BoundaryPoint]) -> bool:
    """Re-check that w sits on the forward ray of the witness line through id."""
    back, fwd = pair
    return back != fwd and gromov_product(fwd, back) == 0 and fwd.prefix(len(w)) == w


# ---------------------------------------------------------------------------
# subset oracles: one level builder and one membership rule per subset kind,
# as gapcert.subsets decided them before it read every kind off one graph


def reference_primitive_classes(rank: int, max_len: int) -> list[ReducedWord]:
    """Least rotations of the primitive cyclic words of length <= max_len,
    in sort_key order, by a scan of the ball."""
    reps: list[ReducedWord] = []
    seen: set[ReducedWord] = set()
    for w in reduced_ball(range(2 * rank), max_len):
        if not w or not w.is_cyclically_reduced():
            continue
        canon = least_rotation(w)
        if canon not in seen:
            seen.add(canon)
            if is_primitive(canon, rank):
                reps.append(canon)
    return reps


def reference_levels(spec, budget: int) -> tuple:
    """The coded levels of a subset's positive set, built per kind: every
    reduced word over a Directed subset's steps, vectorised, or the prefixes
    of the rays along every rotation of the axis words."""
    if isinstance(spec, Directed):
        step = np.array(sorted(spec.steps), dtype=np.intp)
        parents = np.zeros(len(step), dtype=np.intp)
        letters = step
        levels = [(parents, letters)]
        for _ in range(1, budget):
            parents = np.repeat(np.arange(len(letters)), len(step))
            extended = np.tile(step, len(letters))
            keep = extended != (letters[parents] ^ 1)
            parents, letters = parents[keep], extended[keep]
            levels.append((parents, letters))
        return tuple(levels)
    axes = (
        spec.words
        if isinstance(spec, AxisFamily)
        else reference_primitive_classes(spec.rank, spec.max_period)
    )
    rays = {
        periodic_point(rotate(w, i)).prefix(budget).letters
        for w in axes
        for i in range(len(w))
    }
    index: dict[tuple[int, ...], int] = {(): 0}
    levels = []
    for t in range(1, budget + 1):
        coded = sorted({ray[:t] for ray in rays})
        levels.append(
            (
                np.array([index[c[:-1]] for c in coded], dtype=np.intp),
                np.array([c[-1] for c in coded], dtype=np.intp),
            )
        )
        index = {c: i for i, c in enumerate(coded)}
    return tuple(levels)


def _reference_is_axis(spec, w: ReducedWord) -> bool:
    if isinstance(spec, AxisFamily):
        return least_rotation(w) in spec.words
    return is_primitive(w, spec.rank)


def _tail_letter_set(x: BoundaryPoint, start: int) -> set[int]:
    """Every letter of x at positions >= start."""
    return set(x.preperiod.letters[start:]) | set(x.period.letters)


def reference_point_in_forward_set(spec, x: BoundaryPoint) -> bool:
    """Point membership per kind: a directed period, or an axis period."""
    if x.max_index() > spec.rank:
        return False
    if isinstance(spec, Directed):
        return set(x.period.letters) <= spec.steps
    return _reference_is_axis(spec, x.period)


def reference_pair_in_subset(spec, x: BoundaryPoint, y: BoundaryPoint) -> bool:
    """Pair membership per kind: both tails past the branch vertex directed,
    or, re-based there, the two ends of one axis through the identity."""
    if x == y or max(x.max_index(), y.max_index()) > spec.rank:
        return False
    junction = int(gromov_product(x, y))
    if isinstance(spec, Directed):
        backward = {l ^ 1 for l in _tail_letter_set(y, junction)}
        return _tail_letter_set(x, junction) | backward <= spec.steps
    approach = x.prefix(junction).inverse()
    px, py = translate(approach, x), translate(approach, y)
    if not (px.preperiod.is_empty() and py.preperiod.is_empty()):
        return False
    return py.period == px.period.inverse() and _reference_is_axis(spec, px.period)


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


def _small_rotation(rng, angle: float) -> np.ndarray:
    """Rotation of R^3 by `angle` about a seeded random axis (Rodrigues)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def pingpong_rep(seed: int) -> Representation:
    """The seeded d = 3 ping-pong pair of the certify-full benchmark: each
    generator is Q diag(lam, 1, 1/mu) R Q^T with lam != mu and R a small
    rotation, the frames of a and b 45 degrees apart in the (e1, e3)-plane."""
    rng = np.random.default_rng(seed)
    half = 1.0 / math.sqrt(2.0)
    frames = (np.eye(3), np.array([[half, 0, half], [0, 1, 0], [half, 0, -half]]))
    gens = []
    for frame in frames:
        q = _small_rotation(rng, 0.15) @ frame
        lam = rng.uniform(6.0, 8.0)
        mu = rng.uniform(3.5, 5.0)
        gens.append(q @ np.diag([lam, 1.0, 1.0 / mu]) @ _small_rotation(rng, 0.2) @ q.T)
    return Representation.of(gens)


def sym_power(g: np.ndarray, dim: int) -> np.ndarray:
    """Sym^(dim-1) of a 2 x 2 matrix on homogeneous polynomials of degree
    n = dim - 1, in the monomial basis x^(n-j) y^j scaled by
    sqrt(binom(n, j)): the basis in which phi(v)_j = sqrt(binom(n, j))
    x^(n-j) y^j has |phi(v)| = |v|^n, so phi(g v) = Sym(g) phi(v), Sym is a
    homomorphism and maps SO(2) into SO(dim)."""
    n = dim - 1
    (a, b), (c, d) = g
    scale = [math.sqrt(math.comb(n, j)) for j in range(dim)]
    out = np.empty((dim, dim))
    for j in range(dim):
        # (a x + b y)^(n-j) (c x + d y)^j, coefficients by the power of y
        first = [math.comb(n - j, i) * a ** (n - j - i) * b**i for i in range(dim - j)]
        second = [math.comb(j, i) * c ** (j - i) * d**i for i in range(j + 1)]
        out[j] = np.convolve(first, second) * scale[j] / np.array(scale)
    return out


def sym_lift(rep: Representation, dim: int) -> Representation:
    """The irreducible lift Sym^(dim-1) of a representation in GL(2): if a
    word's image has singular values s > t, its lift's are s^(n-j) t^j,
    so every margin m_k of the lift is the margin m_1 of rep."""
    return Representation.of(
        [sym_power(rep.image(2 * i), dim) for i in range(rep.rank)]
    )


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


def scaled_matrix(matrix) -> ScaledMatrix:
    """A plain matrix as a ScaledMatrix, renormalized from log scale 0."""
    core = np.array(matrix, dtype=float, order="C")
    cores, logscales = _renormalized_rows(core[None], np.zeros(1))
    return ScaledMatrix(cores[0], float(logscales[0]))


# the floor under singular values before their log
_TINY = 1e-300


def singular_values(m: ScaledMatrix) -> np.ndarray:
    """Log-scale singular values, descending."""
    s = np.linalg.svd(m.core, compute_uv=False)
    return m.logscale + np.log(np.clip(s, _TINY, None))


def gap_margin(m: ScaledMatrix, k: int) -> float:
    """One-matrix margin reference: log sigma_k - log sigma_{k+1} by SVD;
    zero means no gap of index k."""
    logs = singular_values(m)
    if not 1 <= k < len(logs):
        raise ValueError(f"gap index must satisfy 1 <= k < {len(logs)}, got {k}")
    return float(logs[k - 1] - logs[k])


def log_norm(m: ScaledMatrix) -> float:
    """log of the operator norm."""
    return float(singular_values(m)[0])


def log_conorm(m: ScaledMatrix) -> float:
    """log of the smallest singular value."""
    return float(singular_values(m)[-1])


def margins(rep, spec, k: int, budget: int) -> dict:
    """Per-length minimum margins of the subset's positive words with their
    lexicographic argmin: {t: (margin, word)}, from one certify walk."""
    if budget < 2:
        raise BudgetError(f"margin tables need a budget >= 2, got {budget}")
    return domination._margin_tables([rep], gamma_p_plus(spec, budget), k)[0]


def sample_words(sample):
    """Every word of a GammaPSample, one length after another."""
    for t in range(1, sample.budget + 1):
        yield from sample.level_words(t)


def enumerated_word_in_positive_set(spec, w: ReducedWord, b: int = 0) -> bool:
    """The enumeration reference for word_in_positive_set: w of length <= b,
    or some p^-1 w with |p| <= b among the decoded words of
    gamma_p_plus(spec, |w| + b)."""
    if len(w) <= b:
        return True
    enumerated = set(sample_words(gamma_p_plus(spec, len(w) + b)))
    ball = reduced_ball(range(2 * spec.rank), b)
    return any(concat(p.inverse(), w) in enumerated for p in ball)


def slope_tolerance(*certs, floor: float = 1e-9) -> float:
    """Comparison tolerance for fitted slopes: twice the summed standard
    errors, floored to keep exact fits comparable."""
    return max(2.0 * sum(c.slope_stderr for c in certs), floor)


def _require_gap(m: ScaledMatrix, k: int, svals: np.ndarray) -> None:
    if not 1 <= k < m.dim:
        raise ValueError(f"gap index must satisfy 1 <= k < {m.dim}, got {k}")
    logs = np.log(np.clip(svals, _TINY, None))
    if logs[k - 1] - logs[k] <= GAP_TOLERANCE:
        raise NoGapError(
            f"no singular value gap of index {k}: "
            f"log margin {logs[k - 1] - logs[k]:.3e}"
        )


def u_k(m: ScaledMatrix, k: int) -> Subspace:
    """One-matrix reference for the attracting plane of a product: the span
    of the top-k left singular vectors; needs a gap of index k."""
    left, s, _ = np.linalg.svd(m.core)
    _require_gap(m, k, s)
    return Subspace(k, left[:, :k])


def s_dk(m: ScaledMatrix, k: int) -> Subspace:
    """One-matrix reference for the planes of rows extended on the left:
    the span of the bottom (d-k) right singular vectors; needs a gap of
    index k."""
    _, s, right_t = np.linalg.svd(m.core)
    _require_gap(m, k, s)
    return Subspace(m.dim - k, right_t[k:].T)


# ---------------------------------------------------------------------------
# hypothesis strategies


def letters(rank: int = 2):
    """Letter codes of the given rank: a = 0, A = 1, b = 2, ..."""
    return st.integers(0, 2 * rank - 1)


@st.composite
def reduced_words(draw, rank: int = 2, min_len: int = 0, max_len: int = 8):
    n = draw(st.integers(min_len, max_len))
    out: list[int] = []
    for _ in range(n):
        l = draw(letters(rank))
        if out and l == out[-1] ^ 1:
            l ^= 1  # flip instead of cancelling; keeps length exact
        out.append(l)
    return ReducedWord(tuple(out))


@st.composite
def cyclically_reduced_words(draw, rank: int = 2, min_len: int = 1, max_len: int = 6):
    keep = list(draw(reduced_words(rank, max(min_len, 1), max_len)).letters)
    while len(keep) >= 2 and keep[0] == keep[-1] ^ 1:
        keep.pop()
    return ReducedWord(tuple(keep))


@st.composite
def boundary_points(draw, rank: int = 2, max_pre: int = 4, max_per: int = 4):
    per = draw(cyclically_reduced_words(rank, 1, max_per))
    pre = draw(reduced_words(rank, 0, max_pre))
    keep = list(pre.letters)
    while keep and keep[-1] == per.letters[0] ^ 1:
        keep.pop()  # drop letters that would cancel into the period
    return BoundaryPoint(ReducedWord(tuple(keep)), per)


@st.composite
def shift_points(draw):
    """Shift points of the full rank-2 boundary: two ends whose first
    letters differ, so that the identity is on the line between them."""
    forward = draw(boundary_points())
    backward = draw(boundary_points())
    assume(forward.letter_at(0) != backward.letter_at(0))
    return shift_point(FullBoundary(2), forward, backward)


@st.composite
def reps_and_subsets(draw, dims=(2, 3)):
    """A representation and a subset of each of the four kinds, d in dims.

    Integer generators make exact ties between singular values common:
    tied words and gapless prefixes.
    """
    dim = draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(("full", "directed", "axis", "primitive")))
    rank = 2 if kind == "primitive" else draw(st.integers(1, 2))
    if kind == "full":
        spec = FullBoundary(rank)
    elif kind == "directed":
        steps = draw(st.sets(letters(rank), min_size=1))
        spec = Directed(rank, frozenset(steps))
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


def walk_reads(caps=(3, 6, 40, 400)):
    """Reads of one stored walk, as (tolerance, length cap), in any order:
    1e-8 and 1e-10 (the tolerances a run reads) and maybe 1e-6, each at
    its own cap."""
    tolerances = st.sets(st.just(1e-6), max_size=1).flatmap(
        lambda extra: st.permutations([1e-8, 1e-10, *extra])
    )
    return st.tuples(tolerances, st.permutations(caps)).map(
        lambda drawn: list(zip(*drawn))
    )


def walked_length(reads, chunk):
    """The length a stored walk reaches after reads, in order, each as
    (length it needs, length cap): a read walks on a chunk at a time until
    it has its length, and never past its cap."""
    length = 0
    for need, cap in reads:
        if need > length:
            length = min(length - (length - need) // chunk * chunk, cap)
    return length


# ---------------------------------------------------------------------------
# limit-plane oracle


def reference_plane(core, k, dim):
    """The k-plane of a matrix M of GL(dim) from the core of its power k
    (M for k = 1, M^-T for k = dim - 1, otherwise wedge^k M): the top left
    singular vector w of the core, its complement for k = dim - 1, and
    otherwise the top-k left singular block of the matrix whose column J,
    a (k - 1)-subset in lexicographic order, holds at row i not in J the
    entry of w at J + {i}, signed by the place of i in J + {i}."""
    left = np.linalg.svd(core)[0]
    if k == 1 or k == dim - 1:
        return left[:, :1] if k == 1 else left[:, 1:]
    subsets = list(itertools.combinations(range(dim), k))
    faces = list(itertools.combinations(range(dim), k - 1))
    contractions = np.zeros((dim, len(faces)))
    for c, face in enumerate(faces):
        for i in range(dim):
            if i not in face:
                place = sum(j < i for j in face)
                entry = left[subsets.index(tuple(sorted(face + (i,)))), 0]
                contractions[i, c] = (-1) ** place * entry
    return np.linalg.svd(contractions)[0][:, :k]


def reference_xi_upper(rep, k, x, rate, tol, n_max):
    """The one-point prefix loop that the chunked lockstep walk of
    gapcert.limits replaced: per prefix, one scale-tracked product of each
    exterior power that certify walks for index k, extended by
    ScaledMatrix.times, and the running log|det|; certify's margin of
    their tops, the plane of reference_plane on the product of power k,
    and grassmann_distance on it.  Raises NoGapError / NoConvergenceError
    as the walk reports them."""
    worst_pair = rep.letter_norm_bound
    tail_factor = 1.0 / (1.0 - math.exp(-rate))
    images = {
        j: letter_images[:, at]
        for powers, letter_images in power_images(rep, k)
        for at, j in enumerate(powers)
    }
    products = {j: ScaledMatrix.identity(m.shape[-1]) for j, m in images.items()}
    logdet = 0.0
    plane = None
    step = math.inf
    bound = math.inf
    margin_prev = -math.inf
    skipped = []
    for n in range(1, n_max + 1):
        letter = x.letter_at(n - 1)
        for j in products:
            products[j] = products[j].times(images[j][letter])
        logdet = logdet + rep.stacked_logdets[letter]
        tops = walked_tops(
            [((j,), m.core[None], np.array([m.logscale])) for j, m in products.items()]
        )
        margin = float(stacked_margins(tops, np.float64(logdet), k, rep.dim))
        if margin <= GAP_TOLERANCE:
            skipped.append(n)
            margin_prev = -math.inf
            continue
        candidate = Subspace(k, reference_plane(products[k].core, k, rep.dim))
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
    time-n map is the transpose of rho(forward word)^-T, whose product is
    extended on the right by the n-th step letter's dual image with
    ScaledMatrix.times."""
    current = ScaledMatrix.identity(rep.dim)
    for t in range(count):
        current = current.times(rep.stacked_duals[x.forward.letter_at(t)])
        yield ScaledMatrix(current.core.T, current.logscale)


def reference_splitting(rep, x, k, n_steps, tol, rate):
    """The splitting over x as the one-point prefix loop reads it: the
    (stable, unstable) limit-plane values at the point's forward end at
    index k and backward end at d - k, within n_steps prefixes, or the
    NoConvergenceError that gapcert.flow raises when either does not
    settle."""
    try:
        return (
            reference_xi_upper(rep, k, x.forward, rate, tol, n_steps),
            reference_xi_upper(rep, rep.dim - k, x.backward, rate, tol, n_steps),
        )
    except (NoGapError, NoConvergenceError) as exc:
        raise NoConvergenceError(
            f"splitting did not settle within {n_steps} steps: {exc}"
        ) from None


def count_walks(monkeypatch) -> list[tuple[int, int]]:
    """Record the (budget, k) of every margin walk certify makes from here
    on; a certificate taken from certify's memo makes none."""
    walks = []
    certify_each = domination.certify_each

    def spy(reps, sample, k, opts):
        walks.append((sample.budget, k))
        return certify_each(reps, sample, k, opts)

    monkeypatch.setattr(domination, "certify_each", spy)
    return walks
