"""Log-scale linear algebra tests against symmetric-eigen and projector oracles."""

import itertools
import math

import numpy as np
import pytest

import helpers
from helpers import gap_margin, log_conorm, log_norm, s_dk, singular_values, u_k
from gapcert import linalg
from gapcert.errors import (
    DependentColumnsError,
    DimensionMismatchError,
    IllConditionedError,
    NoGapError,
    ScaleOverflowError,
)
from gapcert.linalg import (
    Representation,
    ScaledMatrix,
    Subspace,
    apply_to_subspace,
    evaluate,
    grassmann_distance,
    power_images,
    stacked_log_tops,
    _renormalized_rows,
    renormalized_stack,
    running_products,
    stacked_apply_to_subspace,
    stacked_grassmann_distance,
    transversality_gap,
)
from gapcert.words import EMPTY_WORD, parse_word

ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def scaled(mat):
    return helpers.scaled_matrix(np.asarray(mat, dtype=float))


# ---------------------------------------------------------------------------
# scaled matrices and evaluation


def test_identity_evaluation():
    rep = Representation.of([np.diag([4.0, 0.5, 0.5])])
    m = evaluate(rep, EMPTY_WORD)
    assert m.logscale == 0.0
    assert np.array_equal(m.core, np.eye(3))


def test_diagonal_power_no_overflow():
    rep = Representation.of([np.diag([4.0, 0.5, 0.5])])
    w = parse_word("a" * 40)
    logs = singular_values(evaluate(rep, w))
    assert logs[0] == pytest.approx(40 * math.log(4.0), abs=1e-9)
    assert logs[1] == pytest.approx(-40 * math.log(2.0), abs=1e-9)

    # far beyond float range for the raw product
    long = evaluate(rep, parse_word("a" * 600))
    logs = singular_values(long)
    assert logs[0] == pytest.approx(600 * math.log(4.0), rel=1e-12)
    assert np.all(np.isfinite(long.core))
    with pytest.raises(OverflowError):
        long.matrix()


def test_core_norm_stays_in_band(rng):
    rep = Representation.of(
        [helpers.random_invertible(rng, 3), helpers.random_invertible(rng, 3)]
    )
    m = ScaledMatrix.identity(3)
    for letter in parse_word("abababab" * 4):
        m = m.times(rep.image(letter))
        estimate = np.linalg.norm(m.core)
        assert 0.5 <= estimate <= 2.0 or estimate == pytest.approx(1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_renormalized_stack_matches_single_path(rng):
    # a large random stack, with rows whose squares overflow or underflow:
    # every row's core and log scale have the bits of the one-matrix path
    n = 50_000
    cores = rng.normal(size=(n, 3, 3)) * np.exp(rng.uniform(-4, 4, (n, 1, 1)))
    cores[:5] *= 1e200  # the squares overflow
    cores[5:10] *= 1e-200  # the squares underflow to zero
    logscales = rng.normal(size=n) * 50.0
    # the stack is renormalized in place: it takes a copy of the cores
    got_cores, got_logscales = renormalized_stack(cores.copy(), logscales)
    singles = [
        _renormalized_rows(c[None].copy(), np.array([l])) for c, l in zip(cores, logscales)
    ]
    assert np.array_equal(np.array([core[0] for core, _ in singles]), got_cores)
    assert np.array_equal(np.array([scale[0] for _, scale in singles]), got_logscales)
    with pytest.raises(ScaleOverflowError):
        renormalized_stack(np.zeros((2, 3, 3)), np.zeros(2))
    with pytest.raises(ScaleOverflowError):
        _renormalized_rows(np.full((1, 3, 3), np.inf), np.zeros(1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_few_row_renormalization_matches_the_stack(rng):
    # the lean step running_products takes on a few rows, bit for bit, on
    # blocks with in-band, out-of-band, overflowing and underflowing rows
    n = 6000
    cores = rng.normal(size=(n, 2, 2)) * np.exp(rng.uniform(-4, 4, (n, 1, 1)))
    cores[::37] *= 1e200
    cores[11::41] *= 1e-200
    cores[3::29] = np.eye(2)
    logscales = rng.normal(size=n) * 50.0
    kinds = set()
    for rows in range(1, 5):
        for start in range(0, n - rows, 5 * rows):
            block, scales = cores[start : start + rows], logscales[start : start + rows]
            want_cores, want_scales = renormalized_stack(block.copy(), scales)
            got_cores, got_scales = _renormalized_rows(block.copy(), scales)
            assert got_cores.tobytes() == want_cores.tobytes()
            assert got_scales.tobytes() == want_scales.tobytes()
            norms = np.sqrt(np.sum(np.square(block.astype(np.longdouble)), axis=(1, 2)))
            in_band = (norms >= 0.5) & (norms <= 2.0)
            kinds.update((norms > 1e150) * 2 + (norms < 1e-150) + 4 * in_band)
    assert kinds == {0, 1, 2, 4}


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_running_products_extend_as_times(rng):
    # a few rows and a stack of rows, with extreme factors whose products'
    # squares overflow or underflow; the inputs are read-only and are left
    # as they were, and a broadcast identity (as _margin_tables starts its
    # first level) starts the same products as ScaledMatrix.identity
    for rows in (1, 2, 4, 7):
        images = np.array([helpers.random_invertible(rng, 3) for _ in range(12)])
        images[5] *= 1e200
        images[7] *= 1e-200
        factors = images[rng.integers(0, 12, size=(10, rows))]
        factors[0, 0], factors[1, -1], factors[4, 0] = images[5], images[7], images[5]
        start = [
            helpers.scaled_matrix(helpers.random_invertible(rng, 3))
            for _ in range(rows)
        ]
        inputs = (
            np.array([m.core for m in start]),
            np.array([m.logscale for m in start]),
            factors,
        )
        kept = [array.copy() for array in inputs]
        for array in inputs:
            array.setflags(write=False)
        cores, logscales = running_products(*inputs)
        for array, copy in zip(inputs, kept):
            assert array.tobytes() == copy.tobytes()
        eye = np.broadcast_to(np.eye(3), (rows, 3, 3))
        zeros = np.zeros(rows)
        zeros.setflags(write=False)
        eye_cores, eye_scales = running_products(eye, zeros, factors)
        assert eye.tobytes() == np.tile(np.eye(3), (rows, 1, 1)).tobytes()
        assert not zeros.any()
        for row, current in enumerate(start):
            first = ScaledMatrix.identity(3)
            for t, factor in enumerate(factors[:, row]):
                current, first = current.times(factor), first.times(factor)
                assert cores[t, row].tobytes() == current.core.tobytes()
                assert logscales[t, row] == current.logscale
                assert eye_cores[t, row].tobytes() == first.core.tobytes()
                assert eye_scales[t, row] == first.logscale


def planted_factors(rng, count=24):
    """Seeded out-of-band norms, chosen where np.log and math.log differ in
    the last bit (with AVX-512 about 2 in 10^4 near the band do), with
    (count, 3, 3) cores of one nonzero entry of that norm: sqrt(x * x) is x
    exactly, so every renormalization logs x itself.  Where np.log agrees
    with math.log everywhere, the first draws are planted instead."""
    stretches = rng.uniform(2.0, 20.0, 100_000)
    draws = np.concatenate([stretches, 1.0 / stretches])
    misses = draws[np.log(draws) != np.array([math.log(x) for x in draws.tolist()])]
    values = np.concatenate([misses, draws])[:count]
    cores = np.zeros((count, 3, 3))
    cores[:, 0, 0] = values
    return values, cores


def test_every_renormalization_takes_one_log(rng):
    # the stack, the few-row step, ScaledMatrix.times and running_products
    # give one core and one log scale per planted row, bit for bit, within
    # 1 ulp of math.log
    values, cores = planted_factors(rng)
    zeros = np.zeros(len(values))
    want_cores, want_scales = renormalized_stack(cores.copy(), zeros)
    logs = np.array([math.log(x) for x in values.tolist()])
    assert np.all(np.abs(want_scales - logs) <= np.spacing(np.abs(logs)))
    for row, core in enumerate(cores):
        one = ScaledMatrix.identity(3).times(core)
        assert one.core.tobytes() == want_cores[row].tobytes()
        assert one.logscale == want_scales[row]
    for rows in range(1, 5):
        for lo in range(0, len(values) - rows + 1, rows):
            block = slice(lo, lo + rows)
            block_cores = cores[block].copy()
            got_cores, got_scales = _renormalized_rows(block_cores, zeros[block])
            assert got_cores.tobytes() == want_cores[block].tobytes()
            assert got_scales.tobytes() == want_scales[block].tobytes()
    for rows in (1, 3, 6):
        factors = cores[: len(cores) // rows * rows].reshape(-1, rows, 3, 3)
        got_cores, got_scales = running_products(
            np.broadcast_to(np.eye(3), (rows, 3, 3)), np.zeros(rows), factors
        )
        for row in range(rows):
            current = ScaledMatrix.identity(3)
            for t, factor in enumerate(factors[:, row]):
                current = current.times(factor)
                assert got_cores[t, row].tobytes() == current.core.tobytes()
                assert got_scales[t, row] == current.logscale


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_extreme_entries_keep_their_scale(rng):
    g = helpers.random_invertible(rng, 3)
    base = singular_values(scaled(g))
    for factor in (1e200, 1e-200):
        m = scaled(factor * g)
        assert 0.5 <= np.linalg.norm(m.core) <= 2.0
        assert singular_values(m) - math.log(factor) == pytest.approx(base, abs=1e-9)


def test_evaluate_matches_naive_product(rng):
    for _ in range(25):
        gens = [helpers.random_invertible(rng, 3) for _ in range(2)]
        rep = Representation.of(gens)
        w = parse_word("abAbaBab")
        naive = np.eye(3)
        for letter in w:
            naive = naive @ rep.image(letter)
        got = evaluate(rep, w)
        assert np.allclose(
            math.exp(got.logscale) * got.core, naive, rtol=1e-10, atol=1e-12
        )


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation.of([np.zeros((2, 2))])
    with pytest.raises(DimensionMismatchError):
        Representation.of([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        Representation.of([np.array([[1.0, np.inf], [0.0, 1.0]])])
    rep = Representation.of([np.diag([2.0, 0.5])])
    assert np.allclose(rep.image(parse_word("A")[0]), np.diag([0.5, 2.0]))
    with pytest.raises(ValueError, match="letter b outside rank 1"):
        rep.image(parse_word("b")[0])
    # past the alphabet the message names the letter by its index
    with pytest.raises(ValueError, match="letter x27\\^-1 outside rank 1"):
        rep.image(53)


def test_generators_are_refused_by_their_condition_number():
    # u * kappa_1 against CONDITION_CEILING, in any basis and at any scale
    # whose norms stay finite: diag(1, 1e-12), whose inverse is exact, is
    # refused, and diag(1, 2.5e-7) (kappa 4e6), whose residual inv @ m - I
    # passes 1e-10 once rotated by 0.3 rad, is inverted
    c, s = math.cos(0.3), math.sin(0.3)
    for q in (np.eye(2), np.array([[c, -s], [s, c]])):
        for scale in (1e-100, 1.0, 1e100):
            with pytest.raises(IllConditionedError, match="too ill-conditioned"):
                Representation.of([scale * q @ np.diag([1.0, 1e-12]) @ q.T])
            m = scale * q @ np.diag([1.0, 2.5e-7]) @ q.T
            inverse = Representation.of([m]).stacked_images[1]
            assert np.allclose(inverse @ m, np.eye(2), atol=1e-8)
    ceiling = linalg.CONDITION_CEILING / (np.finfo(float).eps / 2)
    assert ceiling == pytest.approx(9e7, rel=0.01)


# ---------------------------------------------------------------------------
# singular values and gaps


def test_power_images_walk_the_exterior_powers(rng):
    # a word's product of the walked images of power j has top singular
    # value sigma_1 ... sigma_j of its product (sigma_1(M^-T) = 1 / sigma_d
    # for the duals), and a power's images multiply along a word
    # (Cauchy-Binet); the complementary walk takes min(j, d - j) for each
    # power j and no duals
    for dim in (2, 3, 4, 5):
        rep = Representation.of([helpers.random_invertible(rng, dim) for _ in range(2)])
        word = parse_word("abAb")
        logs = np.log(np.linalg.svd(helpers.word_matrix(rep, word), compute_uv=False))
        for k, complementary in itertools.product(range(1, dim), (False, True)):
            needed = range(max(1, k - 1), min(k + 2, dim))
            if complementary:
                needed = {min(j, dim - j) for j in needed}
            groups = power_images(rep, k, complementary)
            assert sorted(j for powers, _ in groups for j in powers) == sorted(needed)
            for powers, images in groups:
                assert images.shape[:2] == (4, len(powers))
                for i, j in enumerate(powers):
                    product = np.eye(images.shape[-1])
                    for letter in word:
                        product = product @ images[letter, i]
                    top = np.log(np.linalg.svd(product, compute_uv=False)[0])
                    if j == dim - 1 > 1:
                        assert not complementary
                        expected = -logs[-1]
                    else:
                        expected = logs[:j].sum()
                    assert abs(top - expected) <= 1e-12 * (1.0 + abs(expected))
    with pytest.raises(ValueError):
        power_images(rep, dim)


def test_log_tops_match_the_svd(rng):
    # closed forms for 2 x 2 and 3 x 3 cores (an SVD where the 3 x 3 Gram
    # has no clear top gap, as for a multiple of the identity), an SVD
    # past that; each with its log scale
    for size in (2, 3, 4, 6):
        cores = rng.normal(size=(20, size, size))
        cores[0] = np.eye(size)
        logscales = rng.uniform(-50.0, 50.0, size=20)
        tops = stacked_log_tops(cores, logscales)
        exact = np.log(np.linalg.svd(cores, compute_uv=False)[:, 0]) + logscales
        assert np.all(np.abs(tops - exact) <= 1e-13 * (1.0 + np.abs(exact)))


def test_singular_value_examples():
    logs = singular_values(scaled(np.diag([4.0, 0.5, 0.5])))
    assert logs == pytest.approx([math.log(4.0), -math.log(2.0), -math.log(2.0)])
    assert singular_values(scaled(ROT90)) == pytest.approx([0.0, 0.0])


def test_singular_values_match_eig_oracle(rng):
    for _ in range(50):
        a = helpers.random_invertible(rng, 4)
        got = np.exp(singular_values(scaled(a)))
        assert np.allclose(got, helpers.singular_values_eig(a), rtol=1e-8)


def test_gap_margin_examples():
    assert gap_margin(scaled(np.diag([2.0, 0.5])), 1) == pytest.approx(math.log(4.0))
    assert gap_margin(scaled(ROT90), 1) == pytest.approx(0.0, abs=1e-14)
    assert gap_margin(scaled(np.diag([4.0, 0.5, 0.5])), 2) == pytest.approx(
        0.0, abs=1e-14
    )
    with pytest.raises(ValueError):
        gap_margin(scaled(np.eye(2)), 2)


def test_inverse_singular_value_duality(rng):
    """sigma_k(A) and 1/sigma_{d+1-k}(A^-1) agree."""
    for _ in range(50):
        a = helpers.random_invertible(rng, 4)
        logs = singular_values(scaled(a))
        inv_logs = singular_values(scaled(np.linalg.inv(a)))
        assert logs == pytest.approx(list(-inv_logs[::-1]), rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# gap subspaces


def test_u_k_and_s_dk_examples():
    m = scaled(np.diag([4.0, 0.5]))
    top = u_k(m, 1)
    assert grassmann_distance(top, Subspace(1, np.eye(2)[:, :1])) < 1e-12
    bottom = s_dk(m, 1)
    assert grassmann_distance(bottom, Subspace(1, np.eye(2)[:, 1:])) < 1e-12
    with pytest.raises(NoGapError):
        u_k(scaled(ROT90), 1)
    with pytest.raises(NoGapError):
        s_dk(scaled(np.diag([4.0, 0.5, 0.5])), 2)


def test_s_dk_equals_u_of_inverse(rng):
    count = 0
    while count < 40:
        a = helpers.random_invertible(rng, 4)
        k = int(rng.integers(1, 4))
        if gap_margin(scaled(a), k) < 0.3:
            continue
        count += 1
        lhs = s_dk(scaled(a), k)
        rhs = u_k(scaled(np.linalg.inv(a)), 4 - k)
        assert grassmann_distance(lhs, rhs) < 1e-8


# ---------------------------------------------------------------------------
# Grassmannian distance and transversality


def e_span(*cols):
    basis = np.eye(len(cols[0]))
    frame = np.stack([np.asarray(c, dtype=float) for c in cols], axis=1)
    del basis
    return Subspace.from_spanning(frame)


def test_grassmann_examples():
    e1 = e_span([1.0, 0.0])
    e2 = e_span([0.0, 1.0])
    diag = e_span([1.0, 1.0])
    assert grassmann_distance(e1, e2) == pytest.approx(1.0)
    assert grassmann_distance(e1, e1) == pytest.approx(0.0)
    assert grassmann_distance(e1, diag) == pytest.approx(math.sqrt(2.0) / 2.0)
    with pytest.raises(DimensionMismatchError):
        grassmann_distance(e1, Subspace(2, np.eye(2)))


def test_grassmann_matches_projector_oracle(rng):
    for _ in range(60):
        v = Subspace(2, helpers.random_orthonormal_frame(rng, 4, 2))
        w = Subspace(2, helpers.random_orthonormal_frame(rng, 4, 2))
        oracle = helpers.grassmann_distance_projectors(v.frame, w.frame)
        assert grassmann_distance(v, w) == pytest.approx(oracle, abs=1e-9)
        assert grassmann_distance(v, w) == pytest.approx(
            grassmann_distance(w, v), abs=1e-12
        )


def test_grassmann_triangle_inequality(rng):
    for _ in range(60):
        u, v, w = (
            Subspace(2, helpers.random_orthonormal_frame(rng, 4, 2))
            for _ in range(3)
        )
        assert grassmann_distance(u, w) <= (
            grassmann_distance(u, v) + grassmann_distance(v, w) + 1e-12
        )


def test_stacked_subspace_maps_match_the_one_matrix_path(rng):
    # frames from apply_to_subspace, then grassmann_distance, bit for bit
    for dim, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
        seed = Subspace(k, helpers.random_orthonormal_frame(rng, dim, k))
        target = Subspace(k, helpers.random_orthonormal_frame(rng, dim, k))
        mats = np.stack([helpers.random_invertible(rng, dim) for _ in range(9)])
        moved = stacked_apply_to_subspace(mats, seed)
        single = [apply_to_subspace(m, seed) for m in mats]
        assert all(np.array_equal(f, s.frame) for f, s in zip(moved, single))
        assert stacked_grassmann_distance(moved, target.frame).tolist() == [
            grassmann_distance(s, target) for s in single
        ]
    mats[4] = 0.0
    with pytest.raises(DependentColumnsError):
        stacked_apply_to_subspace(mats, seed)


def test_transversality_examples():
    e1 = e_span([1.0, 0.0])
    e2 = e_span([0.0, 1.0])
    diag = e_span([1.0, 1.0])
    assert transversality_gap(e1, e2) == pytest.approx(1.0)
    assert transversality_gap(e1, e1) == pytest.approx(0.0)
    assert 0.0 < transversality_gap(e1, diag) < 1.0
    with pytest.raises(DimensionMismatchError):
        transversality_gap(e1, Subspace(2, np.eye(2)))


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace.from_spanning(np.array([[1.0, 1.0], [1.0, 1.0]]))
    sub = Subspace.from_spanning(np.array([[3.0], [4.0]]))
    assert sub.dimension == 1 and sub.ambient_dim == 2


# ---------------------------------------------------------------------------
# product inequalities (small property runs; the acceptance suite scales up)


def test_product_singular_value_bounds(rng):
    for _ in range(200):
        a = helpers.random_invertible(rng, 3)
        b = helpers.random_invertible(rng, 3)
        la = singular_values(scaled(a))
        lb = singular_values(scaled(b))
        lab = singular_values(scaled(a @ b))
        for k in range(3):
            lower = max(la[-1] + lb[k], la[k] + lb[-1])
            upper = min(la[0] + lb[k], la[k] + lb[0])
            assert lower <= lab[k] + 1e-9
            assert lab[k] <= upper + 1e-9


def test_attracting_space_stability_under_right_factor(rng):
    """Right multiplication moves U_k by at most cond(B) * gap ratio."""
    count = 0
    while count < 120:
        a = helpers.random_invertible(rng, 3, spread=3.0)
        b = helpers.random_invertible(rng, 3, spread=1.0)
        k = int(rng.integers(1, 3))
        ma, mab, mba = scaled(a), scaled(a @ b), scaled(b @ a)
        if min(gap_margin(ma, k), gap_margin(mab, k), gap_margin(mba, k)) < 0.1:
            continue
        count += 1
        cond_b = log_norm(scaled(b)) - log_conorm(scaled(b))
        bound = math.exp(cond_b - gap_margin(ma, k)) + 1e-9
        assert grassmann_distance(u_k(ma, k), u_k(mab, k)) <= bound
        moved = apply_to_subspace(b, u_k(ma, k))
        assert grassmann_distance(moved, u_k(mba, k)) <= bound
