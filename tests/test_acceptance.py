"""End-to-end acceptance checks, one test per criterion, at the stated
tolerances.  Each test prints a single PASS line with the measured values
when it succeeds; pytest -v adds the per-test pass/fail verdict lines."""

import math

import numpy as np
import pytest

import helpers
from helpers import (
    gap_margin,
    log_conorm,
    log_norm,
    scaled_matrix,
    singular_values,
    slope_tolerance,
    u_k,
)
from gapcert.domination import CERTIFIED, REFUTED, _fit_slope, certify
from gapcert.errors import NoGapError
from gapcert.flow import (
    BlockMap,
    anosov_margins,
    bg_splitting,
    check_hypotheses,
    graph_transform,
    invariant_section,
    orbit_block_maps,
    shift_point,
    splitting_checks,
    stability_probe,
)
from gapcert.limits import (
    discontinuity_probe,
    holder_estimate,
    xi_upper,
)
from gapcert.linalg import (
    Representation,
    Subspace,
    apply_to_subspace,
    evaluate,
    grassmann_distance,
)
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    gamma_p_plus,
    hat,
)
from gapcert.words import (
    ReducedWord,
    parse_boundary_point,
    parse_word,
    periodic_point,
)

LOG8 = math.log(8.0)
A = 0  # the letter codes of a and b
B = 2


def z_rep():
    return Representation.of([np.diag([4.0, 0.5, 0.5])])


def z_axis():
    return AxisFamily(1, (parse_word("a"),))


def detour_rep():
    return Representation.of(
        [np.diag([2.0, 0.5]), np.array([[0.0, 1.0], [-1.0, 0.0]])]
    )


def schottky_rep():
    rot = np.array(
        [
            [math.cos(math.pi / 4), -math.sin(math.pi / 4)],
            [math.sin(math.pi / 4), math.cos(math.pi / 4)],
        ]
    )
    stretch = np.diag([5.0, 0.2])
    return Representation.of([stretch, rot @ stretch @ rot.T])


def directed_ab():
    return Directed(2, frozenset({A, B}))


def test_a01_diagonal_rep_certifies_k1_and_refutes_k2():
    rep, axis = z_rep(), z_axis()
    cert1 = certify(rep, axis, 1, 20)
    assert cert1.verdict == CERTIFIED
    assert abs(cert1.lambda_hat - LOG8) <= 1e-9
    cert2 = certify(rep, axis, 2, 20)
    assert cert2.verdict == REFUTED
    assert cert2.margins and all(m == 0.0 for m in cert2.margins.values())
    print(
        f"PASS [a01] one-generator diagonal: k=1 {cert1.verdict} with "
        f"lambda_hat={cert1.lambda_hat:.12f} (log 8 within 1e-9); "
        f"k=2 {cert2.verdict} with margins identically 0"
    )


def test_a02_detour_limit_lines_and_discontinuity():
    rep = detour_rep()
    axis = AxisFamily(2, (parse_word("a"),))
    cert = certify(rep, axis, 1, 8)
    e1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    e2 = Subspace.from_spanning(np.array([[0.0], [1.0]]))

    base = xi_upper(rep, axis, 1, periodic_point(parse_word("a")), certificate=cert)
    base_err = grassmann_distance(base.subspace, e1)
    assert base_err <= 1e-8

    detour_errs = []
    for m in range(1, 6):
        x = parse_boundary_point("a" * m + "b|(a)")
        value = xi_upper(rep, axis, 1, x, certificate=cert)
        detour_errs.append(grassmann_distance(value.subspace, e2))
    assert all(err <= 1e-6 for err in detour_errs)

    probe = discontinuity_probe(rep, exponents=range(1, 6))
    assert probe.separated
    for i, m in enumerate(probe.exponents):
        assert probe.visual[i] == pytest.approx(math.exp(-m), abs=0.0)
        assert probe.separations[i] == pytest.approx(1.0, abs=1e-12)
    print(
        f"PASS [a02] detour limit lines: base err={base_err:.2e} (<=1e-8), "
        f"worst detour err={max(detour_errs):.2e} (<=1e-6, m=1..5); probe "
        f"visual=e^-m with image separation 1"
    )


def _random_gapped_pair(rng):
    """Invertible 3x3 pair where the factors and products carry a usable
    gap at a random index, for the attracting-space stability suites."""
    while True:
        a = helpers.random_invertible(rng, 3, spread=3.0)
        b = helpers.random_invertible(rng, 3, spread=1.0)
        k = int(rng.integers(1, 3))
        ma = scaled_matrix(a)
        mab = scaled_matrix(a @ b)
        mba = scaled_matrix(b @ a)
        margins = (gap_margin(ma, k), gap_margin(mab, k), gap_margin(mba, k))
        if min(margins) > 1e-6:
            return a, b, k, ma, mab, mba


def test_a03_singular_value_inequality_suites():
    trials = 1000
    slack = 1e-9

    # product bounds: the k-th log singular value of AB sits between
    # la[k] + min(lb) / la[k] + max(lb) (and symmetrically in the factors)
    rng = np.random.default_rng(2026)
    for _ in range(trials):
        a = helpers.random_invertible(rng, 3)
        b = helpers.random_invertible(rng, 3)
        la = singular_values(scaled_matrix(a))
        lb = singular_values(scaled_matrix(b))
        lab = singular_values(scaled_matrix(a @ b))
        for k in range(3):
            assert max(la[-1] + lb[k], la[k] + lb[-1]) <= lab[k] + slack
            assert lab[k] <= min(la[0] + lb[k], la[k] + lb[0]) + slack

    # right-factor stability: d(U_k(A), U_k(AB)) <= cond(B) * e^{-margin}
    rng = np.random.default_rng(2027)
    for _ in range(trials):
        a, b, k, ma, mab, _ = _random_gapped_pair(rng)
        cond_b = log_norm(scaled_matrix(b)) - log_conorm(scaled_matrix(b))
        bound = math.exp(cond_b - gap_margin(ma, k)) + slack
        assert grassmann_distance(u_k(ma, k), u_k(mab, k)) <= bound

    # left-factor equivariance: d(B . U_k(A), U_k(BA)) <= same bound
    rng = np.random.default_rng(2028)
    for _ in range(trials):
        a, b, k, ma, _, mba = _random_gapped_pair(rng)
        cond_b = log_norm(scaled_matrix(b)) - log_conorm(scaled_matrix(b))
        bound = math.exp(cond_b - gap_margin(ma, k)) + slack
        moved = apply_to_subspace(b, u_k(ma, k))
        assert grassmann_distance(moved, u_k(mba, k)) <= bound

    print(
        f"PASS [a03] inequality suites: product bounds, right-factor "
        f"stability, left-factor equivariance; {trials} random invertible "
        f"pairs each, zero violations at 1e-9 slack"
    )


def _random_cyclically_reduced(rng, rank, length):
    alphabet = list(range(2 * rank))  # a, A, b, B, ...
    letters = []
    for i in range(length):
        banned = set()
        if letters:
            banned.add(letters[-1] ^ 1)
        if i == length - 1 and letters:
            banned.add(letters[0] ^ 1)
        choices = [l for l in alphabet if l not in banned]
        letters.append(choices[int(rng.integers(0, len(choices)))])
    return ReducedWord(tuple(letters))


def test_a04_periodic_points_match_eigenspace_oracle():
    rep = schottky_rep()
    full = FullBoundary(2)
    cert = certify(rep, full, 1, 8)
    assert cert.verdict == CERTIFIED

    rng = np.random.default_rng(1234)
    words = []
    seen = set()
    while len(words) < 24:
        w = _random_cyclically_reduced(rng, 2, int(rng.integers(1, 7)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    assert len(words) >= 20 and all(len(w) <= 6 for w in words)

    worst = 0.0
    for w in words:
        value = xi_upper(rep, full, 1, periodic_point(w), certificate=cert)
        oracle = helpers.top_eigenspace(helpers.word_matrix(rep, w), 1)
        worst = max(worst, grassmann_distance(value.subspace, Subspace(1, oracle)))
    assert worst < 1e-6
    print(
        f"PASS [a04] periodic eigen-oracle: {len(words)} random cyclically "
        f"reduced words (len<=6), worst distance {worst:.2e} < 1e-6"
    )


def test_a05_word_and_flow_slopes_agree():
    # one-generator diagonal example: both sides are exact
    rep, axis = z_rep(), z_axis()
    cert = certify(rep, axis, 1, 8)
    point = shift_point(
        axis, periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    )
    curve = anosov_margins(rep, axis, 1, 12, [point])[0]
    z_diff = abs(curve.slope - cert.lambda_hat)
    assert z_diff <= slope_tolerance(cert, curve)
    assert z_diff <= 1e-12  # exact arithmetic of diagonal powers

    # Schottky/Directed: the flow envelope over the certificate's worst
    # words reproduces the word-side fitted slope
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    points = [
        shift_point(spec, periodic_point(w), periodic_point(w.inverse()))
        for w in sorted(set(cert.argmins.values()), key=str)
    ]
    curves = anosov_margins(rep, spec, 1, 8, points)
    window = [
        (t, min(curve.margins[t - 1] for curve in curves)) for t in range(4, 9)
    ]
    slope, _, stderr = _fit_slope(window)
    tolerance = max(2.0 * (cert.slope_stderr + stderr), 1e-9)
    envelope_diff = abs(slope - cert.lambda_hat)
    assert envelope_diff <= tolerance

    # and a matched single-axis comparison
    ab_axis = AxisFamily(2, (parse_word("ab"),))
    axis_cert = certify(rep, ab_axis, 1, 8)
    axis_curve = anosov_margins(
        rep,
        ab_axis,
        1,
        8,
        [shift_point(ab_axis, periodic_point(parse_word("ab")),
                     periodic_point(parse_word("BA")))],
    )[0]
    axis_diff = abs(axis_curve.slope - axis_cert.lambda_hat)
    assert axis_diff <= slope_tolerance(axis_cert, axis_curve)

    print(
        f"PASS [a05] word/flow slope agreement: diagonal diff={z_diff:.2e} "
        f"(exact), directed envelope diff={envelope_diff:.2e} "
        f"(<= {tolerance:.2e}), matched ab-axis diff={axis_diff:.2e}"
    )


def _random_directed_point(rng, letters):
    pre_len = int(rng.integers(0, 4))
    per_len = int(rng.integers(1, 4))
    pre = "".join(letters[int(rng.integers(0, 2))] for _ in range(pre_len))
    per = "".join(letters[int(rng.integers(0, 2))] for _ in range(per_len))
    text = f"{pre}|({per})" if pre else f"({per})"
    return parse_boundary_point(text)


def test_a06_splitting_residuals_at_sampled_points():
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    rng = np.random.default_rng(77)

    seen = set()
    points = []
    while len(points) < 50:
        forward = _random_directed_point(rng, "ab")
        backward = _random_directed_point(rng, "AB")
        key = (str(forward), str(backward))
        if key in seen:
            continue
        seen.add(key)
        points.append(shift_point(spec, forward, backward))

    worst_invariance = 0.0
    worst_endpoint = 0.0
    for x in points:
        sample = bg_splitting(rep, x, 1, certificate=cert)
        checks = splitting_checks(rep, sample, certificate=cert)
        assert checks.passed
        worst_invariance = max(
            worst_invariance, checks.invariance_stable, checks.invariance_unstable
        )
        worst_endpoint = max(
            worst_endpoint,
            checks.stable_endpoint_residual,
            checks.unstable_endpoint_residual,
        )
    assert worst_invariance < 1e-6
    assert worst_endpoint < 1e-6
    print(
        f"PASS [a06] splittings at 50 sampled shift points: worst invariance "
        f"residual {worst_invariance:.2e} < 1e-6, worst endpoint residual "
        f"{worst_endpoint:.2e} < 1e-6"
    )


def _random_hypothesis_blocks(rng, k, dk):
    a11 = rng.normal(size=(k, k))
    a11 *= 0.3 / np.linalg.norm(a11, 2)
    a22 = 4.0 * np.eye(dk) + 0.2 * rng.normal(size=(dk, dk))
    shear1 = rng.normal(size=(k, dk))
    shear1 *= rng.uniform(0.0, 0.3) / np.linalg.norm(shear1, 2)
    shear2 = rng.normal(size=(dk, k))
    shear2 *= rng.uniform(0.0, 0.3) / np.linalg.norm(shear2, 2)
    return BlockMap(a11, a11 @ shear1, a22 @ shear2, a22)


def test_a07_graph_transform_contraction_and_invariant_section():
    rng = np.random.default_rng(99)
    pairs = 0
    worst_ratio = 0.0
    while pairs < 500:
        k, dk = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        blocks = _random_hypothesis_blocks(rng, k, dk)
        check_hypotheses(blocks)
        for _ in range(2):
            f1 = rng.normal(size=(k, dk))
            f1 /= max(1.0, np.linalg.norm(f1, 2))
            f2 = rng.normal(size=(k, dk))
            f2 /= max(1.0, np.linalg.norm(f2, 2))
            gap = np.linalg.norm(f1 - f2, 2)
            if gap < 1e-12:
                continue
            moved = np.linalg.norm(
                graph_transform(blocks, f1) - graph_transform(blocks, f2), 2
            )
            worst_ratio = max(worst_ratio, moved / gap)
            pairs += 1
    assert worst_ratio <= 5.0 / 6.0 + 0.02

    rep = z_rep()
    x = shift_point(
        z_axis(), periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    )
    sample = bg_splitting(rep, x, 1)
    perturbed_image = np.diag([4.0, 0.5, 0.5])
    perturbed_image[0, 1] += 0.01
    perturbed = Representation.of([perturbed_image])
    section = invariant_section(orbit_block_maps(perturbed, [sample]))
    assert section.residual < 1e-10
    print(
        f"PASS [a07] graph transform: worst contraction ratio "
        f"{worst_ratio:.4f} <= 5/6+0.02 over {pairs} pairs; perturbed "
        f"diagonal section residual {section.residual:.2e} < 1e-10"
    )


def test_a08_stability_probe_keeps_certification():
    table = stability_probe(
        schottky_rep(), directed_ab(), 1, epsilon=1e-3, trials=20, budget=10,
        seed=2026,
    )
    certified = table.counts.get(CERTIFIED, 0)
    assert certified == table.trials == 20
    print(
        f"PASS [a08] stability probe: {certified}/{table.trials} perturbations "
        f"(entrywise <=1e-3, budget 10) remain Certified; worst "
        f"lambda_hat={table.worst_lambda_hat:.6f}"
    )


def test_a09_holder_regularity_estimate():
    fit = holder_estimate(
        schottky_rep(), directed_ab(), 1, sample_size=200, seed=7
    )
    assert fit.alpha_hat > 0.0
    assert fit.r_squared >= 0.8
    print(
        f"PASS [a09] regularity estimate: alpha_hat={fit.alpha_hat:.4f} > 0 "
        f"with R^2={fit.r_squared:.4f} >= 0.8 on {fit.pairs_used} pairs"
    )


def test_a10_inversion_duality_for_all_presets():
    presets = {
        "full": FullBoundary(2),
        "directed": directed_ab(),
        "directed-z": Directed(1, frozenset({A})),
        "axis": AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        "primitive": Primitive(2, 3),
    }
    budget = 8
    total = 0
    for spec in presets.values():
        sample = gamma_p_plus(spec, budget)
        dual = gamma_p_plus(hat(spec), budget)
        for t in range(1, budget + 1):
            assert {w.inverse() for w in sample.buckets[t]} == dual.buckets[t]
            total += len(sample.buckets[t])
    print(
        f"PASS [a10] inversion duality: inverse of the positive set equals "
        f"the flipped subset's positive set exactly at L=8 for all "
        f"{len(presets)} presets ({total} words checked)"
    )
