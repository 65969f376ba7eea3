"""Shift cocycle, splitting extraction, graph transform, stability probe."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gapcert import flow, limits
from gapcert.domination import _fit_slope, certify
from gapcert.errors import (
    GapcertError,
    HypothesesFailError,
    MembershipError,
    NoConvergenceError,
    NotCertifiedError,
    SingularBlockError,
)
from gapcert.flow import (
    BlockMap,
    ShiftPoint,
    _raw_splitting,
    anosov_margins,
    bg_splitting,
    check_hypotheses,
    cocycle,
    graph_subspace,
    graph_transform,
    invariant_section,
    orbit_block_maps,
    shift,
    shift_point,
    splitting_checks,
    stability_probe,
    transform_hypotheses,
)
from gapcert.limits import SPLITTING_WALK, shared_walks
from gapcert.linalg import (
    Representation,
    Subspace,
    apply_to_subspace,
    evaluate,
    gap_margin,
    grassmann_distance,
    running_products,
    singular_values,
)
from gapcert.subsets import AxisFamily, Directed, FullBoundary, hat, q_plus_boundary
from gapcert.words import (
    BiInfiniteGeodesic,
    Letter,
    parse_boundary_point,
    parse_word,
    periodic_point,
)

LOG8 = math.log(8.0)
A = Letter(1, 1)
B = Letter(2, 1)


def z_rep():
    return Representation.of([np.diag([4.0, 0.5, 0.5])])


def z_axis():
    return AxisFamily(1, (parse_word("a"),))


def z_point():
    return shift_point(
        z_axis(), periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    )


def example_56_rep():
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


def axis_point(spec, text):
    w = parse_word(text)
    return shift_point(spec, periodic_point(w), periodic_point(w.inverse()))


def span(*columns):
    return Subspace.from_spanning(np.array(columns, dtype=float).T)


# ---------------------------------------------------------------------------
# shift space and cocycle


def test_shift_point_membership_gate():
    with pytest.raises(MembershipError):
        shift_point(
            z_axis(),
            periodic_point(parse_word("a")),
            periodic_point(parse_word("a")),
        )
    with pytest.raises(MembershipError):
        shift_point(
            AxisFamily(2, (parse_word("a"),)),
            periodic_point(parse_word("a")),
            periodic_point(parse_word("B")),
        )


def test_shift_moves_the_marker():
    x = axis_point(AxisFamily(2, (parse_word("ab"),)), "ab")
    assert x.forward_word(3) == parse_word("aba")
    assert shift(x, 2).forward_word(1) == parse_word("a")
    assert shift(shift(x, 1), -1) == x


def test_cocycle_diagonal_values():
    rep, x = z_rep(), z_point()
    assert np.array_equal(cocycle(rep, x, 0).matrix(), np.eye(3))
    for n in range(1, 6):
        expected = np.diag([4.0**-n, 2.0**n, 2.0**n])
        assert np.allclose(cocycle(rep, x, n).matrix(), expected, rtol=1e-12)


def test_cocycle_law_random_representation():
    rng = np.random.default_rng(11)
    rep = Representation.of([rng.normal(size=(3, 3)) for _ in range(2)])
    x = shift_point(
        FullBoundary(2),
        periodic_point(parse_word("ab")),
        periodic_point(parse_word("BA")),
    )
    n, m = 5, 3
    whole = cocycle(rep, x, n + m)
    split = cocycle(rep, shift(x, n), m).compose(cocycle(rep, x, n))
    residual = np.linalg.norm(
        whole.matrix() - split.matrix()
    ) / np.linalg.norm(whole.matrix())
    assert residual < 1e-10


def test_running_maps_match_the_cocycle():
    # the walk's running maps are those of the one-length loop, bit for
    # bit; backward maps extend on the right as cocycle() does, bit for
    # bit; forward maps extend on the left, so they keep cocycle()'s values
    # to rounding: relative error n * eps, and each margin moves by at most
    # n * eps times the ratio of the top to the (k+1)-th singular value
    eps = 2.0**-52
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        rep = Representation.of([helpers.random_invertible(rng, dim) for _ in range(2)])
        x = shift(
            shift_point(
                FullBoundary(2),
                parse_boundary_point("ab|(aB)"),
                parse_boundary_point("b|(AAb)"),
            ),
            2,
        )
        maps = zip(helpers.forward_maps(rep, x, 40), helpers.backward_maps(rep, x, 40))
        cores, logscales = running_products(
            np.repeat(np.eye(dim)[None], 2, axis=0),
            np.zeros(2),
            flow._step_factors(rep, x.line, 0, 40),
            on_left=1,
        )
        for n, (forward, backward) in enumerate(maps, start=1):
            for row, m in enumerate((forward, backward)):
                assert cores[n - 1, row].tobytes() == m.core.tobytes()
                assert logscales[n - 1, row] == m.logscale
            expected = cocycle(rep, shift(x, -n), n)
            assert np.array_equal(backward.core, expected.core)
            assert backward.logscale == expected.logscale
            expected = cocycle(rep, x, n)
            moved = math.exp(forward.logscale - expected.logscale) * forward.core
            error = np.linalg.norm(moved - expected.core)
            assert error <= 16 * n * eps * np.linalg.norm(expected.core)
            logs = singular_values(expected)
            for k in range(1, dim):
                spread = math.exp(logs[0] - logs[k])
                drift = abs(gap_margin(forward, k) - gap_margin(expected, k))
                assert drift <= 8 * n * eps * spread


def test_cocycle_rejects_negative_length():
    with pytest.raises(ValueError):
        cocycle(z_rep(), z_point(), -1)


# ---------------------------------------------------------------------------
# flow-side margins


def test_anosov_margins_diagonal_exact():
    curves = anosov_margins(z_rep(), z_axis(), 1, 10, [z_point()])
    assert len(curves) == 1
    for n, margin in zip(curves[0].lengths, curves[0].margins):
        assert margin == pytest.approx(n * LOG8, rel=1e-12)
    assert curves[0].slope == pytest.approx(LOG8, abs=1e-9)
    assert curves[0].slope_stderr == pytest.approx(0.0, abs=1e-9)


def test_anosov_margins_identity_flat():
    rep = Representation.of([np.eye(2), np.eye(2)])
    x = shift_point(
        FullBoundary(2),
        periodic_point(parse_word("a")),
        periodic_point(parse_word("b")),
    )
    curves = anosov_margins(rep, FullBoundary(2), 1, 8, [x])
    assert all(m == 0.0 for m in curves[0].margins)
    assert curves[0].slope == pytest.approx(0.0, abs=1e-12)


def test_anosov_margins_match_prefix_word_margins():
    # flow-side gap at the complementary index equals the word-side gap of
    # the same prefix: the two routes invert the matrix product
    rep, spec = schottky_rep(), directed_ab()
    for text in ("ab", "a", "aab"):
        x = axis_point(spec, text)
        curve = anosov_margins(rep, spec, 1, 10, [x])[0]
        for n, margin in zip(curve.lengths, curve.margins):
            word_side = gap_margin(evaluate(rep, x.forward_word(n)), 1)
            # the small singular value is resolved to eps relative to the
            # big one, so its log wobbles by about eps * exp(margin)
            floating = 1e-9 + 5e-16 * math.exp(min(margin, 34.0))
            assert margin == pytest.approx(word_side, abs=floating)


def test_anosov_margins_agree_with_matched_axis_slope():
    # a single orbit's slope is the word-side slope of its own axis family
    rep = schottky_rep()
    axis = AxisFamily(2, (parse_word("ab"),))
    cert = certify(rep, axis, 1, 8)
    x = axis_point(axis, "ab")
    curve = anosov_margins(rep, axis, 1, 12, [x])[0]
    tolerance = max(2.0 * (cert.slope_stderr + curve.slope_stderr), 1e-9)
    assert abs(curve.slope - cert.lambda_hat) <= tolerance


def test_flow_envelope_matches_word_envelope():
    # over shift points realizing the certificate's worst words, the
    # flow-side margin envelope reproduces the word-side margins exactly
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    words = {w for w in cert.argmins.values()}
    points = [
        shift_point(spec, periodic_point(w), periodic_point(w.inverse()))
        for w in sorted(words, key=str)
    ]
    curves = anosov_margins(rep, spec, 1, 8, points)
    for t in range(1, 9):
        envelope = min(curve.margins[t - 1] for curve in curves)
        floating = 1e-9 + 5e-16 * math.exp(min(envelope, 34.0))
        assert envelope == pytest.approx(cert.margins[t], abs=floating)
    window = [
        (t, min(curve.margins[t - 1] for curve in curves)) for t in range(4, 9)
    ]
    slope, _, stderr = _fit_slope(window)
    tolerance = max(2.0 * (cert.slope_stderr + stderr), 1e-9)
    assert abs(slope - cert.lambda_hat) <= tolerance


def test_anosov_margins_membership_gate():
    rep, spec = schottky_rep(), directed_ab()
    bad = shift_point(
        FullBoundary(2),
        periodic_point(parse_word("a")),
        periodic_point(parse_word("b")),
    )
    with pytest.raises(MembershipError):
        anosov_margins(rep, spec, 1, 6, [bad])


# ---------------------------------------------------------------------------
# splitting extraction


def test_bg_splitting_diagonal():
    sample = bg_splitting(z_rep(), z_point(), 1)
    assert grassmann_distance(sample.stable, span([1.0, 0.0, 0.0])) < 1e-12
    assert grassmann_distance(
        sample.unstable, span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    ) < 1e-12
    assert sample.transversality == pytest.approx(1.0, abs=1e-12)
    assert sample.invariance_stable == pytest.approx(0.0, abs=1e-12)
    assert sample.invariance_unstable == pytest.approx(0.0, abs=1e-12)
    assert sample.last_step_stable <= 1e-10


def test_bg_splitting_detour_representation():
    rep = example_56_rep()
    x = axis_point(AxisFamily(2, (parse_word("a"),)), "a")
    sample = bg_splitting(rep, x, 1)
    assert grassmann_distance(sample.stable, span([1.0, 0.0])) < 1e-12
    assert grassmann_distance(sample.unstable, span([0.0, 1.0])) < 1e-12


def test_bg_splitting_matches_eigen_oracle():
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    for text in ("ab", "aab", "b"):
        w = parse_word(text)
        x = axis_point(spec, text)
        sample = bg_splitting(rep, x, 1, certificate=cert)
        # the cocycle inverts word matrices, so its contracted (stable)
        # summand is the expanding eigenspace of the word matrix itself
        expanding = helpers.top_eigenspace(helpers.word_matrix(rep, w), 1)
        contracted = helpers.top_eigenspace(
            np.linalg.inv(helpers.word_matrix(rep, w)), 1
        )
        assert grassmann_distance(sample.stable, Subspace(1, expanding)) < 1e-6
        assert grassmann_distance(sample.unstable, Subspace(1, contracted)) < 1e-6


def test_bg_splitting_needs_certificate():
    rep = Representation.of([np.eye(3)])
    with pytest.raises(NotCertifiedError):
        bg_splitting(rep, z_point(), 1)


def test_splitting_checks_pass():
    rep, spec = schottky_rep(), directed_ab()
    sample = bg_splitting(rep, axis_point(spec, "ab"), 1)
    report = splitting_checks(rep, sample)
    assert report.passed
    assert report.invariance_stable < 1e-6
    assert report.invariance_unstable < 1e-6
    assert report.ratio_slope < 0.0
    assert report.stable_endpoint_residual < 1e-6
    assert report.unstable_endpoint_residual < 1e-6
    assert report.transversality > 0.05


def test_splitting_checks_ratio_slope_diagonal():
    rep = z_rep()
    sample = bg_splitting(rep, z_point(), 1)
    report = splitting_checks(rep, sample)
    assert report.passed
    # stable contracts by 1/4 while unstable grows by 2: ratio slope -log 8
    assert report.ratio_slope == pytest.approx(-LOG8, abs=1e-9)
    assert report.invariance_stable == pytest.approx(0.0, abs=1e-12)


def test_splitting_checks_catch_corruption():
    rep, spec = schottky_rep(), directed_ab()
    sample = bg_splitting(rep, axis_point(spec, "ab"), 1)
    theta = math.pi / 6
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    corrupted = dataclasses.replace(
        sample, stable=Subspace(1, rot @ sample.stable.frame)
    )
    report = splitting_checks(rep, corrupted)
    assert not report.passed
    assert report.invariance_stable > 0.1


def splitting_outcome(rep, x, k, n_steps, tol, rate):
    try:
        return helpers.reference_raw_splitting(rep, x, k, n_steps, tol, rate)
    except GapcertError as exc:
        return exc


def assert_same_splitting(got, want):
    if isinstance(want, GapcertError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    (stable, unstable, diag), (stable_want, unstable_want, diag_want) = got, want
    assert np.array_equal(stable.frame, stable_want.frame)
    assert np.array_equal(unstable.frame, unstable_want.frame)
    assert diag == diag_want


@given(
    helpers.reps_and_subsets(),
    st.floats(0.05, 3.0),
    helpers.tolerance_sets(),
    st.sampled_from((4, 80)),
)
@settings(max_examples=30, deadline=None)
def test_one_pass_splitting_settles_each_tolerance_as_walked_alone(
    case, rate, tols, n_steps
):
    # 4 steps are too few for most lines, so NoConvergenceError is common
    rep, spec = case
    forward = sorted(q_plus_boundary(spec, 3), key=str)[:3]
    backward = sorted(q_plus_boundary(hat(spec), 3), key=str)[-2:]
    lines = [BiInfiniteGeodesic(x, y) for x in forward for y in backward if x != y]
    for k in range(1, rep.dim):
        for line in lines:
            x = ShiftPoint(spec, line)
            got = _raw_splitting(rep, x, k, n_steps, tols, rate)
            assert len(got) == len(tols)
            for tol, outcome in zip(tols, got):
                want = splitting_outcome(rep, x, k, n_steps, tol, rate)
                assert_same_splitting(outcome, want)
                (alone,) = _raw_splitting(rep, x, k, n_steps, (tol,), rate)
                assert_same_splitting(alone, want)


def splitting_lines(spec):
    pairs = (("b|(ab)", "(BA)"), ("(a)", "(B)"), ("ab|(b)", "A|(BA)"))
    return [
        shift_point(spec, parse_boundary_point(x), parse_boundary_point(y))
        for x, y in pairs
    ]


def test_splitting_stops_on_both_sides_of_a_chunk_edge(monkeypatch):
    # chunks of C lengths with the stop at C - 1, C and C + 1, and step
    # counts that are not multiples of C, against the one-length loop
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    edges, kinds = set(), set()
    for x in splitting_lines(spec):
        for tol in (1e-8, 1e-10):
            stop = helpers.reference_raw_splitting(rep, x, 1, 80, tol, rate)[2]
            stop = stop["iterations"]
            for chunk in (stop + 1, stop, stop - 1):
                monkeypatch.setattr(limits, "_WALK_CHUNK", chunk)
                edges.add(stop - chunk)
                for n_steps in (80, stop - 1, chunk + 1, 2 * chunk + 3):
                    got = _raw_splitting(rep, x, 1, n_steps, (tol, 1e-6), rate)
                    for t, outcome in zip((tol, 1e-6), got):
                        want = splitting_outcome(rep, x, 1, n_steps, t, rate)
                        assert_same_splitting(outcome, want)
                        kinds.add(type(outcome).__name__)
    assert edges == {-1, 0, 1}
    assert kinds == {"tuple", "NoConvergenceError"}
    # a gapless length after the stop, in the stop's chunk, is not skipped
    rep = example_56_rep()
    detour = parse_boundary_point("a" * 25 + "b|(a)")
    line = BiInfiniteGeodesic(detour, parse_boundary_point("(A)"))
    x = ShiftPoint(FullBoundary(2), line)
    assert gap_margin(cocycle(rep, x, 51), 1) == 0.0
    monkeypatch.setattr(limits, "_WALK_CHUNK", 64)
    (got,) = _raw_splitting(rep, x, 1, 80, (1e-10,), 1.0)
    assert got[2]["iterations"] < 51
    assert_same_splitting(got, splitting_outcome(rep, x, 1, 80, 1e-10, 1.0))


@pytest.mark.parametrize(
    "error", [FloatingPointError("overflow"), np.linalg.LinAlgError("no SVD")]
)
def test_a_splitting_chunk_that_fails_past_the_stop_is_rewalked(monkeypatch, error):
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    x = splitting_lines(spec)[0]
    want = splitting_outcome(rep, x, 1, 80, 1e-10, rate)
    stop = want[2]["iterations"]
    monkeypatch.setattr(limits, "_WALK_CHUNK", stop + 2)
    calls = []
    original = flow.running_products

    def failing_at(at):
        def products(cores, logscales, factors, **sides):
            done = sum(calls)
            if done < at <= done + len(factors):
                raise error
            calls.append(len(factors))
            return original(cores, logscales, factors, **sides)

        return products

    monkeypatch.setattr(flow, "running_products", failing_at(stop + 1))
    (got,) = _raw_splitting(rep, x, 1, 80, (1e-10,), rate)
    assert_same_splitting(got, want)
    assert calls == [1] * stop
    calls.clear()
    monkeypatch.setattr(flow, "running_products", failing_at(stop))
    with pytest.raises(type(error)):
        _raw_splitting(rep, x, 1, 80, (1e-10,), rate)
    assert calls == [1] * (stop - 1)
    # a walk that cannot settle reports its last steps as the loop does
    monkeypatch.setattr(flow, "running_products", original)
    (short,) = _raw_splitting(rep, x, 1, stop - 1, (1e-10,), rate)
    assert isinstance(short, NoConvergenceError)
    assert str(short) == str(splitting_outcome(rep, x, 1, stop - 1, 1e-10, rate))


def test_shared_walks_extract_each_splitting_once(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = shift_point(
        spec, parse_boundary_point("b|(ab)"), parse_boundary_point("(BA)")
    )
    alone = bg_splitting(rep, x, 1, tol=1e-8, certificate=cert)
    checks_alone = splitting_checks(rep, alone, certificate=cert)
    calls = []

    def spy(rep, x, k, n_steps, tols, rate):
        calls.append((x.line.origin_offset, tuple(tols)))
        return original(rep, x, k, n_steps, tols, rate)

    original = flow._raw_splitting
    monkeypatch.setattr(flow, "_raw_splitting", spy)
    reads = [(SPLITTING_WALK, 80, 1e-8), (SPLITTING_WALK, 80, 1e-10)]
    with shared_walks(reads):
        sample = bg_splitting(rep, x, 1, tol=1e-8, certificate=cert)
        checks = splitting_checks(rep, sample, certificate=cert)
    # the point and its shift, each walked once: the point, which only
    # bg_splitting reads, at its own tolerance outside the table; the shift
    # at both, so splitting_checks reads it without walking again
    assert [tols for _, tols in calls] == [(1e-8,), (1e-10, 1e-8)]
    assert calls[1][0] == calls[0][0] + 1
    assert np.array_equal(sample.stable.frame, alone.stable.frame)
    assert np.array_equal(sample.unstable.frame, alone.unstable.frame)
    assert dataclasses.astuple(checks) == dataclasses.astuple(checks_alone)
    assert (sample.invariance_stable, sample.margin_values) == (
        alone.invariance_stable,
        alone.margin_values,
    )


# ---------------------------------------------------------------------------
# graph transform


def test_graph_transform_zero_fixed_point():
    blocks = BlockMap(
        np.diag([0.25]), np.zeros((1, 2)), np.zeros((2, 1)), np.diag([2.0, 2.0])
    )
    assert np.array_equal(graph_transform(blocks, np.zeros((1, 2))), np.zeros((1, 2)))


def test_graph_transform_matches_direct_graph_image():
    rng = np.random.default_rng(5)
    blocks = _random_hypothesis_blocks(rng, 2, 3)
    f = rng.uniform(-0.5, 0.5, (2, 3))
    image = apply_to_subspace(blocks.matrix(), graph_subspace(f))
    assert grassmann_distance(
        image, graph_subspace(graph_transform(blocks, f))
    ) < 1e-12


def _random_hypothesis_blocks(rng, k, dk):
    """Random blocks satisfying the three 1/3-norm hypotheses."""
    a11 = rng.normal(size=(k, k))
    a11 *= 0.3 / np.linalg.norm(a11, 2)
    a22 = 4.0 * np.eye(dk) + 0.2 * rng.normal(size=(dk, dk))
    shear1 = rng.normal(size=(k, dk))
    shear1 *= rng.uniform(0.0, 0.3) / np.linalg.norm(shear1, 2)
    shear2 = rng.normal(size=(dk, k))
    shear2 *= rng.uniform(0.0, 0.3) / np.linalg.norm(shear2, 2)
    return BlockMap(a11, a11 @ shear1, a22 @ shear2, a22)


def test_graph_transform_contraction_factor():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k, dk = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        blocks = _random_hypothesis_blocks(rng, k, dk)
        check_hypotheses(blocks)
        f1 = rng.normal(size=(k, dk))
        f1 /= max(1.0, np.linalg.norm(f1, 2))
        f2 = rng.normal(size=(k, dk))
        f2 /= max(1.0, np.linalg.norm(f2, 2))
        lhs = np.linalg.norm(graph_transform(blocks, f1) - graph_transform(blocks, f2), 2)
        rhs = (5.0 / 6.0) * np.linalg.norm(f1 - f2, 2)
        assert lhs <= rhs + 1e-12
        assert np.linalg.norm(graph_transform(blocks, f1), 2) <= 2.0 / 3.0 + 1e-12


def test_graph_transform_singular_block():
    blocks = BlockMap(
        np.eye(1), np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((2, 2))
    )
    with pytest.raises(SingularBlockError):
        graph_transform(blocks, np.zeros((1, 2)))


def test_graph_transform_rejects_bad_shape():
    blocks = BlockMap(
        np.diag([0.25]), np.zeros((1, 2)), np.zeros((2, 1)), np.diag([2.0, 2.0])
    )
    with pytest.raises(ValueError):
        graph_transform(blocks, np.zeros((2, 1)))


def test_hypothesis_norms_reported():
    blocks = BlockMap(
        np.diag([0.25]), np.zeros((1, 2)), np.zeros((2, 1)), np.diag([2.0, 2.0])
    )
    norms = transform_hypotheses(blocks)
    assert norms["contraction"] == pytest.approx(0.125)
    assert norms["upper_shear"] == 0.0
    assert norms["lower_shear"] == 0.0


# ---------------------------------------------------------------------------
# invariant sections over periodic orbits


def test_invariant_section_diagonal_is_zero():
    blocks = BlockMap(
        np.diag([0.25]), np.zeros((1, 2)), np.zeros((2, 1)), np.diag([2.0, 2.0])
    )
    section = invariant_section([blocks])
    assert section.sweeps == 1
    assert np.array_equal(section.sections[0], np.zeros((1, 2)))
    assert section.residual == pytest.approx(0.0, abs=1e-12)


def test_invariant_section_perturbed_diagonal():
    rep, x = z_rep(), z_point()
    sample = bg_splitting(rep, x, 1)
    perturbed_image = np.diag([4.0, 0.5, 0.5])
    perturbed_image[0, 1] += 0.01
    perturbed = Representation.of([perturbed_image])
    blocks = orbit_block_maps(perturbed, [sample])
    section = invariant_section(blocks)
    assert np.linalg.norm(section.sections[0], 2) < 0.05
    assert section.residual < 1e-10
    # the fixed graph is exactly the expanding eigenplane of the new cocycle
    assert section.sections[0][0, 0] == pytest.approx(-0.01 / 3.5, rel=1e-9)
    pushed = apply_to_subspace(
        blocks[0].matrix(), graph_subspace(section.sections[0])
    )
    assert grassmann_distance(pushed, graph_subspace(section.sections[0])) < 1e-10


def test_invariant_section_hypotheses_failure():
    rep, x = z_rep(), z_point()
    sample = bg_splitting(rep, x, 1)
    broken_image = np.diag([4.0, 0.5, 0.5])
    broken_image[0, 1] += 10.0
    with pytest.raises(HypothesesFailError) as err:
        invariant_section(orbit_block_maps(Representation.of([broken_image]), [sample]))
    assert err.value.norms["upper_shear"] > 1.0 / 3.0


def test_invariant_section_periodic_orbit():
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = axis_point(spec, "ab")
    samples = [
        bg_splitting(rep, shift(x, i), 1, certificate=cert) for i in range(2)
    ]
    blocks = orbit_block_maps(rep, samples)
    section = invariant_section(blocks)
    assert section.residual < 1e-10
    # the unperturbed cocycle already preserves the reference splitting
    assert max(np.linalg.norm(f, 2) for f in section.sections) < 1e-8


# ---------------------------------------------------------------------------
# stability probe


def test_stability_probe_certified_neighborhood():
    table = stability_probe(
        schottky_rep(), directed_ab(), 1, epsilon=1e-3, trials=5, budget=8, seed=3
    )
    assert table.counts == {"Certified": 5}
    assert table.worst_lambda_hat > 1.0
    again = stability_probe(
        schottky_rep(), directed_ab(), 1, epsilon=1e-3, trials=5, budget=8, seed=3
    )
    assert again.verdicts == table.verdicts
    assert again.worst_lambda_hat == table.worst_lambda_hat


def test_stability_probe_zero_epsilon_matches_base():
    base = certify(z_rep(), z_axis(), 1, 8)
    table = stability_probe(z_rep(), z_axis(), 1, epsilon=0.0, trials=3, budget=8)
    assert table.verdicts == ("Certified",) * 3
    assert table.worst_lambda_hat == base.lambda_hat
    assert table.worst_margins == base.margins


def test_stability_probe_needs_certified_base():
    rep = Representation.of([np.eye(2), np.eye(2)])
    with pytest.raises(NotCertifiedError):
        stability_probe(rep, directed_ab(), 1, epsilon=1e-3, trials=2, budget=8)
