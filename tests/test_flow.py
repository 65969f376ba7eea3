"""Shift cocycle, splitting extraction, graph transform, stability probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import gap_margin, singular_values
from gapcert import domination, flow, limits
from gapcert.domination import CertifyOptions, _fit_slope, certify
from gapcert.errors import (
    GapcertError,
    HypothesesFailError,
    MembershipError,
    NoConvergenceError,
    NotCertifiedError,
    OriginOffGeodesicError,
    SingularBlockError,
)
from gapcert.flow import (
    BlockMap,
    ShiftPoint,
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
    hat,
    q_plus_boundary,
)
from gapcert.words import (
    concat,
    gromov_product,
    parse_boundary_point,
    parse_word,
    periodic_point,
    translate,
)

LOG8 = math.log(8.0)
A = 0  # the letter codes of a and b
B = 2


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


def marked_at_branch(spec, forward, backward):
    """The line from backward to forward marked at its branch vertex, with
    no membership check: both ends translated by the branch vertex's
    inverse."""
    back = forward.prefix(int(gromov_product(forward, backward))).inverse()
    return ShiftPoint(spec, translate(back, forward), translate(back, backward))


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


def test_shift_point_refuses_a_line_off_the_identity():
    # a|(b) and a|(B) branch at a: the line between them is a pair of the
    # subset, but the identity is not on it
    forward, backward = parse_boundary_point("a|(b)"), parse_boundary_point("a|(B)")
    with pytest.raises(OriginOffGeodesicError, match="^the identity is not on"):
        shift_point(directed_ab(), forward, backward)
    x = marked_at_branch(directed_ab(), forward, backward)
    assert (str(x.forward), str(x.backward)) == ("(b)", "(B)")


def test_shift_moves_the_marker():
    x = axis_point(AxisFamily(2, (parse_word("ab"),)), "ab")
    assert x.forward.prefix(3) == parse_word("aba")
    assert shift(x, 2).forward.prefix(1) == parse_word("a")
    assert (str(shift(x).forward), str(shift(x).backward)) == ("(ba)", "(AB)")
    assert shift(shift(x, 1), -1) == x


@given(helpers.shift_points(), st.integers(-5, 5), st.integers(-5, 5))
def test_shifts_compose(x, s, t):
    # the marker moves at unit speed: shift(x, s) sees x's ends from the
    # vertex s, reached by the first |s| letters of the end it walks to
    assert shift(shift(x, s), t) == shift(x, s + t)
    steps = x.forward.prefix(s) if s >= 0 else x.backward.prefix(-s)
    for m in range(6):
        # from the vertex s to the vertex max(s, 0) + m
        ahead = concat(steps.inverse(), x.forward.prefix(max(s, 0) + m))
        assert len(ahead) == max(s, 0) + m - s
        assert shift(x, s).forward.prefix(m) == ahead.prefix(m)


@given(helpers.cyclically_reduced_words())
def test_a_periodic_orbit_closes(w):
    # the axis of w is the orbit of its marker: len(w) shifts either way
    # give the same point, the translates of one marked line comparing equal
    x = shift_point(FullBoundary(2), periodic_point(w), periodic_point(w.inverse()))
    assert shift(x, len(w)) == x
    assert shift(x, -len(w)) == x
    assert x.forward.prefix(len(w)) == w


@given(helpers.shift_points(), st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_cocycle_steps_along_the_forward_letters(x, n):
    # the time-(n+1) map is the time-n map followed by the inverse image
    # of the step letter: x.forward.letter_at(n), the letter between the
    # n-fold and the (n+1)-fold shift
    rep = Representation.of(
        [np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 2.0], [0.0, 1.0]])]
    )
    cores, logscales = flow._cocycle_stack(rep, x, n + 1)
    maps = [math.exp(ls) * core for core, ls in zip(cores, logscales)]
    step = maps[n] if n == 0 else maps[n] @ np.linalg.inv(maps[n - 1])
    letter = x.forward.letter_at(n)
    assert np.allclose(step, np.linalg.inv(rep.image(letter)), atol=1e-8)
    assert shift(x, n).forward.letter_at(0) == letter


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
    # the time-n maps over x are the inverse images of the prefixes of its
    # line's forward end re-based at the marker, and the maps into x from
    # shift(x, -n) are the images of the prefixes of the re-based backward
    # end, so the splitting's summands are the limit planes there.  The
    # cocycle is row n of the cocycle stack bit for bit, and the stack is
    # the one-length loop bit for bit; it is the transpose of the dual
    # images' product, so it keeps the forward word's inverse image to
    # rounding: relative error n * eps, and each margin moves by at most
    # n * eps times the ratio of the top to the (k+1)-th singular value
    eps = 2.0**-52

    start = shift_point(
        FullBoundary(2),
        parse_boundary_point("ab|(aB)"),
        parse_boundary_point("b|(AAb)"),
    )
    x = shift(start, 2)

    def forward_word(n):
        # from x's marker, two steps along start's line, n steps on
        return concat(start.forward.prefix(2).inverse(), start.forward.prefix(2 + n))

    for seed in range(6):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        rep = Representation.of([helpers.random_invertible(rng, dim) for _ in range(2)])
        cores, logscales = flow._cocycle_stack(rep, x, 40)
        for n, stacked in enumerate(helpers.forward_maps(rep, x, 40), start=1):
            assert x.forward.prefix(n) == forward_word(n)
            assert x.backward.prefix(n) == shift(x, -n).forward.prefix(n).inverse()
            assert cores[n - 1].tobytes() == stacked.core.tobytes()
            assert logscales[n - 1] == stacked.logscale
            row = cocycle(rep, x, n)
            assert row.core.tobytes() == cores[n - 1].tobytes()
            assert row.logscale == logscales[n - 1]
            expected = evaluate(rep, forward_word(n).inverse())
            moved = math.exp(stacked.logscale - expected.logscale) * stacked.core
            error = np.linalg.norm(moved - expected.core)
            assert error <= 16 * n * eps * np.linalg.norm(expected.core)
            logs = singular_values(expected)
            for k in range(1, dim):
                spread = math.exp(logs[0] - logs[k])
                drift = abs(gap_margin(stacked, k) - gap_margin(expected, k))
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
            word = x.forward.prefix(n)
            word_side = gap_margin(evaluate(rep, word), 1)
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


def test_anosov_margins_of_a_d3_orbit_grow_at_the_jordan_rates():
    # the certify-full seed-1 pair over the orbit of ab: the time-n map's
    # margins grow at half the log ratios of consecutive eigenvalue moduli
    # of rho(ab).  An SVD gap of the cocycle lost sigma_3 past ~36
    # log-units and read a k = 1 slope of -0.905 at 40 steps
    rep = helpers.pingpong_rep(1)
    x = shift_point(
        FullBoundary(2), parse_boundary_point("(ab)"), parse_boundary_point("(AB)")
    )
    moduli = sorted(np.abs(np.linalg.eigvals(rep.image(0) @ rep.image(2))))[::-1]
    for k in (1, 2):
        curve = anosov_margins(rep, FullBoundary(2), k, 40, [x])[0]
        rate = math.log(moduli[k - 1] / moduli[k]) / 2.0
        assert abs(curve.slope - rate) <= 2.0 * curve.slope_stderr
    assert round(rate, 4) == 0.9119


def test_anosov_margins_membership_gate():
    rep, spec = schottky_rep(), directed_ab()
    bad = shift_point(
        FullBoundary(2),
        periodic_point(parse_word("a")),
        periodic_point(parse_word("b")),
    )
    with pytest.raises(MembershipError):
        anosov_margins(rep, spec, 1, 6, [bad])
    past = shift_point(
        FullBoundary(3), periodic_point(parse_word("c")), periodic_point(parse_word("A"))
    )
    with pytest.raises(ValueError, match="rank 3, the representation of rank 2"):
        anosov_margins(rep, FullBoundary(3), 1, 6, [past])


# ---------------------------------------------------------------------------
# splitting extraction


def test_bg_splitting_diagonal():
    sample = bg_splitting(z_rep(), z_point(), 1)
    assert grassmann_distance(sample.stable, span([1.0, 0.0, 0.0])) < 1e-12
    assert grassmann_distance(
        sample.unstable, span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    ) < 1e-12
    checks = splitting_checks(z_rep(), sample)
    assert checks.transversality == pytest.approx(1.0, abs=1e-12)
    assert checks.invariance_stable == pytest.approx(0.0, abs=1e-12)
    assert checks.invariance_unstable == pytest.approx(0.0, abs=1e-12)
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
    # a subset of a larger free group than the representation's
    rep = schottky_rep()
    cert = certify(rep, directed_ab(), 1, 8)
    x = shift_point(
        FullBoundary(3), periodic_point(parse_word("c")), periodic_point(parse_word("A"))
    )
    with pytest.raises(ValueError, match="rank 3, the representation of rank 2"):
        bg_splitting(rep, x, 1, certificate=cert)


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


def test_splitting_checks_walk_the_endpoint_planes_up_to_n_max():
    # on the line of (aba) the ends settle at 1e-10 at length 10 and the
    # ends of its shift at length 9: at n_max 3 the checks stop at the
    # shift's extraction, at n_max 9 at the forward end's plane
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = shift(axis_point(spec, "aab"))
    assert (str(x.forward), str(x.backward)) == ("(aba)", "(ABA)")
    sample = bg_splitting(rep, x, 1, certificate=cert)
    with pytest.raises(NoConvergenceError) as caught:
        splitting_checks(rep, sample, certificate=cert, n_max=3)
    with pytest.raises(NoConvergenceError) as alone:
        bg_splitting(rep, shift(x), 1, n_max=3, certificate=cert)
    assert str(caught.value) == str(alone.value)
    with pytest.raises(NoConvergenceError) as caught:
        splitting_checks(rep, sample, certificate=cert, n_max=9)
    with pytest.raises(NoConvergenceError) as alone:
        limits.xi_upper(rep, spec, 1, x.forward, n_max=9, certificate=cert)
    assert str(caught.value) == str(alone.value)
    assert splitting_checks(rep, sample, certificate=cert, n_max=40).passed


def test_backward_planes_take_the_given_certificate(monkeypatch):
    # a budget-10 certificate rates the backward planes too: the flipped
    # subset at index d-k is never certified, at any budget
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 10)
    made = []

    def recording(rep, spec, k, budget, opts=CertifyOptions()):
        made.append((spec, k, budget))
        return certify(rep, spec, k, budget, opts)

    monkeypatch.setattr(limits, "certify", recording)
    x = axis_point(spec, "ab")
    forward, backward = x.forward, x.backward
    limits.transversality_table(rep, spec, 1, [(forward, backward)], certificate=cert)
    seed = span([1.0, 0.3])
    limits.sdp_check(rep, spec, 1, forward, backward, seed, certificate=cert)
    splitting_checks(rep, bg_splitting(rep, x, 1, certificate=cert), certificate=cert)
    assert made == []


def test_splitting_checks_extract_the_shift_within_n_max():
    # diag(1.2, 1/1.2) and its conjugate by a 0.9 rad rotation are dominated
    # so slowly that the splitting settles past 80 steps: the checks
    # extract the shifted point's splitting within their own n_max
    theta = 0.9
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    a = np.diag([1.2, 1.0 / 1.2])
    rep, spec = Representation.of([a, rot @ a @ rot.T]), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = axis_point(spec, "ab")
    with pytest.raises(NoConvergenceError, match="within 80 steps"):
        bg_splitting(rep, shift(x), 1, n_max=80, certificate=cert)
    sample = bg_splitting(rep, x, 1, n_max=300, certificate=cert)
    with pytest.raises(NoConvergenceError, match="within 80 steps"):
        splitting_checks(rep, sample, certificate=cert, n_max=80)
    assert splitting_checks(rep, sample, certificate=cert, n_max=300).passed


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
    corrupted = sample._replace(stable=Subspace(1, rot @ sample.stable.frame))
    report = splitting_checks(rep, corrupted)
    assert not report.passed
    assert report.invariance_stable > 0.1


def splitting_outcome(rep, x, k, n_max, tol, rate):
    try:
        return helpers.reference_splitting(rep, x, k, n_max, tol, rate)
    except GapcertError as exc:
        return exc


def read_splitting(rep, x, k, n_max, tol, rate):
    """flow._splitting's outcome: the sample, or the error it raises."""
    try:
        return flow._splitting(rep, x, k, n_max, tol, rate)
    except NoConvergenceError as exc:
        return exc


def assert_same_splitting(got, want):
    if isinstance(want, GapcertError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    stable, unstable = want
    assert np.array_equal(got.stable.frame, stable.subspace.frame)
    assert np.array_equal(got.unstable.frame, unstable.subspace.frame)
    assert got.iterations == max(stable.iterations, unstable.iterations)
    assert (got.last_step_stable, got.last_step_unstable) == (
        stable.last_step,
        unstable.last_step,
    )
    skipped = {*stable.skipped_prefixes, *unstable.skipped_prefixes}
    assert list(got.skipped_lengths) == sorted(skipped)


def table_key(rep, k, point):
    return (rep.rank, rep.dim, rep.stacked_images.tobytes(), point, k)


def walked_planes():
    """The (point, index) of every walk in the table, sorted."""
    return sorted((key[3:] for key in limits._WALKS), key=str)


def plane_outcome(rep, k, point, rate, tol, n_max):
    try:
        return helpers.reference_xi_upper(rep, k, point, rate, tol, n_max)
    except GapcertError as exc:
        return exc


def chunk_end(stop):
    """The length a walk reaches to read a stop: the end of its chunk."""
    return -(-stop // limits._WALK_CHUNK) * limits._WALK_CHUNK


@given(
    helpers.reps_and_subsets(),
    st.floats(0.05, 3.0),
    helpers.walk_reads(caps=(3, 6, 40, 80)),
)
@settings(max_examples=30, deadline=None)
def test_one_pass_splitting_settles_each_tolerance_as_walked_alone(case, rate, reads):
    # the table's walks of each line's two ends, read at every (tolerance,
    # cap) in turn, against each read walked alone by the one-point loop;
    # 3 and 6 prefixes are too few for most lines, so NoConvergenceError is
    # common
    rep, spec = case
    forward = sorted(q_plus_boundary(spec, 3), key=str)[:3]
    backward = sorted(q_plus_boundary(hat(spec), 3), key=str)[-2:]
    points = [
        marked_at_branch(spec, x, y) for x in forward for y in backward if x != y
    ]
    for k in range(1, rep.dim):
        for x in points:
            ends = list(zip((x.forward, x.backward), (k, rep.dim - k)))
            needs = {end: [] for end in ends}
            limits._WALKS.clear()
            for tol, n_max in reads:
                want = splitting_outcome(rep, x, k, n_max, tol, rate)
                got = read_splitting(rep, x, k, n_max, tol, rate)
                assert_same_splitting(got, want)
                # the backward end is read only once the forward end settles
                for point, index in ends:
                    plane = plane_outcome(rep, index, point, rate, tol, n_max)
                    done = isinstance(plane, GapcertError)
                    need = n_max if done else plane.iterations
                    needs[point, index].append((need, n_max))
                    if done:
                        break
            for (point, index), need in needs.items():
                walk = limits._WALKS.get(table_key(rep, index, point))
                if not need:
                    assert walk is None
                    continue
                assert walk.length == helpers.walked_length(need, limits._WALK_CHUNK)


def splitting_lines(spec):
    pairs = (("b|(ab)", "(BA)"), ("(a)", "(B)"), ("ab|(b)", "A|(BA)"))
    return [
        shift_point(spec, parse_boundary_point(x), parse_boundary_point(y))
        for x, y in pairs
    ]


def test_splitting_stops_on_both_sides_of_a_chunk_edge(monkeypatch):
    # chunks of C lengths with a summand's stop at C - 1, C and C + 1, and
    # step counts that are not multiples of C, against the one-point loop,
    # read from the table's walks resumed past the edge
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    edges, kinds = set(), set()
    for x in splitting_lines(spec):
        for tol in (1e-8, 1e-10):
            summands = helpers.reference_splitting(rep, x, 1, 80, tol, rate)
            for stop in {value.iterations for value in summands}:
                for chunk in (stop + 1, stop, stop - 1):
                    monkeypatch.setattr(limits, "_WALK_CHUNK", chunk)
                    edges.add(stop - chunk)
                    for n_max in (80, stop - 1, chunk + 1, 2 * chunk + 3):
                        limits._WALKS.clear()
                        for t in (1e-6, tol):
                            got = read_splitting(rep, x, 1, n_max, t, rate)
                            want = splitting_outcome(rep, x, 1, n_max, t, rate)
                            assert_same_splitting(got, want)
                            kinds.add(type(got).__name__)
    assert edges == {-1, 0, 1}
    assert kinds == {"SplittingSample", "NoConvergenceError"}
    # a gapless length after the stop, in the stop's chunk, is not skipped
    rep = example_56_rep()
    detour = parse_boundary_point("a" * 25 + "b|(a)")
    x = shift_point(FullBoundary(2), detour, parse_boundary_point("(A)"))
    assert gap_margin(cocycle(rep, x, 51), 1) == 0.0
    monkeypatch.setattr(limits, "_WALK_CHUNK", 64)
    got = read_splitting(rep, x, 1, 80, 1e-10, 1.0)
    assert got.iterations < 51
    assert_same_splitting(got, splitting_outcome(rep, x, 1, 80, 1e-10, 1.0))


@pytest.mark.parametrize(
    "error", [FloatingPointError("overflow"), np.linalg.LinAlgError("no SVD")]
)
def test_a_splitting_chunk_that_fails_past_the_stop_is_rewalked(monkeypatch, error):
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    x = splitting_lines(spec)[0]
    want = splitting_outcome(rep, x, 1, 80, 1e-10, rate)
    stop = want[0].iterations
    monkeypatch.setattr(limits, "_WALK_CHUNK", stop + 2)
    # the backward end is read first, so only the forward end walks below
    limits._plane(rep, 1, x.backward, rate, 1e-10, 80)
    calls = []
    original = domination._running_products_into

    def failing_at(at):
        def products(cores, logscales, factors, *rest):
            done = sum(calls)
            if done < at <= done + len(factors):
                raise error
            calls.append(len(factors))
            return original(cores, logscales, factors, *rest)

        return products

    monkeypatch.setattr(domination, "_running_products_into", failing_at(stop + 1))
    assert_same_splitting(read_splitting(rep, x, 1, 80, 1e-10, rate), want)
    assert calls == [1] * stop
    calls.clear()
    limits._WALKS.clear()
    monkeypatch.setattr(domination, "_running_products_into", failing_at(stop))
    with pytest.raises(type(error)):
        read_splitting(rep, x, 1, 80, 1e-10, rate)
    assert calls == [1] * (stop - 1)
    # a walk that cannot settle reports its last steps as the loop does,
    # from the lengths the failed read kept
    monkeypatch.setattr(domination, "_running_products_into", original)
    short = read_splitting(rep, x, 1, stop - 1, 1e-10, rate)
    assert isinstance(short, NoConvergenceError)
    assert str(short) == str(splitting_outcome(rep, x, 1, stop - 1, 1e-10, rate))


def test_shared_walks_extract_each_splitting_once():
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = shift_point(
        spec, parse_boundary_point("b|(ab)"), parse_boundary_point("(BA)")
    )
    sample = bg_splitting(rep, x, 1, n_max=60, tol=1e-8, certificate=cert)
    checks = splitting_checks(rep, sample, certificate=cert, n_max=60)
    # the ends of the point and of its shift, each walked once within 60
    # prefixes: the point's at 1e-8 for bg_splitting and at 1e-10 for the
    # endpoint residuals, the shift's only by the checks, at 1e-10; each
    # walk to the chunk of its 1e-10 stop
    ends = [x.forward, x.backward, shift(x).forward, shift(x).backward]
    assert walked_planes() == sorted(((point, 1) for point in ends), key=str)
    for point in ends:
        stop = helpers.reference_xi_upper(rep, 1, point, cert.lambda_hat, 1e-10, 60)
        walk = limits._WALKS[table_key(rep, 1, point)]
        assert walk.length == chunk_end(stop.iterations)
    # a second extraction reads the kept values; fresh walks give the bits
    again = bg_splitting(rep, x, 1, n_max=60, tol=1e-8, certificate=cert)
    assert again.stable is sample.stable and again.unstable is sample.unstable
    limits._WALKS.clear()
    alone = bg_splitting(rep, x, 1, n_max=60, tol=1e-8, certificate=cert)
    checks_alone = splitting_checks(rep, alone, certificate=cert, n_max=60)
    assert np.array_equal(sample.stable.frame, alone.stable.frame)
    assert np.array_equal(sample.unstable.frame, alone.unstable.frame)
    assert tuple(checks) == tuple(checks_alone)
    assert (sample.iterations, sample.skipped_lengths) == (
        alone.iterations,
        alone.skipped_lengths,
    )


def test_bg_splitting_walks_only_its_own_point():
    # bg_splitting walks the two ends of its point; the checks add
    # the two of the shift they compare against, and read the endpoint
    # planes from the point's own walks
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = axis_point(spec, "ab")
    sample = bg_splitting(rep, x, 1, certificate=cert)
    ends = [x.forward, x.backward]
    assert walked_planes() == sorted(((point, 1) for point in ends), key=str)
    splitting_checks(rep, sample, certificate=cert)
    ends += [shift(x).forward, shift(x).backward]
    assert walked_planes() == sorted(((point, 1) for point in ends), key=str)


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
    # the fixed graph is exactly the expanding eigenplane of the new cocycle,
    # span{(-0.01 / 3.5, 1, 0), e3}; a section's entries depend on the
    # unstable frame's basis, its graph plane does not
    frame = np.hstack([sample.stable.frame, sample.unstable.frame])
    graph = Subspace.from_spanning(frame @ graph_subspace(section.sections[0]).frame)
    expanding = Subspace.from_spanning(np.array([[-0.01 / 3.5, 0], [1, 0], [0, 1]]))
    assert grassmann_distance(graph, expanding) <= 1e-9 * 0.01 / 3.5
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


def test_orbit_block_maps_need_the_samples_in_orbit_order():
    # over the orbit of aab, samples 1 and 2 swapped put the fibre over
    # shift(x, 2) after the one over x: no block map joins them
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = axis_point(spec, "aab")
    samples = [
        bg_splitting(rep, shift(x, i), 1, certificate=cert) for i in range(3)
    ]
    assert shift(x, 3) == x
    assert invariant_section(orbit_block_maps(rep, samples)).residual < 1e-10
    swapped = [samples[0], samples[2], samples[1]]
    with pytest.raises(ValueError, match="do not form a periodic orbit"):
        orbit_block_maps(rep, swapped)
    # an orbit that does not close after the last sample
    with pytest.raises(ValueError, match="do not form a periodic orbit"):
        orbit_block_maps(rep, samples[:2])


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


def pingpong_rep():
    """Two GL(3) stretches whose frames sit 45 degrees apart in the
    (e1, e3)-plane: a ping-pong pair for k = 1."""
    c = math.cos(math.pi / 4)
    rot = np.array([[c, 0.0, -c], [0.0, 1.0, 0.0], [c, 0.0, c]])
    stretch = np.diag([6.0, 1.0, 0.25])
    return Representation.of([stretch, rot @ stretch @ rot.T])


def perturbed(rep, epsilon, seed, trial):
    """A trial's representation: every generator image moved entrywise by
    uniforms in [-epsilon, epsilon] drawn from the trial's own seed."""
    rng = np.random.default_rng((seed, trial))
    return Representation.of(
        [
            rep.image(2 * i) + rng.uniform(-epsilon, epsilon, (rep.dim, rep.dim))
            for i in range(rep.rank)
        ]
    )


def spy_probe(monkeypatch):
    """Record the certificates the stability probe's certify_each calls
    make, in order, and the number of representations of every stacked
    _margin_tables walk."""
    made, stacks = [], []
    certify_each, margin_tables = flow.certify_each, domination._margin_tables

    def spy(reps, sample, k, opts):
        certs = certify_each(reps, sample, k, opts)
        made.extend(certs)
        return certs

    def spy_tables(reps, sample, k):
        stacks.append(len(reps))
        return margin_tables(reps, sample, k)

    monkeypatch.setattr(flow, "certify_each", spy)
    monkeypatch.setattr(domination, "_margin_tables", spy_tables)
    return made, stacks


def assert_each_its_own_certify(table, certs, rep, spec, budget, references=None):
    """The base and every trial (seed 5, epsilon 1e-3) have the bits of
    their own certify calls, and the table reads the trials."""
    base, *trials = certs
    if references is None:
        references = [certify(rep, spec, 1, budget)] + [
            certify(perturbed(rep, 1e-3, 5, trial), spec, 1, budget)
            for trial in range(len(trials))
        ]
    assert certs == references
    assert table.verdicts == tuple(cert.verdict for cert in trials)
    worst = min(trials, key=lambda cert: cert.lambda_hat)
    assert table.worst_lambda_hat == worst.lambda_hat
    assert table.worst_margins == worst.margins


@pytest.mark.parametrize(
    "rep, spec, budget, trials, stacks",
    [
        (schottky_rep(), directed_ab(), 10, 7, [8]),
        (schottky_rep(), FullBoundary(2), 8, 3, [4]),
        (pingpong_rep(), FullBoundary(2), 6, 6, [7]),
        # a kept level of 8,748 words: 4 * STACK_ROWS products hold one
        (schottky_rep(), FullBoundary(2), 9, 2, [1, 1, 1]),
    ],
    ids=["directed-10", "full-8", "pingpong-full-6", "full-9"],
)
def test_stacked_probe_certifies_each_trial_as_its_own_certify(
    monkeypatch, rep, spec, budget, trials, stacks
):
    # the base is stacked with its trials, in groups bounded by the level
    # _margin_tables keeps between lengths
    made, walked = spy_probe(monkeypatch)
    table = stability_probe(rep, spec, 1, 1e-3, trials, budget, seed=5)
    assert walked == stacks
    assert len(made) == trials + 1
    assert_each_its_own_certify(table, made, rep, spec, budget)


def test_benchmark_probe_walks_its_levels_once(monkeypatch):
    # the stability-directed benchmark's probe: 20 trials at budget 10, whose
    # largest kept level is 512 words, make one walk of 21 representations
    made, walked = spy_probe(monkeypatch)
    table = stability_probe(schottky_rep(), directed_ab(), 1, 1e-3, 20, 10, seed=5)
    assert walked == [21]
    assert_each_its_own_certify(table, made, schottky_rep(), directed_ab(), 10)


def test_probe_groups_respect_the_kept_level_bound(monkeypatch):
    # with 96 rows a block, a stack may keep 4 * 96 = 384 products: the
    # budget-8 levels keep at most 128 words, so 3 representations a group
    references = [certify(schottky_rep(), directed_ab(), 1, 8)] + [
        certify(perturbed(schottky_rep(), 1e-3, 5, trial), directed_ab(), 1, 8)
        for trial in range(9)
    ]
    monkeypatch.setattr(domination, "STACK_ROWS", 96)
    made, walked = spy_probe(monkeypatch)
    table = stability_probe(schottky_rep(), directed_ab(), 1, 1e-3, 9, 8, seed=5)
    assert walked == [3, 3, 3, 1]
    assert max(walked) * 128 <= 4 * domination.STACK_ROWS
    assert_each_its_own_certify(
        table, made, schottky_rep(), directed_ab(), 8, references
    )


def test_stability_probe_checks_the_base_before_drawing_trials():
    # an infinite epsilon makes every trial's draw fail; the base's verdict
    # is still what the probe reports first
    rep = Representation.of([np.eye(2), np.eye(2)])
    with pytest.raises(NotCertifiedError):
        stability_probe(rep, directed_ab(), 1, math.inf, 2, 8)
    with pytest.raises(OverflowError):
        stability_probe(schottky_rep(), directed_ab(), 1, math.inf, 2, 8)


def test_uncertified_base_fails_after_its_first_group(monkeypatch):
    # 2,000 trials over Directed{a,b} at budget 10 make groups of 32: an
    # identity base is not Certified, so the probe stops after one walk,
    # having drawn 31 trials
    draws = []
    perturbed = flow._perturbed

    def counted(rep, epsilon, seed, trial):
        draws.append(trial)
        return perturbed(rep, epsilon, seed, trial)

    monkeypatch.setattr(flow, "_perturbed", counted)
    made, walked = spy_probe(monkeypatch)
    rep = Representation.of([np.eye(2), np.eye(2)])
    with pytest.raises(NotCertifiedError):
        stability_probe(rep, directed_ab(), 1, 1e-3, 2000, 10)
    assert walked == [32]
    assert draws == list(range(31))
    assert made[0].verdict != "Certified"


def test_stability_probe_honours_the_certify_options():
    strict = CertifyOptions(lambda_min=3.0)  # the rate is about 2.6
    with pytest.raises(NotCertifiedError, match="Inconclusive"):
        stability_probe(schottky_rep(), directed_ab(), 1, 1e-3, 2, 8, opts=strict)
