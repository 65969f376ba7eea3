"""Limit planes, transversality, convergence checks and regularity fits."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gapcert import limits
from gapcert.domination import certify
from gapcert.errors import (
    GapcertError,
    InsufficientSampleError,
    MembershipError,
    NoConvergenceError,
    NoGapError,
    NonTransverseSeedError,
    NotCertifiedError,
    ScaleOverflowError,
)
from gapcert.limits import (
    cartan_check,
    cauchy_constant,
    discontinuity_probe,
    holder_estimate,
    pair_in_subset,
    point_in_forward_set,
    sdp_check,
    transversality_table,
    xi_lower,
    xi_upper,
)
from gapcert.linalg import (
    Representation,
    Subspace,
    apply_to_subspace,
    evaluate,
    grassmann_distance,
    u_k,
)
from gapcert.subsets import AxisFamily, Directed, gamma_p_plus, hat, q_plus_boundary
from gapcert.words import (
    Letter,
    parse_boundary_point,
    parse_word,
    periodic_point,
    translate,
)

LOG8 = math.log(8.0)
A = Letter(1, 1)
B = Letter(2, 1)


def z_rep():
    return Representation.of([np.diag([4.0, 0.5, 0.5])])


def z_axis():
    return AxisFamily(1, (parse_word("a"),))


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


def a_axis_f2():
    return AxisFamily(2, (parse_word("a"),))


def directed_ab():
    return Directed(2, frozenset({A, B}))


def span(*columns):
    return Subspace.from_spanning(np.array(columns, dtype=float).T)


E1_3 = span([1.0, 0.0, 0.0])
E23 = span([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
E1_2 = span([1.0, 0.0])
E2_2 = span([0.0, 1.0])


# ---------------------------------------------------------------------------
# membership predicates


def test_point_membership():
    axis = a_axis_f2()
    assert point_in_forward_set(axis, periodic_point(parse_word("a")))
    assert point_in_forward_set(axis, parse_boundary_point("bb|(a)"))
    assert not point_in_forward_set(axis, periodic_point(parse_word("b")))
    assert not point_in_forward_set(axis, periodic_point(parse_word("A")))
    directed = directed_ab()
    assert point_in_forward_set(directed, parse_boundary_point("B|(ab)"))
    assert not point_in_forward_set(directed, parse_boundary_point("(aB)"))


def test_pair_membership_axis():
    axis = AxisFamily(2, (parse_word("ab"),))
    x, y = periodic_point(parse_word("ab")), periodic_point(parse_word("BA"))
    assert pair_in_subset(axis, x, y)
    g = parse_word("ba")
    assert pair_in_subset(axis, translate(g, x), translate(g, y))
    # endpoints of different parallel-looking lines are not a subset pair
    assert not pair_in_subset(axis, x, periodic_point(parse_word("AB")))
    # a detoured forward endpoint breaks the pure periodicity of the pair
    assert not pair_in_subset(axis, parse_boundary_point("b|(ab)"), y)
    assert not pair_in_subset(axis, x, x)


def test_pair_membership_directed():
    directed = directed_ab()
    assert pair_in_subset(
        directed, periodic_point(parse_word("ab")), periodic_point(parse_word("BA"))
    )
    # directed lines may switch step letters across the junction
    assert pair_in_subset(
        directed, periodic_point(parse_word("a")), periodic_point(parse_word("B"))
    )
    assert not pair_in_subset(
        directed, periodic_point(parse_word("a")), periodic_point(parse_word("b"))
    )


# ---------------------------------------------------------------------------
# limit map values


def test_xi_rank_one_exact():
    rep, axis = z_rep(), z_axis()
    up = xi_upper(rep, axis, 1, periodic_point(parse_word("a")))
    assert grassmann_distance(up.subspace, E1_3) < 1e-12
    assert up.last_step <= 1e-10
    assert up.subspace.dimension == 1
    assert up.cauchy_bound >= 0.0
    down = xi_lower(rep, axis, 1, periodic_point(parse_word("A")))
    assert down.subspace.dimension == 2
    assert grassmann_distance(down.subspace, E23) < 1e-12


def test_xi_lower_is_xi_upper_on_flipped_subset():
    rep, axis = z_rep(), z_axis()
    y = periodic_point(parse_word("A"))
    via_lower = xi_lower(rep, axis, 1, y)
    via_upper = xi_upper(rep, hat(axis), 2, y)
    assert np.array_equal(via_lower.subspace.frame, via_upper.subspace.frame)
    assert via_lower.iterations == via_upper.iterations


def test_xi_detour_family_values():
    rep, axis = example_56_rep(), a_axis_f2()
    cert = certify(rep, axis, 1, 8)
    base = xi_upper(rep, axis, 1, periodic_point(parse_word("a")), certificate=cert)
    assert grassmann_distance(base.subspace, E1_2) < 1e-12
    for m in (1, 2, 3, 5):
        x = parse_boundary_point("a" * m + "b|(a)")
        value = xi_upper(rep, axis, 1, x, certificate=cert)
        assert grassmann_distance(value.subspace, E2_2) < 1e-8
        # the prefix ending exactly at the rotation letter has no gap
        assert 2 * m + 1 in value.skipped_prefixes


def test_xi_membership_and_certificate_gates():
    rep, axis = example_56_rep(), a_axis_f2()
    with pytest.raises(MembershipError):
        xi_upper(rep, axis, 1, periodic_point(parse_word("b")))
    with pytest.raises(MembershipError):
        xi_lower(z_rep(), z_axis(), 1, periodic_point(parse_word("a")))
    identity_rep = Representation.of([np.eye(2), np.eye(2)])
    with pytest.raises(NotCertifiedError):
        xi_upper(identity_rep, a_axis_f2(), 1, periodic_point(parse_word("a")))


def test_xi_no_usable_gap_reports_prefix():
    rep, axis = example_56_rep(), a_axis_f2()
    # rotations never develop a gap; bypass membership to exercise the error
    with pytest.raises(NoGapError) as err:
        xi_upper(
            rep, axis, 1, periodic_point(parse_word("b")),
            n_max=20, assume_member=True,
        )
    assert "b" in str(err.value)


def test_xi_refuses_premature_convergence():
    rep, axis = z_rep(), z_axis()
    with pytest.raises(NoConvergenceError) as err:
        xi_upper(rep, axis, 1, periodic_point(parse_word("a")), n_max=3)
    assert "tail bound" in str(err.value)


def test_xi_periodic_points_match_eigenspace_oracle():
    rep, directed = schottky_rep(), directed_ab()
    cert = certify(rep, directed, 1, 8)
    for text in ("a", "b", "ab", "ba", "aab", "abb", "aabb"):
        w = parse_word(text)
        value = xi_upper(rep, directed, 1, periodic_point(w), certificate=cert)
        oracle = helpers.top_eigenspace(evaluate(rep, w).matrix(), 1)
        assert grassmann_distance(value.subspace, Subspace(1, oracle)) < 1e-6


def test_xi_equivariance():
    rep, directed = schottky_rep(), directed_ab()
    cert = certify(rep, directed, 1, 8)
    points = [periodic_point(parse_word(t)) for t in ("a", "ab", "ba", "aab")]
    for g_text in ("a", "B", "ab", "bA", "aba"):
        g = parse_word(g_text)
        rho_g = evaluate(rep, g).core
        for x in points:
            moved = xi_upper(rep, directed, 1, translate(g, x), certificate=cert)
            pushed = Subspace.from_spanning(
                rho_g
                @ xi_upper(rep, directed, 1, x, certificate=cert).subspace.frame
            )
            assert grassmann_distance(moved.subspace, pushed) < 1e-8


def test_xi_cauchy_rate_invariant():
    rep, directed = schottky_rep(), directed_ab()
    cert = certify(rep, directed, 1, 8)
    prefactor = cauchy_constant(rep, cert)
    x = periodic_point(parse_word("ab"))
    planes = {}
    current = None
    for n in range(1, 13):
        word = x.prefix(n)
        matrix = evaluate(rep, word)
        planes[n] = u_k(matrix, 1)
    for n in range(1, 12):
        step = grassmann_distance(planes[n], planes[n + 1])
        bound = prefactor * math.exp(-cert.lambda_hat * n)
        assert step <= bound * (1.0 + 1e-6) + 1e-15


# ---------------------------------------------------------------------------
# transversality


def test_transversality_diagonal_pairs():
    table = transversality_table(
        z_rep(),
        z_axis(),
        1,
        [(periodic_point(parse_word("a")), periodic_point(parse_word("A")))],
    )
    assert table.minimum == pytest.approx(1.0, abs=1e-12)

    table56 = transversality_table(
        example_56_rep(),
        a_axis_f2(),
        1,
        [(periodic_point(parse_word("a")), periodic_point(parse_word("A")))],
    )
    assert table56.minimum == pytest.approx(1.0, abs=1e-12)


def test_transversality_schottky_sample():
    rep, directed = schottky_rep(), directed_ab()
    pairs = []
    seen = set()
    for w in gamma_p_plus(directed, 5).words():
        x = periodic_point(w)
        y = periodic_point(w.inverse())
        if (x, y) in seen:
            continue
        seen.add((x, y))
        pairs.append((x, y))
        if len(pairs) == 20:
            break
    assert len(pairs) == 20
    table = transversality_table(rep, directed, 1, pairs)
    assert len(table.gaps) == 20
    assert table.minimum == min(table.gaps)
    assert all(g > 0.05 for g in table.gaps)


def test_transversality_rejects_non_member_pair():
    with pytest.raises(MembershipError):
        transversality_table(
            example_56_rep(),
            a_axis_f2(),
            1,
            [(periodic_point(parse_word("a")), periodic_point(parse_word("B")))],
        )


# ---------------------------------------------------------------------------
# seed-plane convergence


def test_sdp_rank_one_closed_form():
    rep, axis = z_rep(), z_axis()
    x, y = periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    seed = span([1.0, 1.0, 0.0])
    curve = sdp_check(rep, axis, 1, x, y, seed, n_points=16)
    assert curve.passed and curve.final < 1e-8
    for n in range(1, 13):
        moved = np.diag([4.0**n, 0.5**n, 0.5**n]) @ np.array([1.0, 1.0, 0.0])
        oracle = grassmann_distance(
            Subspace.from_spanning(moved.reshape(3, 1)), E1_3
        )
        assert curve.distances[n - 1] == pytest.approx(oracle, abs=1e-12)
        closed_form = 8.0**-n / math.sqrt(1.0 + 64.0**-n)
        assert curve.distances[n - 1] == pytest.approx(closed_form, rel=1e-9)


def test_sdp_nontransverse_seed_rejected():
    rep, axis = z_rep(), z_axis()
    x, y = periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    with pytest.raises(NonTransverseSeedError):
        sdp_check(rep, axis, 1, x, y, span([0.0, 1.0, 0.0]))


def test_sdp_detour_representation():
    rep, axis = example_56_rep(), a_axis_f2()
    x, y = periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    curve = sdp_check(rep, axis, 1, x, y, span([1.0, 1.0]), n_points=20)
    assert curve.passed and curve.final < 1e-8
    for n in range(1, 13):
        moved = np.diag([2.0**n, 0.5**n]) @ np.array([1.0, 1.0])
        oracle = grassmann_distance(
            Subspace.from_spanning(moved.reshape(2, 1)), E1_2
        )
        assert curve.distances[n - 1] == pytest.approx(oracle, abs=1e-12)


def test_sdp_demands_schedule_when_line_misses_identity():
    rep, axis = example_56_rep(), a_axis_f2()
    g = parse_word("b")
    x = translate(g, periodic_point(parse_word("a")))
    y = translate(g, periodic_point(parse_word("A")))
    seed = span([1.0, 1.0])
    with pytest.raises(MembershipError):
        sdp_check(rep, axis, 1, x, y, seed)
    schedule = [x.prefix(n) for n in range(1, 21)]
    curve = sdp_check(rep, axis, 1, x, y, seed, schedule=schedule)
    assert curve.passed


def test_sdp_default_schedule_is_the_explicit_prefix_schedule():
    # both match, bit for bit, one apply_to_subspace and one
    # grassmann_distance per evaluated schedule word
    wide = Representation.of([np.diag([4.0, 2.0, 0.25])])
    cases = [
        (schottky_rep(), directed_ab(), 1, "(ab)", "(BA)", span([1.0, 0.3])),
        (schottky_rep(), directed_ab(), 1, "ab|(a)", "(B)", span([1.0, 0.3])),
        (schottky_rep(), directed_ab(), 1, "(aab)", "(BAA)", span([0.2, 1.0])),
        (z_rep(), z_axis(), 1, "(a)", "(A)", span([1.0, 1.0, 0.0])),
        (wide, z_axis(), 2, "(a)", "(A)", span([1.0, 1.0, 1.0], [0.0, 1.0, -1.0])),
    ]
    for rep, spec, k, forward, backward, seed in cases:
        x, y = parse_boundary_point(forward), parse_boundary_point(backward)
        default = sdp_check(rep, spec, k, x, y, seed, n_points=25)
        schedule = [x.prefix(n) for n in range(1, 26)]
        explicit = sdp_check(rep, spec, k, x, y, seed, schedule=schedule)
        assert default == explicit
        target = xi_upper(rep, spec, k, x).subspace
        assert default.distances == tuple(
            grassmann_distance(apply_to_subspace(evaluate(rep, g).core, seed), target)
            for g in schedule
        )


# ---------------------------------------------------------------------------
# attraction along verified positive words


def test_cartan_identically_zero_on_axis_powers():
    rep, axis = example_56_rep(), a_axis_f2()
    words = [parse_word("a" * n) for n in range(1, 9)]
    curve = cartan_check(rep, axis, 1, periodic_point(parse_word("a")), words)
    assert curve.passed
    assert all(d == pytest.approx(0.0, abs=1e-12) for d in curve.distances)


def test_cartan_refuses_unwitnessed_detours():
    rep, axis = example_56_rep(), a_axis_f2()
    words = [parse_word("a" * n + "b") for n in range(2, 6)]
    x = periodic_point(parse_word("a"))
    for b in (0, 2):
        with pytest.raises(MembershipError):
            cartan_check(rep, axis, 1, x, words, b=b)


def test_cartan_accepts_shifted_words():
    rep, axis = example_56_rep(), a_axis_f2()
    words = [parse_word("B" + "a" * n) for n in range(1, 7)]
    x = parse_boundary_point("B|(a)")
    with pytest.raises(MembershipError):
        cartan_check(rep, axis, 1, x, words, b=0)
    curve = cartan_check(rep, axis, 1, x, words, b=1)
    assert curve.passed and curve.final < 1e-8


def test_cartan_decays_on_schottky_prefixes():
    rep, directed = schottky_rep(), directed_ab()
    x = periodic_point(parse_word("ab"))
    words = [x.prefix(n) for n in range(1, 11)]
    curve = cartan_check(rep, directed, 1, x, words)
    assert curve.passed
    assert curve.distances[-1] < curve.distances[0]


# ---------------------------------------------------------------------------
# regularity estimate


def test_holder_schottky_positive_exponent():
    rep, directed = schottky_rep(), directed_ab()
    fit = holder_estimate(rep, directed, 1, b=0, kappa=1.0, sample_size=200, seed=7)
    assert fit.alpha_hat > 0.0
    assert fit.r_squared >= 0.8
    assert fit.pairs_used >= 10
    again = holder_estimate(rep, directed, 1, b=0, kappa=1.0, sample_size=200, seed=7)
    assert again.alpha_hat == fit.alpha_hat and again.pairs_used == fit.pairs_used


def test_holder_insufficient_samples():
    with pytest.raises(InsufficientSampleError):
        holder_estimate(z_rep(), z_axis(), 1)
    wide = AxisFamily(2, (parse_word("a"), parse_word("b")))
    # the only periodic endpoints sit at unit visual distance: no small scales
    with pytest.raises(InsufficientSampleError):
        holder_estimate(schottky_rep(), wide, 1, cert_budget=6)


# ---------------------------------------------------------------------------
# discontinuity probe


def test_discontinuity_probe_separates():
    probe = discontinuity_probe(example_56_rep(), exponents=range(1, 11))
    assert probe.separated
    for i, m in enumerate(probe.exponents):
        assert probe.visual[i] == pytest.approx(math.exp(-m), abs=0.0)
        assert probe.separations[i] == pytest.approx(1.0, abs=1e-12)
    assert probe.exponents[2] == 3 and probe.visual[2] == pytest.approx(math.exp(-3))


def test_discontinuity_probe_collapses_with_trivial_detour():
    rep = Representation.of([np.diag([2.0, 0.5]), np.eye(2)])
    probe = discontinuity_probe(rep, exponents=range(1, 8))
    assert not probe.separated
    assert all(s < 1e-10 for s in probe.separations)


def test_discontinuity_probe_needs_two_generators():
    with pytest.raises(ValueError):
        discontinuity_probe(z_rep())


# ---------------------------------------------------------------------------
# the lockstep walk against the one-point loop


def walk_outcome(rep, k, x, rate, tol, n_max):
    try:
        return helpers.reference_xi_upper(rep, k, x, rate, tol, n_max)
    except GapcertError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, GapcertError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.point == want.point
    assert np.array_equal(got.subspace.frame, want.subspace.frame)
    assert got.iterations == want.iterations
    assert got.last_step == want.last_step
    assert got.cauchy_bound == want.cauchy_bound
    assert got.skipped_prefixes == want.skipped_prefixes


@given(
    helpers.reps_and_subsets(),
    st.floats(0.05, 3.0),
    helpers.tolerance_sets(),
    st.sampled_from((6, 40, 400)),
)
@settings(max_examples=40, deadline=None)
def test_walk_matches_the_one_point_loop(case, rate, tols, n_max):
    # many points and tolerances in one pass against each point and each
    # tolerance alone; n_max 6 is too short for most points
    rep, spec = case
    points = sorted(q_plus_boundary(spec, 3), key=str)[:12]
    for k in range(1, rep.dim):
        together = limits._limit_walk(rep, k, points, rate, tols, n_max)
        for x, got in zip(points, together):
            assert len(got) == len(tols)
            for tol, outcome in zip(tols, got):
                want = walk_outcome(rep, k, x, rate, tol, n_max)
                assert_same_outcome(outcome, want)
                ((alone,),) = limits._limit_walk(rep, k, [x], rate, (tol,), n_max)
                assert_same_outcome(alone, want)


def test_walk_covers_gapless_prefixes_and_both_failures():
    # the rotation's prefixes have no gap; a short walk cannot converge
    rep, axis = example_56_rep(), a_axis_f2()
    points = [parse_boundary_point(s) for s in ("b|(a)", "bb|(a)", "(a)", "ab|(a)")]
    rotation = Representation.of([np.array([[0.0, 1.0], [-1.0, 0.0]])])
    cases = (
        (rep, points, 400),
        (rep, points, 3),
        (rotation, [periodic_point(parse_word("a"))], 5),
    )
    kinds = set()
    for r, pts, n_max in cases:
        walked = limits._limit_walk(r, 1, pts, 1.0, (1e-10,), n_max)
        for x, (got,) in zip(pts, walked):
            want = walk_outcome(r, 1, x, 1.0, 1e-10, n_max)
            assert_same_outcome(got, want)
            kinds.add(type(got).__name__)
            if not isinstance(got, GapcertError) and got.skipped_prefixes:
                kinds.add("skipped")
    assert kinds == {"LimitMapValue", "skipped", "NoConvergenceError", "NoGapError"}


def limit_reads(*tols, n_max=limits.DEFAULT_N_MAX):
    return [(limits.LIMIT_WALK, n_max, tol) for tol in tols]


def test_shared_walks_walk_each_plane_once_and_read_every_tolerance(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = parse_boundary_point("b|(ab)")
    calls = []
    original = limits._limit_walk

    def spy(rep, k, points, rate, tols, n_max):
        calls.append(tuple(tols))
        return original(rep, k, points, rate, tols, n_max)

    monkeypatch.setattr(limits, "_limit_walk", spy)
    alone = {
        tol: xi_upper(rep, spec, 1, x, tol, certificate=cert) for tol in (1e-8, 1e-10)
    }
    assert calls == [(1e-8,), (1e-10,)]
    calls.clear()
    reads = limit_reads(1e-10, 1e-8, 1e-8) + limit_reads(1e-6, 1e-6, n_max=300)
    with limits.shared_walks(reads):
        for tol in (1e-8, 1e-10, 1e-8, 1e-10):
            got = xi_upper(rep, spec, 1, x, tol, certificate=cert)
            assert_same_outcome(got, alone[tol])
        # a tolerance or length cap the block does not read at that cap
        # walks on its own, and so does another kind
        xi_upper(rep, spec, 1, x, 1e-6, certificate=cert)
        xi_upper(rep, spec, 1, x, 1e-8, n_max=300, certificate=cert)
        # a cap's own tolerances are shared at that cap
        for _ in range(2):
            xi_upper(rep, spec, 1, x, 1e-6, n_max=300, certificate=cert)
        # membership is still checked on every call
        with pytest.raises(MembershipError):
            xi_upper(rep, spec, 1, periodic_point(parse_word("A")), certificate=cert)
    assert calls == [(1e-10, 1e-8), (1e-6,), (1e-8,), (1e-6,)]
    calls.clear()
    # a walk of another kind, or with one reader, is not tabled
    for reads in ([(limits.SPLITTING_WALK, 400, 1e-8)] * 2, limit_reads(1e-8)):
        with limits.shared_walks(reads):
            for _ in range(2):
                xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)
    xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)
    assert calls == [(1e-8,)] * 5


def test_shared_walks_store_errors_and_fall_back_when_the_walk_raises(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = parse_boundary_point("(ab)")
    with limits.shared_walks(limit_reads(1e-8, 1e-10, n_max=3)):
        for _ in range(2):
            with pytest.raises(NoConvergenceError) as caught:
                xi_upper(rep, spec, 1, x, 1e-10, n_max=3, certificate=cert)
            assert str(caught.value) == str(
                walk_outcome(rep, 1, x, cert.lambda_hat, 1e-10, 3)
            )
    # a shared walk that fails numerically past the tolerance a caller
    # reads: each tolerance is walked alone, once, and gets the outcome of
    # a walk at that tolerance alone
    original = limits._limit_walk
    calls = []

    def failing_when_shared(error):
        def walk(rep, k, points, rate, tols, n_max):
            calls.append(tuple(tols))
            if len(tols) > 1:
                raise error
            return original(rep, k, points, rate, tols, n_max)

        return walk

    for error in (
        FloatingPointError("past the first stopping step"),
        np.linalg.LinAlgError("SVD did not converge"),
        ScaleOverflowError("product out of range"),
    ):
        calls.clear()
        monkeypatch.setattr(limits, "_limit_walk", failing_when_shared(error))
        with limits.shared_walks(limit_reads(1e-8, 1e-10)):
            for tol in (1e-8, 1e-10, 1e-8, 1e-10):
                got = xi_upper(rep, spec, 1, x, tol, certificate=cert)
                want = walk_outcome(rep, 1, x, cert.lambda_hat, tol, 400)
                assert_same_outcome(got, want)
        assert calls == [(1e-10, 1e-8), (1e-8,), (1e-10,)]
    # any other failure is a fault, not a numerical limit: it is raised
    monkeypatch.setattr(limits, "_limit_walk", failing_when_shared(IndexError("row")))
    with limits.shared_walks(limit_reads(1e-8, 1e-10)):
        with pytest.raises(IndexError):
            xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)


def reference_holder(rep, spec, k, sample_size, seed, max_period, n_max, cert):
    """The one-pair-at-a-time loop holder_estimate batched: returns the
    usable (visual, separation) pairs and the points it read, or raises
    the first failure it reads."""
    points = sorted(q_plus_boundary(spec, max_period), key=str)
    rng = np.random.default_rng(seed)
    cutoff = math.exp(-limits.SMALL_SCALE_PREFIX)
    planes, read, usable, seen = {}, [], [], set()
    attempts = 0
    while len(usable) < sample_size and attempts < 50 * sample_size:
        attempts += 1
        i, j = rng.integers(0, len(points), size=2)
        if i == j or frozenset((points[i], points[j])) in seen:
            continue
        x, y = points[i], points[j]
        visual = limits.visual_distance(x, y, 1.0)
        if visual > cutoff:
            continue
        seen.add(frozenset((x, y)))
        for p in (x, y):
            if p not in planes:
                read.append(p)
                planes[p] = helpers.reference_xi_upper(
                    rep, k, p, cert.lambda_hat, limits.DEFAULT_TOL, n_max
                ).subspace
        separation = grassmann_distance(planes[x], planes[y])
        if separation > 1e-14:
            usable.append((visual, separation))
    return usable, read


def schottky_holder(n_max=limits.DEFAULT_N_MAX, seed=3):
    rep, spec = schottky_rep(), directed_ab()
    return holder_estimate(
        rep,
        spec,
        1,
        sample_size=40,
        seed=seed,
        max_period=5,
        n_max=n_max,
        certificate=certify(rep, spec, 1, 8),
    )


def test_holder_walk_reads_the_pairs_of_the_pairwise_loop(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    walked = []
    original = limits._limit_walk

    def spy(rep, k, points, *rest):
        walked.extend(points)
        return original(rep, k, points, *rest)

    monkeypatch.setattr(limits, "_limit_walk", spy)
    raised = 0
    for n_max in range(2, 13):
        for seed in (3, 11):
            walked.clear()
            try:
                usable, read = reference_holder(
                    rep, spec, 1, 40, seed, 5, n_max, cert
                )
            except GapcertError as exc:
                # a failed point raises when its pair is read, and the
                # first failure read is the one the pairwise loop raised
                with pytest.raises(type(exc)) as caught:
                    schottky_holder(n_max, seed)
                assert str(caught.value) == str(exc)
                raised += 1
                continue
            fit = schottky_holder(n_max, seed)
            assert fit.pairs_used == len(usable)
            assert sorted(walked, key=str) == sorted(read, key=str)
    assert 0 < raised < 22


def test_holder_raises_a_failed_point_only_when_a_pair_reads_it(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    clean = schottky_holder()
    _, read = reference_holder(rep, spec, 1, 40, 3, 5, limits.DEFAULT_N_MAX, cert)
    pool = sorted(q_plus_boundary(spec, 5), key=str)
    unread = next(p for p in pool if p not in read)
    original = limits._limit_walk

    def failing(victim):
        def walk(rep, k, points, *rest):
            out = original(rep, k, points, *rest)
            return [
                (NoConvergenceError(str(p)),) if p == victim else outcome
                for p, outcome in zip(points, out)
            ]

        return walk

    monkeypatch.setattr(limits, "_limit_walk", failing(unread))
    assert schottky_holder() == clean
    victim = read[len(read) // 2]
    monkeypatch.setattr(limits, "_limit_walk", failing(victim))
    with pytest.raises(NoConvergenceError, match=re.escape(str(victim))):
        schottky_holder()
