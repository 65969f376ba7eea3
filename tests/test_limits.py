"""Limit planes, transversality, convergence checks and regularity fits."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import gap_margin
from gapcert import domination, limits, linalg, subsets
from gapcert.domination import certify
from gapcert.errors import (
    GapcertError,
    InsufficientSampleError,
    MembershipError,
    NoConvergenceError,
    NoGapError,
    NonTransverseSeedError,
    NotCertifiedError,
    NumericalError,
    ScaleOverflowError,
)
from gapcert.limits import (
    cartan_check,
    discontinuity_probe,
    holder_estimate,
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
)
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    gamma_p_plus,
    hat,
    pair_in_subset,
    point_in_forward_set,
    q_plus_boundary,
)
from gapcert.words import (
    EMPTY_WORD,
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
    # a letter past the rank, in the head or in the period, is in no subset
    for spec in (FullBoundary(2), directed, axis, Primitive(2, 3)):
        assert point_in_forward_set(spec, parse_boundary_point("b|(a)"))
        for text in ("(c)", "c|(a)", "(aC)"):
            assert not point_in_forward_set(spec, parse_boundary_point(text))


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
    # the same line translated by a letter past the rank
    c = parse_word("c")
    assert not pair_in_subset(axis, translate(c, x), translate(c, y))
    primitive = Primitive(2, 3)
    a, big_a = periodic_point(parse_word("a")), periodic_point(parse_word("A"))
    assert pair_in_subset(primitive, a, big_a)
    assert not pair_in_subset(primitive, translate(c, a), translate(c, big_a))


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
    full = FullBoundary(2)
    assert pair_in_subset(
        full, periodic_point(parse_word("a")), periodic_point(parse_word("b"))
    )
    for x, y in (("(a)", "(C)"), ("c|(a)", "(B)"), ("(ab)", "b|(Ac)")):
        for spec in (full, directed):
            assert not pair_in_subset(
                spec, parse_boundary_point(x), parse_boundary_point(y)
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


def test_xi_lower_takes_the_certificate_of_the_subset_and_index():
    # d = 3, k = 1: the backward planes are of index 2, but their certificate
    # is the (subset, 1) one, whose rate is the flipped subset's at index 2
    rep, spec = helpers.pingpong_rep(1), directed_ab()
    y = parse_boundary_point("(BA)")
    cert = certify(rep, spec, 1, 8)
    flipped = certify(rep, hat(spec), 2, 8)
    with pytest.raises(ValueError, match="certificate is for index 2, expected 1"):
        xi_lower(rep, spec, 1, y, certificate=flipped)
    value = xi_lower(rep, spec, 1, y, certificate=cert)
    reference = xi_upper(rep, hat(spec), 2, y, certificate=flipped)
    assert value.subspace.dimension == 2
    assert grassmann_distance(value.subspace, reference.subspace) < 1e-12


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
    # a subset of a larger free group than the representation's
    rep = schottky_rep()
    cert = certify(rep, directed_ab(), 1, 8)
    with pytest.raises(ValueError, match="rank 3, the representation of rank 2"):
        xi_upper(rep, FullBoundary(3), 1, periodic_point(parse_word("c")), certificate=cert)


def test_xi_no_usable_gap_reports_prefix():
    rep, axis = example_56_rep(), a_axis_f2()
    rate = certify(rep, axis, 1, 8).lambda_hat
    # rotations never develop a gap; (b) lies outside the axis family, so
    # read its planes past xi_upper's membership gate
    (outcome,) = limits._limit_planes(
        rep, 1, [periodic_point(parse_word("b"))], rate, limits.DEFAULT_TOL, 20
    )
    assert isinstance(outcome, NoGapError)
    assert "b" in str(outcome)


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


def test_d3_planes_of_both_indices_match_the_eigenspace_oracle():
    # an index-2 plane in d = 3 is read as the complement of the dual's top
    # line, which does not saturate as sigma_1 / sigma_2 grows: every
    # forward and backward plane at k = 1 and 2 settles, at the image under
    # the preperiod of the period's top eigenspace
    forward = ("a|(b)", "(ab)", "(aB)")
    backward = ("A|(B)", "(BA)", "(bA)")
    spec = FullBoundary(2)
    reads = 0
    for seed in (1, 7, 19):
        rep = helpers.pingpong_rep(seed)
        for k in (1, 2):
            cert = certify(rep, spec, k, 8)
            sides = ((xi_upper, forward, k), (xi_lower, backward, 3 - k))
            for read, texts, index in sides:
                for text in texts:
                    x = parse_boundary_point(text)
                    period = helpers.word_matrix(rep, x.period)
                    oracle = helpers.word_matrix(rep, x.preperiod) @ (
                        helpers.top_eigenspace(period, index)
                    )
                    value = read(rep, spec, k, x, certificate=cert)
                    distance = grassmann_distance(
                        value.subspace, Subspace.from_spanning(oracle)
                    )
                    assert distance < 1e-10, (seed, k, read.__name__, text)
                    reads += 1
    assert reads == 36


def veronese_flag(v, dim, k):
    """The osculating k-plane at v of the Veronese curve of Sym^(dim-1):
    the polynomials v^(dim-k) p with deg p <= k - 1, a polynomial being
    its coefficients by the power of y, in sym_power's scaled basis."""
    power = np.array([1.0])
    for _ in range(dim - k):
        power = np.convolve(power, v)
    columns = [np.convolve(power, np.eye(k)[i]) for i in range(k)]
    scale = np.sqrt([math.comb(dim - 1, j) for j in range(dim)])
    return Subspace.from_spanning(np.array(columns).T / scale[:, None])


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_lift_planes_are_the_veronese_flags(dim):
    # Sym^(d-1) sends the limit lines v of the d = 2 pair to the flags of
    # the Veronese curve at v, so every plane of the lift, of every index
    # and both sides, is a closed form.  The top-k block of the product's
    # SVD saturated at interior k: all 9 interior reads of each side (d = 4
    # at k = 2, d = 5 at k = 2 and 3, each at the three points) ended in
    # NoConvergenceError
    rep, spec = schottky_rep(), FullBoundary(2)
    lift = helpers.sym_lift(rep, dim)
    for text in ("(ab)", "(aB)", "(abb)"):
        x = parse_boundary_point(text)
        forward = xi_upper(rep, spec, 1, x).subspace.frame[:, 0]
        backward = xi_lower(rep, spec, 1, x).subspace.frame[:, 0]
        for k in range(1, dim):
            cert = certify(lift, spec, k, 6)
            up = xi_upper(lift, spec, k, x, certificate=cert).subspace
            down = xi_lower(lift, spec, k, x, certificate=cert).subspace
            assert grassmann_distance(up, veronese_flag(forward, dim, k)) < 1e-8
            flag = veronese_flag(backward, dim, dim - k)
            assert grassmann_distance(down, flag) < 1e-8, (text, k)


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
    for w in helpers.sample_words(gamma_p_plus(directed, 5)):
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
    # a word past the rank is in by its length alone (|w| <= b), but it is
    # no word of the representation
    with pytest.raises(ValueError):
        cartan_check(rep, axis, 1, x, [parse_word("c")], b=1)


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


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_cartan_planes_of_the_lifts_settle_at_every_index(dim):
    # each word's plane is read off its walked wedge^k, as the limit plane
    # is.  The top-k block of the product's SVD lost u sigma_1 / sigma_k:
    # 6 of the 9 lift cases (d = 3 at k = 2, d = 4 at k = 2, 3, d = 5 at
    # k = 2-4) ended 2.1e-2 to 9.6e-2 away.  At d = 2 and k = 1 the two
    # reads agree
    rep, spec = schottky_rep(), directed_ab()
    lift = rep if dim == 2 else helpers.sym_lift(rep, dim)
    x = periodic_point(parse_word("ab"))
    words = [parse_word("ab" * n) for n in (2, 4, 6, 8)]
    for k in range(1, dim):
        cert = certify(lift, spec, k, 8)
        curve = cartan_check(lift, spec, k, x, words, certificate=cert)
        assert curve.passed and curve.final < limits.PASS_TOL, (k, curve)
        if dim == 2 or k == 1:
            target = xi_upper(lift, spec, k, x, certificate=cert).subspace
            want = [
                grassmann_distance(helpers.u_k(evaluate(lift, w), k), target)
                for w in words
            ]
            np.testing.assert_allclose(curve.distances, want, rtol=0, atol=1e-12)


def test_cartan_enumerates_no_positive_set(monkeypatch):
    # membership reads each p^-1 w off the subset graph's table: words up
    # to length 16 on the full boundary, whose enumeration would hold
    # 6,377,292 words at length 14, past the level cap
    rep, spec = schottky_rep(), FullBoundary(2)
    cert = certify(rep, spec, 1, 8)
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("gamma_p_plus called")

    for module in (subsets, domination, limits):
        monkeypatch.setattr(module, "gamma_p_plus", spy, raising=False)
    x = periodic_point(parse_word("ab"))
    words = [x.prefix(n) for n in range(1, 17)]
    curve = cartan_check(rep, spec, 1, x, words, certificate=cert)
    assert curve.passed and curve.lengths == tuple(range(1, 17))
    assert calls == []


def test_cartan_without_a_gap_is_a_typed_error():
    # the empty word has no plane, and b is a rotation: its walked margin
    # is 0, though the certificate on the axis of a is Certified
    rep, axis = example_56_rep(), a_axis_f2()
    x = periodic_point(parse_word("a"))
    assert certify(rep, axis, 1, 8).verdict == domination.CERTIFIED
    cases = [
        ([EMPTY_WORD], 0),
        ([parse_word("a"), EMPTY_WORD], 0),
        ([parse_word("b")], 1),
        ([parse_word("aa"), parse_word("b"), parse_word("aaa")], 1),
    ]
    for words, b in cases:
        with pytest.raises(NoGapError):
            cartan_check(rep, axis, 1, x, words, b=b)


# ---------------------------------------------------------------------------
# regularity estimate


def test_holder_schottky_positive_exponent():
    rep, directed = schottky_rep(), directed_ab()
    fit = holder_estimate(rep, directed, 1, b=0, kappa=1.0, sample_size=200, seed=7)
    assert fit.alpha_hat > 0.0
    assert fit.r_squared >= 0.8
    assert fit.pairs_used >= 10
    domination._MEMO.clear()  # certify again, not from the memo
    again = holder_estimate(rep, directed, 1, b=0, kappa=1.0, sample_size=200, seed=7)
    assert again.alpha_hat == fit.alpha_hat and again.pairs_used == fit.pairs_used


@pytest.mark.parametrize("kappa", [0.0, -1000.0, math.nan])
def test_holder_refuses_a_nonpositive_kappa_before_using_it(kappa):
    # kappa = -1000 overflows math.exp(-kappa * 2) if the cutoff comes first
    with pytest.raises(ValueError, match="kappa must be positive"):
        holder_estimate(schottky_rep(), directed_ab(), 1, kappa=kappa)


def test_holder_insufficient_samples():
    with pytest.raises(InsufficientSampleError):
        holder_estimate(z_rep(), z_axis(), 1)
    wide = AxisFamily(2, (parse_word("a"), parse_word("b")))
    # the only periodic endpoints sit at unit visual distance: no small scales
    with pytest.raises(InsufficientSampleError):
        holder_estimate(
            schottky_rep(), wide, 1, certificate=certify(schottky_rep(), wide, 1, 6)
        )


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


def test_discontinuity_probe_reads_the_walk_table(monkeypatch):
    # each plane is the walk table's, read as xi_upper reads it: one walk
    # per point, which the one-point calls then read without a walk, with
    # their planes and the first error of one xi_upper call per point
    rep = example_56_rep()
    spec = a_axis_f2()
    cert = certify(rep, spec, 1, limits.DEFAULT_CERT_BUDGET)
    base = periodic_point(parse_word("a"))
    probe = discontinuity_probe(rep, exponents=(2, 5, 3))
    approximants = [parse_boundary_point("a" * m + "b|(a)") for m in (2, 5, 3)]
    assert [key[3] for key in limits._WALKS] == [base, *approximants]
    calls = []
    original = limits._Walk

    def spy(rep, k, points):
        calls.append(list(points))
        return original(rep, k, points)

    monkeypatch.setattr(limits, "_Walk", spy)
    plane = xi_upper(rep, spec, 1, base, certificate=cert).subspace
    assert probe.separations == tuple(
        grassmann_distance(plane, xi_upper(rep, spec, 1, x, certificate=cert).subspace)
        for x in approximants
    )
    assert calls == []
    monkeypatch.setattr(limits, "_Walk", original)
    # too few prefixes: the base point's error is raised first, as the
    # one-point calls would raise it
    with pytest.raises(NoConvergenceError) as caught:
        discontinuity_probe(rep, exponents=(2, 5), n_max=3)
    with pytest.raises(NoConvergenceError) as alone:
        xi_upper(rep, spec, 1, base, n_max=3, certificate=cert)
    assert str(caught.value) == str(alone.value)


def test_discontinuity_probe_needs_two_generators():
    with pytest.raises(ValueError):
        discontinuity_probe(z_rep())


# ---------------------------------------------------------------------------
# the walk core against the one-point loop


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


def needed(outcome, n_max):
    """The prefixes a walk reads for outcome: to its stop, or to the cap."""
    return n_max if isinstance(outcome, GapcertError) else outcome.iterations


@given(helpers.reps_and_subsets(), st.floats(0.05, 3.0), helpers.walk_reads())
@settings(max_examples=40, deadline=None)
def test_walk_matches_the_one_point_loop(case, rate, reads):
    # one stored walk per point, read at every (tolerance, cap) in turn,
    # against each read walked alone; caps 3 and 6 are too short for most
    # points, and the first read also walks every point in lockstep
    rep, spec = case
    points = sorted(q_plus_boundary(spec, 3), key=str)[:12]
    for k in range(1, rep.dim):
        wanted = {
            (x, read): walk_outcome(rep, k, x, rate, *read)
            for x in points
            for read in reads
        }
        tol, n_max = reads[0]
        together = limits._limit_planes(rep, k, points, rate, tol, n_max)
        for x, got in zip(points, together):
            assert_same_outcome(got, wanted[x, reads[0]])
        for x in points:
            walk = limits._Walk(rep, k, [x])
            needs = []
            for tol, n_max in reads:
                want = wanted[x, (tol, n_max)]
                (got,) = limits._limit_planes(rep, k, [x], rate, tol, n_max, walk)
                assert_same_outcome(got, want)
                needs.append((needed(want, n_max), n_max))
            assert walk.length == helpers.walked_length(needs, limits._WALK_CHUNK)


def test_interior_planes_match_the_one_point_loop():
    # d = 4 and 5, where the planes of interior index are read off the
    # contractions of wedge^k's top vector, in lockstep and one at a time
    for dim in (4, 5):
        rng = np.random.default_rng(dim)
        rep = Representation.of(
            [helpers.random_invertible(rng, dim, spread=1.0) for _ in range(2)]
        )
        points = [parse_boundary_point(t) for t in ("(ab)", "b|(aB)", "AAb|(a)")]
        for k in range(1, dim):
            together = limits._limit_planes(rep, k, points, 0.5, 1e-10, 60)
            for x, got in zip(points, together):
                assert_same_outcome(got, walk_outcome(rep, k, x, 0.5, 1e-10, 60))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_walk_margins_are_certifys_margins(dim):
    # one margin path: at every length of a ray the walk keeps certify's
    # margin, that of _level_margins on the chain of the ray's prefixes
    # (the margin anosov_margins reads), bit for bit, in lockstep
    rng = np.random.default_rng(dim)
    rep = Representation.of(
        [helpers.random_invertible(rng, dim, spread=1.0) for _ in range(2)]
    )
    texts = ("(ab)", "(aB)", "(abb)", "b|(ab)", "AAb|(a)", "ba|(bA)")
    points = [parse_boundary_point(t) for t in texts]
    length = 3 * limits._WALK_CHUNK
    for k in range(1, dim):
        walk = limits._Walk(rep, k, points)
        chunks = list(walk.read(length, np.ones(len(points), dtype=bool)))
        kept = np.concatenate([chunk.margins for chunk in chunks])
        for i, x in enumerate(points):
            chain = [([0], [x.letter_at(n)]) for n in range(length)]
            want = np.concatenate(list(domination._level_margins([rep], chain, k)))
            live = want[:, 0] > linalg.GAP_TOLERANCE
            assert np.array_equal(kept[live, i], want[live, 0])
            assert np.all(kept[~live, i] == -math.inf)


def oracle_margin(rep, prefix):
    """log sigma_1 - log sigma_2 of a 2 x 2 prefix product in 60-digit
    arithmetic, from its Frobenius norm and |det|, the product of the
    letters' determinants."""
    with mpmath.workdps(60):
        product, det = mpmath.eye(2), mpmath.mpf(1)
        for letter in prefix:
            image = mpmath.matrix(rep.image(letter).tolist())
            product = product * image
            det *= image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
        frob = sum(product[i, j] ** 2 for i in range(2) for j in range(2))
        det = abs(det)
        top = (mpmath.sqrt(frob + 2 * det) + mpmath.sqrt(frob - 2 * det)) / 2
        return float(2 * mpmath.log(top) - mpmath.log(det))


def test_walk_margins_match_a_60_digit_oracle():
    # the SVD gap of one product, which the walk read before, lost
    # u e^m of its sigma_2: 1.8e-4 at margin 27.65
    rep = schottky_rep()
    texts = ("(ab)", "(a)", "b|(ab)", "ba|(b)", "aab|(abb)", "(aab)")
    points = [parse_boundary_point(t) for t in texts]
    length = 3 * limits._WALK_CHUNK
    walk = limits._Walk(rep, 1, points)
    chunks = list(walk.read(length, np.ones(len(points), dtype=bool)))
    kept = np.concatenate([chunk.margins for chunk in chunks])
    for i, x in enumerate(points):
        for n in range(1, length + 1):
            m = oracle_margin(rep, x.prefix(n))
            assert abs(kept[n - 1, i] - m) <= 1e-12 * (1.0 + m), (str(x), n)
    # the Cauchy bound of a stop is the letter bound times e^-m
    cert = certify(rep, directed_ab(), 1, 8)
    for x in points:
        value = xi_upper(rep, directed_ab(), 1, x, certificate=cert)
        m = oracle_margin(rep, x.prefix(value.iterations))
        bound = rep.letter_norm_bound * math.exp(-m)
        assert abs(value.cauchy_bound - bound) <= 1e-12 * (1.0 + m) * bound


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
        walked = limits._limit_planes(r, 1, pts, 1.0, 1e-10, n_max)
        for x, got in zip(pts, walked):
            want = walk_outcome(r, 1, x, 1.0, 1e-10, n_max)
            assert_same_outcome(got, want)
            kinds.add(type(got).__name__)
            if not isinstance(got, GapcertError) and got.skipped_prefixes:
                kinds.add("skipped")
    assert kinds == {"LimitMapValue", "skipped", "NoConvergenceError", "NoGapError"}


def test_walk_stops_on_both_sides_of_a_chunk_edge(monkeypatch):
    # chunks of C lengths with the stop at C - 1, C and C + 1, and caps
    # that are not multiples of C, against the one-point loop: exact
    # planes, steps and bounds, and exact NoConvergenceError messages, in
    # lockstep and from one stored walk per point resumed past the edge
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    points = [parse_boundary_point(s) for s in ("(ab)", "b|(ab)", "ba|(b)", "(a)")]
    edges, kinds = set(), set()
    for x in points:
        for tol in (1e-8, 1e-10):
            stop = helpers.reference_xi_upper(rep, 1, x, rate, tol, 400).iterations
            for chunk in (stop + 1, stop, stop - 1):
                monkeypatch.setattr(limits, "_WALK_CHUNK", chunk)
                edges.add(stop - chunk)
                for n_max in (400, stop - 1, chunk + 1, 2 * chunk + 3):
                    together = limits._limit_planes(rep, 1, points, rate, tol, n_max)
                    for y, got in zip(points, together):
                        want = walk_outcome(rep, 1, y, rate, tol, n_max)
                        assert_same_outcome(got, want)
                        kinds.add(type(got).__name__)
                    walk = limits._Walk(rep, 1, [x])
                    for t in (1e-6, tol):
                        (got,) = limits._limit_planes(rep, 1, [x], rate, t, n_max, walk)
                        want = walk_outcome(rep, 1, x, rate, t, n_max)
                        assert_same_outcome(got, want)
    assert edges == {-1, 0, 1}
    assert kinds == {"LimitMapValue", "NoConvergenceError"}
    # a gapless prefix after the stop, in the stop's chunk, is not skipped
    detour = parse_boundary_point("a" * 25 + "b|(a)")
    assert gap_margin(evaluate(example_56_rep(), detour.prefix(51)), 1) == 0.0
    monkeypatch.setattr(limits, "_WALK_CHUNK", 64)
    (got,) = limits._limit_planes(example_56_rep(), 1, [detour], 1.0, 1e-10, 400)
    assert got.iterations < 51
    assert_same_outcome(got, walk_outcome(example_56_rep(), 1, detour, 1.0, 1e-10, 400))
    # gapless prefixes all the way, to caps on both sides of a chunk edge
    rotation = Representation.of([np.array([[0.0, 1.0], [-1.0, 0.0]])])
    x = periodic_point(parse_word("a"))
    monkeypatch.setattr(limits, "_WALK_CHUNK", 4)
    for n_max in (3, 4, 5, 11):
        (got,) = limits._limit_planes(rotation, 1, [x], 1.0, 1e-10, n_max)
        assert isinstance(got, NoGapError)
        assert_same_outcome(got, walk_outcome(rotation, 1, x, 1.0, 1e-10, n_max))


def test_a_walk_of_many_points_advances_by_chunks(monkeypatch):
    # chunks reach past the stops: a walk of many points in lockstep walks
    # the rows still waiting _WALK_CHUNK lengths at a time, fewer rows from
    # chunk to chunk, and every point reads the plane of its one-point loop
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    points = sorted(q_plus_boundary(spec, 4), key=str)
    calls = []
    original = domination._running_products_into

    def products(cores, logscales, factors, *rest):
        calls.append((len(cores), len(factors)))
        return original(cores, logscales, factors, *rest)

    monkeypatch.setattr(domination, "_running_products_into", products)
    walked = limits._limit_planes(rep, 1, points, rate, 1e-10, 400)
    assert len(points) > 4 and calls[0] == (len(points), limits._WALK_CHUNK)
    assert {count for _, count in calls} == {limits._WALK_CHUNK}
    rows = [rows for rows, _ in calls]
    assert len(rows) > 1 and rows == sorted(rows, reverse=True) and rows[-1] < rows[0]
    for x, got in zip(points, walked):
        assert_same_outcome(got, walk_outcome(rep, 1, x, rate, 1e-10, 400))


def test_a_walk_takes_one_decomposition_per_chunk(monkeypatch):
    # each chunk of a walk takes one SVD of its products, for the planes,
    # and one SVD for its Grassmann steps; the margins behind the rising
    # rule and the tail bound are certify's, from closed-form tops at d = 2
    rep = schottky_rep()
    points = [parse_boundary_point(s) for s in ("(ab)", "(a)", "b|(a)")]
    calls = []
    original = np.linalg.svd

    def svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "svd", svd)
    walk = limits._Walk(rep, 1, points)
    waiting = np.ones(len(points), dtype=bool)
    chunks = list(walk.read(2 * limits._WALK_CHUNK, waiting))
    assert len(chunks) == 2 and walk.length == 2 * limits._WALK_CHUNK
    assert len(calls) == 2 * len(chunks)
    for chunk, (products, _) in zip(chunks, zip(calls[0::2], calls[1::2])):
        assert products == (limits._WALK_CHUNK * len(points), 2, 2)
        assert np.array_equal(chunk.live, chunk.margins > linalg.GAP_TOLERANCE)


def failing_products(original, at, error, calls):
    """_running_products_into that raises error on every call reaching
    length at, counting the lengths of the calls that went through."""

    def products(cores, logscales, factors, *rest):
        done = sum(calls)
        if done < at <= done + len(factors):
            raise error
        calls.append(len(factors))
        return original(cores, logscales, factors, *rest)

    return products


@pytest.mark.parametrize(
    "error",
    [
        FloatingPointError("overflow"),
        np.linalg.LinAlgError("SVD did not converge"),
        ScaleOverflowError("product out of range"),
    ],
)
def test_a_chunk_that_fails_past_the_stop_is_walked_length_by_length(
    monkeypatch, error
):
    rep, spec = schottky_rep(), directed_ab()
    rate = certify(rep, spec, 1, 8).lambda_hat
    x = parse_boundary_point("b|(ab)")
    want = walk_outcome(rep, 1, x, rate, 1e-10, 400)
    stop = want.iterations
    # the first chunk reaches two lengths past the stop, and fails there
    monkeypatch.setattr(limits, "_WALK_CHUNK", stop + 2)
    calls = []
    original = domination._running_products_into
    products = failing_products(original, stop + 1, error, calls)
    monkeypatch.setattr(domination, "_running_products_into", products)
    (got,) = limits._limit_planes(rep, 1, [x], rate, 1e-10, 400)
    assert_same_outcome(got, want)
    assert calls == [1] * stop
    # a failure at a length the walk reads is raised
    calls.clear()
    products = failing_products(original, stop, error, calls)
    monkeypatch.setattr(domination, "_running_products_into", products)
    with pytest.raises(type(error)):
        limits._limit_planes(rep, 1, [x], rate, 1e-10, 400)
    assert calls == [1] * (stop - 1)


def test_shared_walks_walk_each_plane_once_and_read_every_tolerance(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    rate = cert.lambda_hat
    x = parse_boundary_point("b|(ab)")
    walks = []
    original = limits._Walk

    def spy(rep, k, points):
        walks.append(original(rep, k, points))
        return walks[-1]

    monkeypatch.setattr(limits, "_Walk", spy)
    reads = [(1e-8, 400), (1e-10, 3), (1e-6, 300), (1e-10, 400), (1e-8, 400)]
    got = {}
    for tol, n_max in reads:
        try:
            value = xi_upper(rep, spec, 1, x, tol, n_max, certificate=cert)
        except NoConvergenceError as exc:
            value = exc
        assert_same_outcome(value, walk_outcome(rep, 1, x, rate, tol, n_max))
        # a repeat read returns the value kept on the walk
        assert got.setdefault((tol, n_max), value) is value
    # one walk, at every cap, resumed after the error at 3 prefixes and
    # walked to the chunk of the tightest stop only
    assert isinstance(got[1e-10, 3], NoConvergenceError)
    stop = got[1e-10, 400].iterations
    (walk,) = walks
    assert walk.length == -(-stop // limits._WALK_CHUNK) * limits._WALK_CHUNK
    # membership is still checked on every call
    with pytest.raises(MembershipError):
        xi_upper(rep, spec, 1, periodic_point(parse_word("A")), certificate=cert)
    # the backward plane of the same point at the same index is the same
    # walk (x is a backward endpoint of the full boundary)
    xi_lower(rep, FullBoundary(2), 1, x)
    assert len(walks) == 1
    limits._WALKS.clear()
    xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)
    assert len(walks) == 2


def test_shared_walks_resume_after_a_failed_chunk(monkeypatch):
    # a failure where a read walks on is raised and leaves the kept
    # lengths as they were: looser reads still read them, and once the
    # failure is gone the walk resumes where it stood
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = parse_boundary_point("(ab)")
    alone = {
        tol: walk_outcome(rep, 1, x, cert.lambda_hat, tol, 400) for tol in (1e-8, 1e-10)
    }
    assert alone[1e-8].iterations <= limits._WALK_CHUNK < alone[1e-10].iterations
    original = limits._level_block
    for error in (FloatingPointError("overflow"), IndexError("row")):
        limits._WALKS.clear()
        xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)

        def failing(*args):
            raise error

        monkeypatch.setattr(limits, "_level_block", failing)
        (walk,) = limits._WALKS.values()
        with pytest.raises(type(error)):
            xi_upper(rep, spec, 1, x, 1e-10, certificate=cert)
        assert walk.length == limits._WALK_CHUNK
        got = xi_upper(rep, spec, 1, x, 1e-8, certificate=cert)
        assert_same_outcome(got, alone[1e-8])
        monkeypatch.setattr(limits, "_level_block", original)
        got = xi_upper(rep, spec, 1, x, 1e-10, certificate=cert)
        assert_same_outcome(got, alone[1e-10])


def test_a_kept_plane_is_read_without_the_walk_core(monkeypatch):
    # a repeat read returns the kept value itself: it scans no chunk,
    # calls no stacked_* function and builds no Subspace; an error is not
    # kept, so every read raises a new one
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 8)
    x = parse_boundary_point("b|(ab)")
    value = xi_upper(rep, spec, 1, x, certificate=cert)
    errors = []
    for _ in range(2):
        with pytest.raises(NoConvergenceError) as caught:
            xi_upper(rep, spec, 1, x, n_max=3, certificate=cert)
        errors.append(caught.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])

    def unreachable(*args, **kwargs):
        raise AssertionError("a kept value was read again")

    names = [name for name in vars(limits) if name.startswith("stacked_")]
    assert len(names) >= 3
    for name in [*names, "_level_block", "Subspace", "_limit_planes"]:
        monkeypatch.setattr(limits, name, unreachable)
    assert xi_upper(rep, spec, 1, x, certificate=cert) is value


def test_walk_table_is_keyed_by_the_images_bits():
    # two representations with bitwise-equal images share one walk and its
    # values; a generator one ulp off (5.0 -> 5.000000000000001) does not
    spec = directed_ab()
    first, twin = schottky_rep(), schottky_rep()
    assert first is not twin
    cert = certify(first, spec, 1, 8)
    x = parse_boundary_point("(ab)")
    value = xi_upper(first, spec, 1, x, certificate=cert)
    assert xi_upper(twin, spec, 1, x, certificate=cert) is value
    assert len(limits._WALKS) == 1
    images = [np.array(g) for g in first.stacked_images[0::2]]
    images[0][0, 0] = 5.000000000000001
    nudged = Representation.of(images)
    assert nudged.stacked_images.tobytes() != first.stacked_images.tobytes()
    moved = xi_upper(nudged, spec, 1, x, certificate=cert)
    assert moved is not value
    assert_same_outcome(moved, walk_outcome(nudged, 1, x, cert.lambda_hat, 1e-10, 400))
    assert len(limits._WALKS) == 2


def test_walk_table_never_holds_more_walks_than_its_bound(monkeypatch):
    rep = schottky_rep()
    points = sorted(q_plus_boundary(directed_ab(), 8), key=str)
    assert len(points) > limits.WALKS_SIZE

    def read(point):
        try:
            limits._plane(rep, 1, point, 1.0, 1e-10, 3)
        except NoConvergenceError:
            pass

    for point in points:
        read(point)
        assert len(limits._WALKS) <= limits.WALKS_SIZE
    # the least recently read walk goes first
    limits._WALKS.clear()
    monkeypatch.setattr(limits, "WALKS_SIZE", 3)
    for point in points[:3] + points[:1] + points[3:4]:
        read(point)
    assert [key[3] for key in limits._WALKS] == [points[2], points[0], points[3]]


def reference_holder(
    rep, spec, k, sample_size, seed, max_period, n_max, cert, kappa=1.0, b=0, planes=None
):
    """The one-pair-at-a-time loop holder_estimate batched: returns the
    usable (log visual, log separation) pairs and the points it read, or
    raises the first failure it reads.  planes may carry the reference
    planes of an earlier call at the same rep, k, cert and n_max."""
    points = sorted(q_plus_boundary(spec, max_period, b), key=str)
    rng = np.random.default_rng(seed)
    cutoff = math.exp(-kappa * limits.SMALL_SCALE_PREFIX)
    planes = {} if planes is None else planes
    read, usable, seen = {}, [], set()
    attempts = 0
    while len(usable) < sample_size and attempts < 50 * sample_size:
        attempts += 1
        i, j = rng.integers(0, len(points), size=2)
        if i == j or frozenset((points[i], points[j])) in seen:
            continue
        x, y = points[i], points[j]
        visual = limits.visual_distance(x, y, kappa)
        if visual > cutoff:
            continue
        seen.add(frozenset((x, y)))
        for p in (x, y):
            read[p] = None
            if p not in planes:
                planes[p] = helpers.reference_xi_upper(
                    rep, k, p, cert.lambda_hat, limits.DEFAULT_TOL, n_max
                ).subspace
        separation = grassmann_distance(planes[x], planes[y])
        if separation > 1e-14:
            if visual == 0.0:
                shared = x.prefix(int(gromov_product(x, y)))
                raise NumericalError(
                    f"visual distance underflows to 0 at kappa = {kappa!r} "
                    f"for a pair sharing the prefix {shared}"
                )
            usable.append((math.log(visual), math.log(separation)))
    return usable, list(read)


def reference_fit(usable):
    """holder_estimate's regression on the reference's usable pairs."""
    if len(usable) < 10:
        raise InsufficientSampleError(
            f"only {len(usable)} usable small-scale pairs (need 10)"
        )
    xs = np.array([v for v, _ in usable])
    ys = np.array([s for _, s in usable])
    design = np.column_stack([xs, np.ones_like(xs)])
    (alpha, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    residuals = ys - design @ np.array([alpha, intercept])
    total = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - float(residuals @ residuals) / total
    return float(alpha), float(intercept), r_squared, len(usable)


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
    original = limits._Walk

    def spy(rep, k, points):
        walked.extend(points)
        return original(rep, k, points)

    monkeypatch.setattr(limits, "_Walk", spy)
    raised = 0
    for n_max in range(2, 13):
        for seed in (3, 11):
            walked.clear()
            try:
                usable, read = reference_holder(rep, spec, 1, 40, seed, 5, n_max, cert)
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
    original = limits._limit_stops

    def failing(victim):
        def walk(rep, k, points, *rest):
            out = original(rep, k, points, *rest)
            return [
                NoConvergenceError(str(p)) if p == victim else outcome
                for p, outcome in zip(points, out)
            ]

        return walk

    monkeypatch.setattr(limits, "_limit_stops", failing(unread))
    assert schottky_holder() == clean
    victim = read[len(read) // 2]
    monkeypatch.setattr(limits, "_limit_stops", failing(victim))
    with pytest.raises(NoConvergenceError, match=re.escape(str(victim))):
        schottky_holder()


@pytest.mark.parametrize(
    "rep, spec, k, seeds",
    [
        (schottky_rep(), directed_ab(), 1, (0, 5)),
        (helpers.pingpong_rep(1), FullBoundary(2), 2, (0,)),
    ],
    ids=["d2", "d3-dual"],
)
def test_holder_is_bitwise_the_pairwise_reference(rep, spec, k, seeds):
    # every fit field, or the error raised, against the one-pair loop, on a
    # grid of seeds, sample sizes, periods, shifts b and scales kappa; the
    # d = 3 index-2 planes are read on the dual walk.  At kappa = 800 every
    # accepted pair's visual distance underflows to 0, so both raise the
    # NumericalError of the first pair they score
    cert = certify(rep, spec, k, 8)
    planes, fits = {}, 0
    grid = itertools.product(seeds, (10, 40, 200), range(3, 7), (0, 1), (0.5, 1.0, 2.7, 800.0))
    for seed, size, period, b, kappa in grid:
        if rep.dim == 3 and (period > 4 or b):
            continue
        args = (size, seed, period, limits.DEFAULT_N_MAX, cert, kappa, b, planes)
        try:
            want = reference_fit(reference_holder(rep, spec, k, *args)[0])
        except GapcertError as exc:
            want = exc
        try:
            fit = holder_estimate(
                rep, spec, k, b=b, kappa=kappa, sample_size=size, seed=seed,
                max_period=period, certificate=cert,
            )
            got = (fit.alpha_hat, fit.log_c_hat, fit.r_squared, fit.pairs_used)
            fits += 1
        except GapcertError as exc:
            got = exc
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want, (seed, size, period, b, kappa)
    assert fits > 0


@pytest.mark.parametrize("kappa, b", [(200.0, 0), (370.0, 0), (373.0, 1), (800.0, 1)])
def test_holder_refuses_a_visual_distance_that_underflows(kappa, b):
    # the limits-flow holder sample (400 pairs, period 8): once
    # exp(-kappa * (x|y)) underflows to 0 for a scored pair, its log is
    # refused with a NumericalError naming kappa and the shared prefix
    rep, spec = schottky_rep(), directed_ab()
    cert = certify(rep, spec, 1, 6)
    args = dict(sample_size=400, seed=1000, max_period=8, certificate=cert)
    # at kappa = 100 and b = 0 no scored distance underflows
    assert holder_estimate(rep, spec, 1, kappa=100.0, **args).pairs_used == 400
    with pytest.raises(NumericalError) as caught:
        holder_estimate(rep, spec, 1, b=b, kappa=kappa, **args)
    head = f"visual distance underflows to 0 at kappa = {kappa!r} for a pair "
    head += "sharing the prefix "
    assert str(caught.value).startswith(head)
    shared = str(caught.value)[len(head) :]
    assert set(shared) <= set("ab") and math.exp(-kappa * len(shared)) == 0.0


def reference_pairs(points, kappa, sample_size, seed):
    """Every pair of ids the one-pair loop accepts in its 50 * sample_size
    draws, in draw order."""
    rng = np.random.default_rng(seed)
    cutoff = math.exp(-kappa * limits.SMALL_SCALE_PREFIX)
    accepted, seen = [], set()
    for _ in range(50 * sample_size):
        i, j = (int(v) for v in rng.integers(0, len(points), size=2))
        if i == j or frozenset((i, j)) in seen:
            continue
        if limits.visual_distance(points[i], points[j], kappa) <= cutoff:
            seen.add(frozenset((i, j)))
            accepted.append((i, j))
    return accepted


def test_small_scale_pairs_are_the_pairwise_loops_draws():
    # the block draws and the shared-prefix filter accept the pairs of the
    # one-pair loop in its order; at kappa = 800 exp(-kappa) underflows to
    # the cutoff 0, so pairs sharing one letter pass too
    spec = directed_ab()
    one_letter = 0
    for period, b in itertools.product((3, 5), (0, 1)):
        points = sorted(q_plus_boundary(spec, period, b), key=str)
        for kappa, size, seed in itertools.product((0.5, 2.7, 800.0), (10, 40), (0, 3)):
            cutoff = math.exp(-kappa * limits.SMALL_SCALE_PREFIX)
            got = list(limits._small_scale_pairs(points, kappa, cutoff, size, seed))
            assert got == reference_pairs(points, kappa, size, seed)
            one_letter += sum(gromov_product(points[i], points[j]) == 1 for i, j in got)
    assert one_letter > 0


def test_a_block_of_pairs_is_the_two_integer_draws():
    # numpy's bounded integers draw 32-bit values from the bit generator's
    # buffer, rejections included, so one block is many two-integer draws
    for n in (3, 472, 2**31 - 1, 2**31 + 11):
        for seed in range(5):
            single = np.random.default_rng(seed)
            pairs = [single.integers(0, n, size=2) for _ in range(301)]
            block = np.random.default_rng(seed)
            blocks = [block.integers(0, n, size=(m, 2)) for m in (100, 1, 200)]
            assert np.array_equal(np.array(pairs), np.concatenate(blocks)), (n, seed)


@pytest.mark.parametrize(
    "rep, text", [(schottky_rep(), "b|(ab)"), (example_56_rep(), "aab|(a)")]
)
def test_a_kept_plane_serves_every_cap_that_reaches_its_stop(rep, text):
    # a value is kept under (rate, tol): a read at a cap at or above its
    # stop returns it, with every field of a fresh walk at that cap; a read
    # below raises what a fresh walk reports, and leaves the value kept
    x = parse_boundary_point(text)
    value = limits._plane(rep, 1, x, 0.5, 1e-10, 400)
    stop = value.iterations
    if text.startswith("aab"):
        assert value.skipped_prefixes
    for n_max in (stop, stop + 1, stop + 9, 400, 1000):
        assert limits._plane(rep, 1, x, 0.5, 1e-10, n_max) is value
        (fresh,) = limits._limit_planes(rep, 1, [x], 0.5, 1e-10, n_max)
        assert_same_outcome(value, fresh)
    for n_max in (stop - 1, 2):
        with pytest.raises(NoConvergenceError) as caught:
            limits._plane(rep, 1, x, 0.5, 1e-10, n_max)
        (fresh,) = limits._limit_planes(rep, 1, [x], 0.5, 1e-10, n_max)
        assert isinstance(fresh, NoConvergenceError)
        assert str(caught.value) == str(fresh)
    assert limits._plane(rep, 1, x, 0.5, 1e-10, stop) is value
    assert list(limits._WALKS.popitem()[1].values) == [(0.5, 1e-10)]
