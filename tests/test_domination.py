"""Margin tables and certificates on diagonal, positive and Schottky examples."""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gapcert import domination, subsets
from helpers import gap_margin, log_conorm, log_norm, margins
from gapcert.domination import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTE_LENGTH,
    REFUTED,
    CertifyOptions,
    _fit_slope,
    certify,
)
from gapcert.errors import BudgetError
from gapcert.flow import stability_probe
from gapcert.linalg import (
    GRAM_GAP_FLOOR,
    Representation,
    ScaledMatrix,
    evaluate,
    power_images,
    stacked_log_tops,
    stacked_margins,
    stacked_top_singular,
    walked_tops,
)
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    gamma_p_plus,
    hat,
)
from gapcert.words import parse_word

LOG8 = math.log(8.0)
A_LETTER = 0  # the letter codes of a and b
B_LETTER = 2


def z_rep():
    """Rank-one action by diag(4, 1/2, 1/2)."""
    return Representation.of([np.diag([4.0, 0.5, 0.5])])


def z_axis():
    return AxisFamily(1, (parse_word("a"),))


def z_axis_f2():
    return AxisFamily(2, (parse_word("a"),))


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


def assert_certificate_invariants(cert):
    for t, m in cert.margins.items():
        assert m >= 0.0
        assert len(cert.argmins[t]) == t
    if cert.verdict == CERTIFIED:
        assert cert.lambda_hat >= 0.02
    if cert.verdict == REFUTED:
        assert cert.counterexample is not None
        t = len(cert.counterexample)
        assert t >= 6 and cert.margins[t] <= 1e-12


# ---------------------------------------------------------------------------
# margin tables


def test_z_margins_linear():
    table = margins(z_rep(), z_axis(), 1, 12)
    for t in range(1, 13):
        m, arg = table[t]
        assert m == pytest.approx(t * LOG8, abs=1e-9)
        assert arg == parse_word("a" * t)


def test_z_margins_no_second_gap():
    table = margins(z_rep(), z_axis(), 2, 12)
    for t, (m, _) in table.items():
        assert m == pytest.approx(0.0, abs=1e-12)


def test_identity_rep_margins_zero():
    rep = Representation.of([np.eye(2), np.eye(2)])
    table = margins(rep, FullBoundary(2), 1, 4)
    assert set(table) == {1, 2, 3, 4}
    for m, _ in table.values():
        assert m == 0.0


def test_margin_budget_validation():
    with pytest.raises(BudgetError):
        margins(z_rep(), z_axis(), 1, 1)
    with pytest.raises(ValueError):
        margins(z_rep(), z_axis(), 3, 4)


# ---------------------------------------------------------------------------
# certificates


def test_z_certified_k1():
    cert = certify(z_rep(), z_axis(), 1, 20)
    assert cert.verdict == CERTIFIED
    assert cert.lambda_hat == pytest.approx(LOG8, abs=1e-9)
    assert cert.c_hat == pytest.approx(0.0, abs=1e-8)
    assert cert.fit_window == (10, 20)
    assert cert.complete
    assert math.isfinite(cert.slope_stderr)
    assert_certificate_invariants(cert)


def test_z_refuted_k2():
    cert = certify(z_rep(), z_axis(), 2, 20)
    assert cert.verdict == REFUTED
    assert cert.counterexample == parse_word("aaaaaa")
    assert_certificate_invariants(cert)


def test_low_scale_is_inconclusive_not_refuted():
    # zero margins only below REFUTE_LENGTH: no refutation, no growth either
    assert REFUTE_LENGTH == 6
    cert = certify(z_rep(), z_axis(), 2, 4)
    assert cert.verdict == INCONCLUSIVE
    assert cert.counterexample is None


def test_positive_pair_directed_certified():
    rep = Representation.of(
        [np.array([[3.0, 1.0], [1.0, 1.0]]), np.array([[3.0, 0.0], [1.0, 1.0]])]
    )
    spec = Directed(2, frozenset({A_LETTER, B_LETTER}))
    cert = certify(rep, spec, 1, 12)
    assert cert.verdict == CERTIFIED
    assert cert.lambda_hat > 0.0
    assert_certificate_invariants(cert)


def test_directed_empty_steps():
    with pytest.raises(ValueError, match="nonempty"):
        Directed(2, frozenset())


def test_directed_inverse_pair_matches_axis():
    rep = example_56_rep()
    mixed = Directed(2, frozenset({A_LETTER, A_LETTER ^ 1}))
    got = margins(rep, mixed, 1, 8)
    expect = margins(rep, AxisFamily(2, (parse_word("a"),)), 1, 8)
    assert set(got) == set(expect)
    for t in got:
        assert got[t][0] == pytest.approx(expect[t][0], abs=1e-12)


def test_primitive_stable_schottky_certified():
    cert = certify(schottky_rep(), Primitive(2, 4), 1, 10)
    assert cert.verdict == CERTIFIED
    assert cert.lambda_hat > 1.0
    assert not cert.complete
    assert any("truncated" in note for note in cert.notes)
    assert_certificate_invariants(cert)


def test_primitive_stable_identity_refuted():
    rep = Representation.of([np.eye(2), np.eye(2)])
    cert = certify(rep, Primitive(2, 3), 1, 8)
    assert cert.verdict == REFUTED
    assert cert.counterexample == parse_word("aaaaaa")


def test_primitive_stable_rank_one_rejected():
    with pytest.raises(ValueError, match="rank >= 2"):
        Primitive(z_rep().rank, 3)


# ---------------------------------------------------------------------------
# the certificate memo


def certificate_bits(cert):
    """Every field of a certificate, each float as its bytes, so NaN
    matches NaN and 0.0 does not match -0.0."""

    def bits(value):
        if isinstance(value, float):
            return struct.pack("<d", value)
        if isinstance(value, dict):
            return [(key, bits(item)) for key, item in value.items()]
        if isinstance(value, tuple):
            return [bits(item) for item in value]
        return value

    return {name: bits(getattr(cert, name)) for name in cert._fields}


MEMO_CASES = {
    "d2": lambda: (schottky_rep(), directed_ab(), 1, 10),
    "d3": lambda: (helpers.pingpong_rep(1), FullBoundary(2), 2, 5),
    "refuted": lambda: (z_rep(), z_axis(), 2, 12),  # with a counterexample
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memo_hit_is_bitwise_a_fresh_certificate(monkeypatch, case):
    rep, spec, k, budget = MEMO_CASES[case]()
    walks = helpers.count_walks(monkeypatch)
    first = certify(rep, spec, k, budget)
    hit = certify(rep, spec, k, budget)
    assert len(walks) == 1
    domination._MEMO.clear()
    fresh = certify(rep, spec, k, budget)
    assert len(walks) == 2
    assert certificate_bits(hit) == certificate_bits(fresh)
    assert certificate_bits(first) == certificate_bits(fresh)
    assert hit.margins is not first.margins and hit.argmins is not first.argmins


def test_memo_misses_on_any_change_of_its_key(monkeypatch):
    rep = helpers.pingpong_rep(1)
    nudged = rep.image(A_LETTER).copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], math.inf)  # one ulp
    nudged_rep = Representation.of([nudged, rep.image(B_LETTER)])
    calls = [
        (rep, FullBoundary(2), 1, 5, CertifyOptions()),
        (nudged_rep, FullBoundary(2), 1, 5, CertifyOptions()),
        (rep, FullBoundary(2), 2, 5, CertifyOptions()),
        (rep, FullBoundary(2), 1, 6, CertifyOptions()),
        (rep, directed_ab(), 1, 5, CertifyOptions()),
        (rep, FullBoundary(2), 1, 5, CertifyOptions(lambda_min=0.03)),
    ]
    assert len(calls) <= domination.MEMO_SIZE
    walks = helpers.count_walks(monkeypatch)
    made = [certify(*call) for call in calls]
    assert len(walks) == len(calls)
    # one ulp moves the certificate, so a hit there would be wrong
    assert made[1].margins != made[0].margins
    # every one is kept
    again = [certify(*call) for call in calls]
    assert len(walks) == len(calls)
    for cert, kept in zip(made, again):
        assert certificate_bits(cert) == certificate_bits(kept)


def test_memo_hands_out_copies(monkeypatch):
    rep, spec = schottky_rep(), directed_ab()
    walks = helpers.count_walks(monkeypatch)
    expected = certificate_bits(certify(rep, spec, 1, 8))
    for _ in range(2):
        cert = certify(rep, spec, 1, 8)
        assert certificate_bits(cert) == expected
        cert.margins[8] = -1.0
        cert.argmins.clear()
    assert len(walks) == 1
    assert certificate_bits(certify(rep, spec, 1, 8)) == expected


def test_memo_keeps_no_error():
    # primitivity search stops above rank 6, inside the enumeration
    rep = Representation.of([np.diag([2.0, 0.5])] * 7)
    for _ in range(2):
        with pytest.raises(BudgetError, match="rank <= 6"):
            certify(rep, Primitive(7, 2), 1, 4)
        assert not domination._MEMO
    with pytest.raises(BudgetError):
        certify(z_rep(), z_axis(), 1, 1)
    assert not domination._MEMO


def test_certify_refuses_a_subset_of_another_rank():
    rep = Representation.of([np.diag([5.0, 0.2])] * 2)
    with pytest.raises(ValueError, match="rank 3, the representation of rank 2"):
        certify(rep, FullBoundary(3), 1, 6)
    assert not domination._MEMO


def test_memo_keeps_only_the_most_recent(monkeypatch):
    rep, spec = z_rep(), z_axis()
    size = domination.MEMO_SIZE
    budgets = list(range(2, size + 5))
    walks = helpers.count_walks(monkeypatch)
    for budget in budgets:
        certify(rep, spec, 1, budget)
        assert len(domination._MEMO) <= size
    assert len(walks) == len(budgets)
    # a hit is recent again: the oldest kept budget outlives the next miss
    certify(rep, spec, 1, budgets[-size])
    certify(rep, spec, 1, budgets[0])
    assert len(walks) == len(budgets) + 1
    for budget in [budgets[-size]] + budgets[-size + 2 :]:
        certify(rep, spec, 1, budget)
    assert len(walks) == len(budgets) + 1
    certify(rep, spec, 1, budgets[-size + 1])
    assert len(walks) == len(budgets) + 2
    assert len(domination._MEMO) == size


# ---------------------------------------------------------------------------
# the level engine against a per-word reference


def engine_cases():
    """A representation and a subset of each of the four kinds, d in
    {2, 3, 4}, with a budget.  Integer generators make exact ties between
    words common, which is what exercises the argmin tie-break."""
    return st.tuples(helpers.reps_and_subsets((2, 3, 4)), st.integers(2, 6)).map(
        lambda case: (*case[0], case[1])
    )


def word_tops(rep, w, k, closed):
    """walked_tops of one word on a one-row stack: each walked power's
    product of the letters' power_images taken letter by letter with
    ScaledMatrix.times."""
    walks = []
    for powers, images in power_images(rep, k, closed):
        products = []
        for i in range(len(powers)):
            product = ScaledMatrix.identity(images.shape[-1])
            for letter in w:
                product = product.times(images[letter, i])
            products.append(product)
        cores = np.stack([p.core for p in products])
        walks.append((powers, cores[None], np.array([[p.logscale for p in products]])))
    return walked_tops(walks)


def word_margin(rep, w, k, closed=False):
    """One word's margin: its word_tops, the letters' log|det| summed left
    to right, and one stacked_margins call.  On an inversion-closed sample
    (closed) the powers above d/2 are read from the same walk of w^-1,
    stacked as a second row that the inverse rows point to."""
    words = [w, w.inverse()] if closed else [w]
    logdets = []
    for u in words:
        logdet = 0.0
        for letter in u:
            logdet = logdet + rep.stacked_logdets[letter]
        logdets.append(logdet)
    tops = [word_tops(rep, u, k, closed) for u in words]
    stacked = {j: np.concatenate([t[j] for t in tops]) for j in tops[0]}
    inverse = np.array([1, 0]) if closed else None
    return float(stacked_margins(stacked, np.array(logdets), k, rep.dim, inverse)[0])


def per_word_margins(rep, sample, k):
    """Reference: one word_margin per word, first strict minimum; the
    sample is closed when it has its inverse rows."""
    closed = sample.inverse_rows is not None
    table = {}
    for w in helpers.sample_words(sample):
        m = word_margin(rep, w, k, closed)
        if len(w) not in table or m < table[len(w)][0]:
            table[len(w)] = (m, w)
    return table


@given(engine_cases())
@settings(max_examples=60, deadline=None)
def test_level_engine_matches_per_word_reference(case):
    rep, spec, budget = case
    sample = gamma_p_plus(spec, budget)
    for k in range(1, rep.dim):
        assert margins(rep, spec, k, budget) == per_word_margins(rep, sample, k)


def test_level_blocks_leave_the_margins(monkeypatch, rng):
    # levels longer than a block are made block by block, and blocks that
    # split a level write their products where the next level reads them:
    # the tables keep the per-word reference's bits at d = 2, 3 and 4, for
    # one representation (blocks of 7 words) and a stack of three (blocks
    # of 2 words).  On the closed sample a word's inverse sits in another
    # block, whose tops the level keeps; the open one walks the duals
    monkeypatch.setattr(domination, "STACK_ROWS", 7)
    closed = gamma_p_plus(FullBoundary(2), 5)
    open_ = gamma_p_plus(Directed(2, frozenset({A_LETTER, B_LETTER, B_LETTER ^ 1})), 5)
    assert closed.inverse_rows is not None and open_.inverse_rows is None
    for sample in (closed, open_):
        for d in (2, 3, 4):
            reps = [
                Representation.of(
                    [helpers.random_invertible(rng, d) for _ in range(2)]
                )
                for _ in range(3)
            ]
            for k in range(1, d):
                references = [per_word_margins(rep, sample, k) for rep in reps]
                for stack in (reps[:1], reps):
                    tables = domination._margin_tables(stack, sample, k)
                    assert tables == references[: len(stack)]


# The inversion-closed subsets of the complementary-reading cases.
CLOSED_SPECS = (
    FullBoundary(2),
    Primitive(2, 6),
    AxisFamily(2, (parse_word("ab"), parse_word("BA"))),
)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_complementary_reads_match_the_direct_walk(rng, dim):
    # sigma_1(wedge^j M) = |det M| sigma_1(wedge^(d-j) M^-1): every word's
    # margin read at its inverse word agrees with the dual or wedge^j walk
    # of the word itself, at every k, to rounding
    for spec in CLOSED_SPECS:
        sample = gamma_p_plus(spec, 6)
        reps = [
            Representation.of([helpers.random_invertible(rng, dim) for _ in range(2)])
            for _ in range(2)
        ] + ([helpers.pingpong_rep(1)] if dim == 3 else [])
        for k in range(1, dim):
            direct = domination._level_margins(reps, sample.levels, k)
            read = domination._level_margins(reps, sample.levels, k, sample.inverse_rows)
            for first, second in zip(direct, read, strict=True):
                assert np.all(np.abs(first - second) <= 1e-13 * (1.0 + np.abs(first)))


def directed_ab():
    return Directed(2, frozenset({A_LETTER, B_LETTER}))


def oracle_margin(rep, w):
    """log sigma_1 - log sigma_2 of a 2 x 2 word product in 50-digit
    arithmetic, from the product's Frobenius norm and determinant."""
    with mpmath.workdps(50):
        product = mpmath.eye(2)
        for letter in w:
            product = product * mpmath.matrix(rep.image(letter).tolist())
        frob = sum(product[i, j] ** 2 for i in range(2) for j in range(2))
        det = abs(product[0, 0] * product[1, 1] - product[0, 1] * product[1, 0])
        top = (mpmath.sqrt(frob + 2 * det) + mpmath.sqrt(frob - 2 * det)) / 2
        return float(2 * mpmath.log(top) - mpmath.log(det))


@pytest.mark.parametrize("spec, budget", [(directed_ab(), 18), (FullBoundary(2), 11)])
def test_d2_argmin_margins_match_a_50_digit_oracle(spec, budget):
    # the SVD margin drifted by up to ~4.7 here, saturating near 36
    table = margins(schottky_rep(), spec, 1, budget)
    assert set(table) == set(range(1, budget + 1))
    for t, (m, w) in table.items():
        assert abs(m - oracle_margin(schottky_rep(), w)) <= 1e-12


# The subsets of the inversion-duality cases, one of each kind.
INVERSION_SPECS = (
    FullBoundary(2),
    directed_ab(),
    Directed(2, frozenset({A_LETTER, B_LETTER ^ 1})),
    AxisFamily(2, (parse_word("aab"),)),
    Primitive(2, 3),
)


def inversion_reps(rng, dim):
    """The representations of the inversion-duality cases in dimension dim
    (2 or 3): fixed ones, then random pairs drawn from rng."""
    if dim == 2:
        fixed, drawn = [schottky_rep(), example_56_rep()], 20
    else:
        fixed, drawn = [helpers.pingpong_rep(seed) for seed in (0, 1, 7)], 10
    return fixed + [
        Representation.of([helpers.random_invertible(rng, dim) for _ in range(2)])
        for _ in range(drawn)
    ]


def test_d2_margins_are_inversion_dual(rng):
    # m_1(M) = m_1(M^-1) for d = 2, and the flipped subset's words of each
    # length are the inverses of the subset's
    for rep in inversion_reps(rng, 2):
        for spec in INVERSION_SPECS:
            fwd = margins(rep, spec, 1, 7)
            bwd = margins(rep, hat(spec), 1, 7)
            assert set(fwd) == set(bwd)
            for t in fwd:
                assert abs(fwd[t][0] - bwd[t][0]) <= 1e-12 * (1.0 + fwd[t][0])
    fwd = margins(schottky_rep(), directed_ab(), 1, 16)
    bwd = margins(schottky_rep(), hat(directed_ab()), 1, 16)
    for t in fwd:
        assert abs(fwd[t][0] - bwd[t][0]) <= 1e-12 * (1.0 + fwd[t][0])


def test_d2_slope_does_not_saturate_with_the_budget():
    short = certify(schottky_rep(), directed_ab(), 1, 10)
    long = certify(schottky_rep(), directed_ab(), 1, 16)
    assert long.verdict == CERTIFIED
    assert max(long.margins.values()) > 40.0
    assert not any("saturation" in note for note in long.notes)
    assert abs(long.lambda_hat - short.lambda_hat) <= 1e-6


def test_d3_saturated_window_matches_a_100_digit_oracle():
    # diag(4, 1/2, 1/2) has sigma_2 = sigma_3, so its dual Gram has no top
    # gap and its dual rows take an SVD's sigma_1: margins past the SVD
    # gap's ~36 ceiling are measured to the last digits, and carry no
    # saturation note
    for k in (1, 2):
        cert = certify(z_rep(), z_axis(), k, 20)
        assert not any("saturation" in note for note in cert.notes)
        for t, m in cert.margins.items():
            assert abs(m - oracle_margin_k(z_rep(), cert.argmins[t], k, 100)) <= 1e-12
    assert max(certify(z_rep(), z_axis(), 1, 20).margins.values()) > 34.0


def test_d4_saturated_window_matches_a_100_digit_oracle():
    rep = Representation.of([np.diag([4.0, 0.5, 0.5, 0.25])])
    for k in (1, 2, 3):
        cert = certify(rep, z_axis(), k, 20)
        assert not any("saturation" in note for note in cert.notes)
        for t, m in cert.margins.items():
            assert abs(m - oracle_margin_k(rep, cert.argmins[t], k, 100)) <= 1e-12
    assert max(certify(rep, z_axis(), 1, 20).margins.values()) > 34.0


def near_rotation(rng, dim, size):
    """An orthogonal matrix near the identity: the Q of I + size * N(0, 1),
    its column signs fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(np.eye(dim) + size * rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def graded_d4_rep(seed):
    """Two non-symmetric generators Q diag(6, 2, 0.6, 0.15) R Q^T, Q and R
    seeded rotations near the identity: their positive words are dominated
    at every index, and sigma_1 / sigma_4 passes 1 / u by length 12."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        q = near_rotation(rng, 4, 0.3)
        twist = near_rotation(rng, 4, 0.1)
        gens.append(q @ np.diag([6.0, 2.0, 0.6, 0.15]) @ twist @ q.T)
    return Representation.of(gens)


@pytest.mark.parametrize("seed", [0, 1])
def test_d4_argmin_margins_match_a_100_digit_oracle(seed):
    # the margin of an SVD gap was off by up to ~6.4 log-units at k = 3 on
    # these words, where sigma_4 is lost below u sigma_1
    rep = graded_d4_rep(seed)
    for k in (1, 2, 3):
        table = margins(rep, directed_ab(), k, 12)
        assert set(table) == set(range(1, 13))
        for t, (m, w) in table.items():
            assert abs(m - oracle_margin_k(rep, w, k, 100)) <= 1e-12
    logs = oracle_log_singular_values(rep, table[12][1], 100)
    assert logs[0] - logs[3] > -math.log(U)


U = np.finfo(float).eps / 2.0


def oracle_log_singular_values(rep, w, dps=50):
    """log sigma_1, ..., log sigma_d of a word product in dps-digit
    arithmetic, from an mpmath SVD of the product of the letter images.
    sigma_i carries an absolute error near 10^-dps sigma_1, so dps must
    exceed the digits of sigma_1 / sigma_d."""
    with mpmath.workdps(dps):
        product = mpmath.eye(rep.dim)
        for letter in w:
            product = product * mpmath.matrix(rep.image(letter).tolist())
        return [mpmath.log(s) for s in mpmath.svd_r(product, compute_uv=False)]


def oracle_margin_k(rep, w, k, dps=50):
    logs = oracle_log_singular_values(rep, w, dps)
    return float(logs[k - 1] - logs[k])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_d3_argmin_margins_match_a_50_digit_oracle(seed):
    # the certify-full generators; the SVD margin was off by up to ~5e-7
    # at k = 2 on these words
    rep = helpers.pingpong_rep(seed)
    for k in (1, 2):
        table = margins(rep, FullBoundary(2), k, 7)
        assert set(table) == set(range(1, 8))
        for t, (m, w) in table.items():
            assert abs(m - oracle_margin_k(rep, w, k)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_d3_primitive_argmin_margins_match_a_100_digit_oracle(seed):
    # the primitive words are closed under inversion: each power above
    # d/2 is read at the inverse word
    rep, spec = helpers.pingpong_rep(seed), Primitive(2, 8)
    assert gamma_p_plus(spec, 10).inverse_rows is not None
    for k in (1, 2):
        table = margins(rep, spec, k, 10)
        assert set(table) == set(range(1, 11))
        for t, (m, w) in table.items():
            assert abs(m - oracle_margin_k(rep, w, k, 100)) <= 1e-12


def test_d2_and_open_samples_build_no_index(monkeypatch):
    # d = 2 reads no complementary power, so neither the benchmark's
    # stability probe nor a certificate on the full boundary builds the
    # inverse rows; a d = 3 certificate on Directed{a,b}, which misses
    # every inverse, builds none either and keeps the dual walk's bits
    built = []
    build = subsets._inverse_rows
    monkeypatch.setattr(
        subsets, "_inverse_rows", lambda *args: built.append(args) or build(*args)
    )
    stability_probe(schottky_rep(), directed_ab(), 1, 1e-3, 20, 10, seed=5)
    certify(schottky_rep(), FullBoundary(2), 1, 8)
    rep = helpers.pingpong_rep(1)
    sample = gamma_p_plus(directed_ab(), 8)
    for k in (1, 2):
        assert margins(rep, directed_ab(), k, 8) == per_word_margins(rep, sample, k)
        certify(rep, directed_ab(), k, 8)
    assert built == []
    assert sample.inverse_rows is None


def test_d3_margins_are_inversion_dual(rng):
    # m_1(M) = m_2(M^-1), and the flipped subset's words of each length
    # are the inverses of the subset's
    for rep in inversion_reps(rng, 3):
        for spec in INVERSION_SPECS:
            fwd = margins(rep, spec, 1, 6)
            bwd = margins(rep, hat(spec), 2, 6)
            assert set(fwd) == set(bwd)
            for t in fwd:
                assert abs(fwd[t][0] - bwd[t][0]) <= 1e-12 * (1.0 + fwd[t][0])


@pytest.mark.parametrize("dim", [2, 3])
def test_flipped_certificate_is_the_subset_certificate(rng, dim):
    # the backward limit planes read the (subset, k) certificate: the
    # flipped subset at d - k gets the same verdict and rate, by the
    # margins' inversion duality above
    for rep in inversion_reps(rng, dim):
        for spec in INVERSION_SPECS:
            for k in range(1, dim):
                for budget in (6, 8):
                    fwd = certify(rep, spec, k, budget)
                    bwd = certify(rep, hat(spec), dim - k, budget)
                    assert fwd.verdict == bwd.verdict
                    lam = fwd.lambda_hat
                    assert abs(lam - bwd.lambda_hat) <= 1e-12 * (1.0 + abs(lam))


def test_d3_margins_near_the_gap_floor_stay_within_the_bar():
    # diag(4, 1/2, 1/2 + delta), conjugated by a rotation, has a relative
    # top gap of 1 - r^(2t) in its dual Gram at a^t, r the ratio of 1/2 and
    # 1/2 + delta below 1.  At the floors' deltas the one-letter dual row
    # changes path, from the Gram form above the floor to an SVD's sigma_1
    # below it.  Either side is within the sigma_1 bar: the margin sums
    # three log top singular values, each within about n u of the truth,
    # and the dual's, near the floor, within n u / GRAM_GAP_FLOOR
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    floors = (
        0.5 / math.sqrt(1.0 - GRAM_GAP_FLOOR) - 0.5,
        0.5 * math.sqrt(1.0 - GRAM_GAP_FLOOR) - 0.5,
    )
    edges = [(f * (1.0 + s), s > 0) for f in floors for s in (-1e-6, 1e-6)]
    for delta, closed in edges + [(d, None) for d in (1e-4, -1e-4, 3e-5, -3e-5)]:
        rep = Representation.of([q @ np.diag([4.0, 0.5, 0.5 + delta]) @ q.T])
        if closed is not None:
            dual = helpers.scaled_matrix(rep.stacked_duals[0]).core[None]
            top = stacked_log_tops(dual, np.zeros(1))[0]
            if closed:
                assert top == stacked_top_singular(dual)[0][0]
            else:
                assert top == np.log(np.linalg.svd(dual, compute_uv=False)[0, 0])
        for k in (1, 2):
            table = margins(rep, AxisFamily(1, (parse_word("a"),)), k, 10)
            for t, (m, w) in table.items():
                logs = oracle_log_singular_values(rep, w, 60)
                bar = t * U * (3.0 + 1.0 / GRAM_GAP_FLOOR)
                assert abs(m - float(logs[k - 1] - logs[k])) <= bar


def test_d3_slope_does_not_saturate_with_the_budget():
    # the closed form measures margins past the SVD's ~36 ceiling, so the
    # slope at budget 30 is the slope at budget 16, and no note is due
    rep = helpers.pingpong_rep(1)
    spec = AxisFamily(2, (parse_word("a"),))
    for k in (1, 2):
        short = certify(rep, spec, k, 16)
        long = certify(rep, spec, k, 30)
        assert long.verdict == CERTIFIED
        assert max(long.margins.values()) > 40.0
        assert not any("saturation" in note for note in long.notes)
        assert abs(long.lambda_hat - short.lambda_hat) <= 1e-6
        for t, m in long.margins.items():
            assert abs(m - oracle_margin_k(rep, long.argmins[t], k, 100)) <= 1e-12


def test_huge_generator_scale_leaves_margins():
    for rep in (schottky_rep(), example_56_rep()):
        huge = Representation.of([1e200 * rep.image(A_LETTER), rep.image(B_LETTER)])
        for spec in (FullBoundary(2), Directed(2, frozenset({A_LETTER, B_LETTER}))):
            base = margins(rep, spec, 1, 6)
            scaled = margins(huge, spec, 1, 6)
            for t in base:
                assert abs(scaled[t][0] - base[t][0]) <= 1e-9


# ---------------------------------------------------------------------------
# bounded conjugation


def test_wrapping_by_a_commuting_letter_keeps_the_margin():
    rep = Representation.of([np.diag([4.0, 0.5, 0.5]), np.eye(3)])
    for n in range(1, 6):
        plain = gap_margin(evaluate(rep, parse_word("a" * n)), 1)
        wrapped = gap_margin(evaluate(rep, parse_word("b" + "a" * n + "B")), 1)
        assert wrapped == pytest.approx(plain, abs=1e-12)


def test_conj_margin_drop_bounded(rng):
    rep = Representation.of(
        [helpers.random_invertible(rng, 3), helpers.random_invertible(rng, 3)]
    )
    spec = Directed(2, frozenset({A_LETTER, B_LETTER}))
    from gapcert.subsets import gamma_p_plus, reduced_ball
    from gapcert.words import concat

    sample = gamma_p_plus(spec, 4)
    for beta in reduced_ball(range(4), 1):
        cost = log_norm(evaluate(rep, beta)) - log_conorm(evaluate(rep, beta))
        cost += log_norm(evaluate(rep, beta.inverse())) - log_conorm(
            evaluate(rep, beta.inverse())
        )
        for w in list(helpers.sample_words(sample))[:20]:
            plain = gap_margin(evaluate(rep, w), 1)
            wrapped = gap_margin(
                evaluate(rep, concat(concat(beta, w), beta.inverse())), 1
            )
            assert wrapped >= plain - cost - 1e-9


# ---------------------------------------------------------------------------
# structural invariants


def test_inversion_symmetry_of_margins():
    rep = Representation.of([np.diag([4.0, 0.5, 0.5]), np.eye(3)])
    spec = z_axis_f2()
    fwd = margins(rep, spec, 1, 8)
    bwd = margins(rep, hat(spec), 2, 8)
    assert set(fwd) == set(bwd)
    for t in fwd:
        assert fwd[t][0] == pytest.approx(bwd[t][0], abs=1e-9)


def test_subset_monotonicity():
    rep = schottky_rep()
    sub = margins(rep, AxisFamily(2, (parse_word("ab"),)), 1, 6)
    full = margins(rep, Primitive(2, 3), 1, 6)
    for t in sub:
        assert sub[t][0] >= full[t][0] - 1e-12


def test_conjugation_leaves_slope(rng):
    base = Representation.of([np.diag([4.0, 0.5, 0.5]), np.eye(3)])
    g = helpers.random_invertible(rng, 3, spread=1.0)
    ginv = np.linalg.inv(g)
    conj = Representation.of(
        [g @ base.image(A_LETTER) @ ginv, g @ base.image(B_LETTER) @ ginv]
    )
    c1 = certify(base, z_axis_f2(), 1, 12)
    c2 = certify(conj, z_axis_f2(), 1, 12)
    assert c1.verdict == CERTIFIED and c2.verdict == CERTIFIED
    # conjugation moves each singular value by at most a factor kappa(g),
    # so each margin by at most 2 log kappa, and the least-squares slope
    # sum_t w_t m_t (sum w_t = 0) by at most 2 log kappa * sum |w_t|.  The
    # exact slopes differ by 2.8e-7, more than twice the fit's standard
    # error: only the SVD's rounding made that bound hold before
    drift = 2.0 * math.log(np.linalg.cond(g))
    lo, hi = c2.fit_window
    ts = np.arange(lo, hi + 1, dtype=float)
    weights = (ts - ts.mean()) / ((ts - ts.mean()) ** 2).sum()
    for t in c1.margins:
        assert abs(c2.margins[t] - c1.margins[t]) <= drift
    assert abs(c1.lambda_hat - c2.lambda_hat) <= drift * np.abs(weights).sum()
    # each computed slope is the slope of the 60-digit oracle margins
    for rep, cert in ((base, c1), (conj, c2)):
        exact = [
            (t, oracle_margin_k(rep, cert.argmins[t], 1, 60)) for t in range(lo, hi + 1)
        ]
        assert abs(cert.lambda_hat - _fit_slope(exact)[0]) <= 1e-12


def test_scalar_invariance():
    rep = schottky_rep()
    scaled_gens = [8.0 * rep.image(A_LETTER), rep.image(B_LETTER)]
    scaled_rep = Representation.of(scaled_gens)
    spec = AxisFamily(2, (parse_word("ab"),))
    base_table = margins(rep, spec, 1, 8)
    scaled_table = margins(scaled_rep, spec, 1, 8)
    for t in base_table:
        assert base_table[t][0] == pytest.approx(scaled_table[t][0], abs=1e-10)


# ---------------------------------------------------------------------------
# irreducible lifts and orthogonal conjugates: exact oracles for every d, k

# How far a certificate may move under an exact symmetry, relative to
# 1 + |value|: margins and lambda_hat of a lift or conjugate against those
# of the original.  A lift multiplies the cancellation in a word's product
# (the ratio of |g_1|...|g_t| to the product) by a power d - 1, and with it
# the rounding: over 750 random SL(2) pairs and subsets at d = 5 the
# margins moved by at most 1.0e-9 of this, lambda_hat by 2.2e-10.
SYMMETRY_BOUND = 1e-8


def sl2_image(rng):
    """A random matrix of SL(2): random_invertible with singular values in
    [1/e, e], its rows swapped when its determinant is negative, over the
    square root of its determinant."""
    g = helpers.random_invertible(rng, 2, spread=1.0)
    if np.linalg.det(g) < 0.0:
        g = g[::-1]
    return g / math.sqrt(np.linalg.det(g))


def assert_same_certificate(moved, base):
    assert moved.verdict == base.verdict
    assert set(moved.margins) == set(base.margins)
    for t, m in base.margins.items():
        assert abs(moved.margins[t] - m) <= SYMMETRY_BOUND * (1.0 + m)
    lam = base.lambda_hat
    assert abs(moved.lambda_hat - lam) <= SYMMETRY_BOUND * (1.0 + abs(lam))


# each subset of the lift cases with its budget
LIFT_SPECS = ((FullBoundary(2), 6), (directed_ab(), 8), (Primitive(2, 6), 8))


@given(
    st.integers(0, 2**32 - 1), st.sampled_from(LIFT_SPECS), st.integers(3, 5)
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sym_lift_certificates_are_the_d2_certificate(seed, case, dim):
    # Sym^(d-1) sends singular values s > 1/s to s^(d-1), s^(d-3), ...,
    # s^(1-d): every margin m_k of the lift is the margin m_1 of rep
    spec, budget = case
    rng = np.random.default_rng(seed)
    rep = Representation.of([sl2_image(rng), sl2_image(rng)])
    base = certify(rep, spec, 1, budget)
    lift = helpers.sym_lift(rep, dim)
    for k in range(1, dim):
        assert_same_certificate(certify(lift, spec, k, budget), base)


def test_schottky_lifts_certify_with_the_d2_rate():
    # the SVD gap refuted the Sym^4 lift at k = 4 and left d = 4 at k = 2
    # and 3 Inconclusive
    base = certify(schottky_rep(), FullBoundary(2), 1, 9)
    assert base.verdict == CERTIFIED
    assert round(base.lambda_hat, 4) == 2.4365
    for dim, budget in ((3, 9), (4, 9), (5, 7)):
        lift = helpers.sym_lift(schottky_rep(), dim)
        short = certify(schottky_rep(), FullBoundary(2), 1, budget)
        for k in range(1, dim):
            assert_same_certificate(certify(lift, FullBoundary(2), k, budget), short)


def test_orthogonal_conjugates_keep_verdicts_and_rates():
    # Q diag(4, 1/2, 1/2) Q^T has sigma_2 = sigma_3 on every power: the SVD
    # gap read rounding noise there and certified it at k = 2
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    rep = Representation.of([q @ np.diag([4.0, 0.5, 0.5]) @ q.T])
    for budget in (12, 16, 20):
        assert certify(rep, z_axis(), 2, budget).verdict == REFUTED
    for seed in range(4):
        rep = helpers.pingpong_rep(seed)
        q, _ = np.linalg.qr(np.random.default_rng(100 + seed).normal(size=(3, 3)))
        conj = Representation.of(
            [q @ rep.image(letter) @ q.T for letter in (A_LETTER, B_LETTER)]
        )
        for k in (1, 2):
            base = certify(rep, FullBoundary(2), k, 9)
            assert_same_certificate(certify(conj, FullBoundary(2), k, 9), base)
