"""Margin tables and certificates on diagonal, positive and Schottky examples."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from gapcert.domination import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    CertifyOptions,
    certify,
    directed_anosov_certify,
    margins,
    primitive_stable_certify,
    slope_tolerance,
)
from gapcert.errors import BudgetError, EmptySubsetError
from gapcert.linalg import Representation, evaluate, gap_margin
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    gamma_p_plus,
    hat,
)
from gapcert.words import Letter, parse_word

LOG8 = math.log(8.0)
A_LETTER = Letter(1, 1)
B_LETTER = Letter(2, 1)


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
        assert cert.residual_min >= -1e-6
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
    # zero margins only below t_refute: no refutation, no growth either
    cert = certify(z_rep(), z_axis(), 2, 4, CertifyOptions(t_refute=6))
    assert cert.verdict == INCONCLUSIVE
    assert cert.counterexample is None


def test_positive_pair_directed_certified():
    rep = Representation.of(
        [np.array([[3.0, 1.0], [1.0, 1.0]]), np.array([[3.0, 0.0], [1.0, 1.0]])]
    )
    cert = directed_anosov_certify(rep, 1, {A_LETTER, B_LETTER}, 12)
    assert cert.verdict == CERTIFIED
    assert cert.lambda_hat > 0.0
    assert_certificate_invariants(cert)


def test_directed_empty_steps():
    with pytest.raises(EmptySubsetError):
        directed_anosov_certify(example_56_rep(), 1, set(), 8)


def test_directed_inverse_pair_matches_axis():
    rep = example_56_rep()
    mixed = Directed(2, frozenset({Letter(1, 1), Letter(1, -1)}), True)
    got = margins(rep, mixed, 1, 8)
    expect = margins(rep, AxisFamily(2, (parse_word("a"),)), 1, 8)
    assert set(got) == set(expect)
    for t in got:
        assert got[t][0] == pytest.approx(expect[t][0], abs=1e-12)


def test_primitive_stable_schottky_certified():
    cert = primitive_stable_certify(schottky_rep(), 1, 4, 10)
    assert cert.verdict == CERTIFIED
    assert cert.lambda_hat > 1.0
    assert not cert.complete
    assert any("truncated" in note for note in cert.notes)
    assert_certificate_invariants(cert)


def test_primitive_stable_identity_refuted():
    rep = Representation.of([np.eye(2), np.eye(2)])
    cert = primitive_stable_certify(rep, 1, 3, 8)
    assert cert.verdict == REFUTED
    assert cert.counterexample == parse_word("aaaaaa")


def test_primitive_stable_rank_one_rejected():
    with pytest.raises(ValueError):
        primitive_stable_certify(z_rep(), 1, 3, 8)


# ---------------------------------------------------------------------------
# the level engine against a per-word reference


@st.composite
def engine_cases(draw):
    """A representation and a subset of each of the four kinds, d in {2, 3}.

    Integer generators make exact ties between words common, which is what
    exercises the argmin tie-break.
    """
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("full", "directed", "axis", "primitive")))
    rank = 2 if kind == "primitive" else draw(st.integers(1, 2))
    if kind == "full":
        spec = FullBoundary(rank)
    elif kind == "directed":
        steps = draw(st.sets(helpers.letters(rank), min_size=1))
        spec = Directed(rank, frozenset(steps), allow_inverse_pairs=True)
    elif kind == "axis":
        axis = helpers.cyclically_reduced_words(rank, 1, 4)
        words = draw(st.lists(axis, min_size=1, max_size=3))
        spec = AxisFamily(rank, tuple(words))
    else:
        spec = Primitive(2, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gens = [rng.integers(-2, 3, size=(dim, dim)).astype(float) for _ in range(rank)]
        assume(all(abs(np.linalg.det(g)) > 0.5 for g in gens))
    else:
        gens = [helpers.random_invertible(rng, dim) for _ in range(rank)]
    return Representation.of(gens), spec, draw(st.integers(2, 6))


def per_word_margins(rep, sample, k):
    """Reference: one evaluate and one SVD per word, first strict minimum."""
    table = {}
    for w in sample.words():
        m = gap_margin(evaluate(rep, w), k)
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
    from gapcert.words import concat, invert

    sample = gamma_p_plus(spec, 4)
    from gapcert.linalg import log_conorm, log_norm

    for beta in reduced_ball(2, 1):
        cost = log_norm(evaluate(rep, beta)) - log_conorm(evaluate(rep, beta))
        cost += log_norm(evaluate(rep, invert(beta))) - log_conorm(
            evaluate(rep, invert(beta))
        )
        for w in list(sample.words())[:20]:
            plain = gap_margin(evaluate(rep, w), 1)
            wrapped = gap_margin(
                evaluate(rep, concat(concat(beta, w), invert(beta))), 1
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
    # keep window margins below ~36, the double-precision ratio ceiling
    c1 = certify(base, z_axis_f2(), 1, 12)
    c2 = certify(conj, z_axis_f2(), 1, 12)
    assert c1.verdict == CERTIFIED and c2.verdict == CERTIFIED
    assert abs(c1.lambda_hat - c2.lambda_hat) <= slope_tolerance(c1, c2)


def test_scalar_invariance():
    rep = schottky_rep()
    scaled_gens = [8.0 * rep.image(A_LETTER), rep.image(B_LETTER)]
    scaled_rep = Representation.of(scaled_gens)
    spec = AxisFamily(2, (parse_word("ab"),))
    base_table = margins(rep, spec, 1, 8)
    scaled_table = margins(scaled_rep, spec, 1, 8)
    for t in base_table:
        assert base_table[t][0] == pytest.approx(scaled_table[t][0], abs=1e-10)
