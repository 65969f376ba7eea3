"""Word, boundary point and geodesic tests against naive oracles."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import helpers
from gapcert.errors import EmptyWordError
from gapcert.flow import shift
from gapcert.words import (
    EMPTY_WORD,
    BoundaryPoint,
    ReducedWord,
    boundary_point_to_string,
    concat,
    cyclic_reduce,
    gromov_product,
    letter_to_string,
    parse_boundary_point,
    parse_letter,
    parse_word,
    periodic_point,
    reduce,
    rotate,
    translate,
    visual_distance,
    word_to_string,
)

A = 0  # the letter codes of a and b
B = 2


# ---------------------------------------------------------------------------
# letters and words


def test_letter_basics():
    assert A ^ 1 == parse_letter("A")
    assert A ^ 1 ^ 1 == A
    assert letter_to_string(A) == "a" and letter_to_string(A ^ 1) == "A"
    assert A < A ^ 1 < B
    with pytest.raises(ValueError):
        parse_letter("1")
    with pytest.raises(ValueError):
        parse_letter("ab")
    with pytest.raises(ValueError):
        letter_to_string(-1)


def test_letters_past_the_alphabet_print_indexed():
    assert letter_to_string(52) == "x27" and letter_to_string(53) == "x27^-1"
    with pytest.raises(ValueError, match="not freely reduced at x27x27\\^-1"):
        ReducedWord((52, 53))


def test_word_construction_rejects_cancellation():
    with pytest.raises(ValueError):
        ReducedWord((A, A ^ 1))
    with pytest.raises(ValueError):
        parse_word("abBc")


def test_word_string_roundtrip_examples():
    for s in ["", "a", "abA", "aaBBa", "Abba"]:
        assert word_to_string(parse_word(s)) == s


@given(helpers.reduced_words(rank=3, max_len=10))
def test_word_string_roundtrip(w):
    assert parse_word(word_to_string(w)) == w


@given(st.lists(helpers.letters(rank=3), max_size=12))
def test_reduce_matches_naive(ls):
    assert reduce(ls).letters == helpers.naive_reduce(ls)


@given(helpers.reduced_words(rank=3), helpers.reduced_words(rank=3))
def test_concat_matches_naive(u, v):
    assert concat(u, v).letters == helpers.naive_reduce(u.letters + v.letters)


@given(
    helpers.reduced_words(rank=2),
    helpers.reduced_words(rank=2),
    helpers.reduced_words(rank=2),
)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(helpers.reduced_words(rank=3))
def test_inverse_is_inverse(w):
    assert concat(w, w.inverse()) == EMPTY_WORD
    assert concat(w.inverse(), w) == EMPTY_WORD
    assert w.inverse().inverse() == w


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(parse_word("abaBA"))
    assert word_to_string(core) == "a" and word_to_string(conj) == "ab"
    with pytest.raises(EmptyWordError):
        cyclic_reduce(EMPTY_WORD)


@given(helpers.reduced_words(rank=3, min_len=1))
def test_cyclic_reduce_properties(w):
    core, conj = cyclic_reduce(w)
    assert not core.is_empty()
    assert core.is_cyclically_reduced()
    assert concat(concat(conj, core), conj.inverse()) == w


@given(helpers.cyclically_reduced_words(rank=3), st.integers(-6, 6))
def test_rotate_is_conjugation(w, s):
    r = rotate(w, s)
    p = w.prefix(s % len(w))
    assert r == concat(concat(p.inverse(), w), p)
    assert len(r) == len(w)


# ---------------------------------------------------------------------------
# boundary points


def test_boundary_canonical_form_examples():
    x = BoundaryPoint(parse_word("aba"), parse_word("ba"))
    assert x == periodic_point(parse_word("ab"))
    assert boundary_point_to_string(x) == "(ab)"
    y = BoundaryPoint(parse_word("ab"), parse_word("abab"))
    assert y.period == parse_word("ab") and y.preperiod == EMPTY_WORD
    z = parse_boundary_point("aab|(a)")
    assert z.preperiod == parse_word("aab") and z.period == parse_word("a")
    assert parse_boundary_point("(ab)") == parse_boundary_point("|(ab)")


def test_boundary_rejects_bad_input():
    with pytest.raises(EmptyWordError):
        BoundaryPoint(EMPTY_WORD, EMPTY_WORD)
    with pytest.raises(ValueError):  # period not cyclically reduced
        BoundaryPoint(EMPTY_WORD, parse_word("abA"))
    with pytest.raises(ValueError):  # junction cancels
        BoundaryPoint(parse_word("aB"), parse_word("ba"))


@given(helpers.boundary_points(rank=3))
def test_boundary_canonical_invariants(x):
    # period is primitive: no proper power presentation survives
    per = x.period.letters
    for p in range(1, len(per)):
        if len(per) % p == 0:
            assert per != per[:p] * (len(per) // p)
    # preperiod is shortest
    if not x.preperiod.is_empty():
        assert x.preperiod.letters[-1] != x.period.letters[-1]


@given(helpers.reduced_words(rank=3, max_len=4), helpers.cyclically_reduced_words(rank=3))
def test_boundary_canonicalization_preserves_letters(pre, per):
    if not pre.is_empty() and pre.letters[-1] == per.letters[0] ^ 1:
        assume(False)
    x = BoundaryPoint(pre, per)
    n = len(pre) + 3 * len(per) + 5
    assert helpers.point_letters(x, n) == helpers.expand_point(pre.letters, per.letters, n)


@given(helpers.boundary_points(rank=2), helpers.boundary_points(rank=2))
def test_boundary_equality_matches_letterwise(x, y):
    n = (
        max(len(x.preperiod), len(y.preperiod))
        + math.lcm(len(x.period), len(y.period))
        + 2
    )
    same = helpers.point_letters(x, n) == helpers.point_letters(y, n)
    assert (x == y) == same


def test_prefix_examples():
    x = parse_boundary_point("ab|(ba)")
    assert word_to_string(x.prefix(5)) == "abbab"
    assert x.prefix(0) == EMPTY_WORD


# ---------------------------------------------------------------------------
# translation


def test_translate_examples():
    a_inf = periodic_point(parse_word("a"))
    assert translate(parse_word("A"), a_inf) == a_inf
    assert translate(parse_word("aab"), a_inf) == parse_boundary_point("aab|(a)")
    assert translate(parse_word("a"), periodic_point(parse_word("A"))) == periodic_point(
        parse_word("A")
    )
    # deep cancellation through the preperiod into the period
    x = parse_boundary_point("ab|(ab)")  # equals (ab)^inf after canonicalization
    assert translate(parse_word("BA"), x) == periodic_point(parse_word("ab"))


@given(helpers.reduced_words(rank=2, max_len=5), helpers.boundary_points(rank=2))
def test_translate_matches_letter_oracle(g, x):
    y = translate(g, x)
    n = len(g) + len(x.preperiod) + 4 * len(x.period) + 4
    spelled = helpers.naive_reduce(g.letters + helpers.point_letters(x, n + len(g)))
    assert helpers.point_letters(y, n) == spelled[:n]


@given(
    helpers.reduced_words(rank=2, max_len=4),
    helpers.reduced_words(rank=2, max_len=4),
    helpers.boundary_points(rank=2),
)
def test_translate_is_an_action(g, h, x):
    assert translate(concat(g, h), x) == translate(g, translate(h, x))
    assert translate(EMPTY_WORD, x) == x
    assert translate(g.inverse(), translate(g, x)) == x


# ---------------------------------------------------------------------------
# Gromov products and the visual metric


def naive_gromov(x, y, cap=64):
    if x == y:
        return math.inf
    for i in range(cap):
        if x.letter_at(i) != y.letter_at(i):
            return i
    raise AssertionError("cap too small")


@given(helpers.boundary_points(rank=2), helpers.boundary_points(rank=2))
def test_gromov_product_matches_scan(x, y):
    assert gromov_product(x, y) == naive_gromov(x, y)
    assert gromov_product(x, y) == gromov_product(y, x)


@given(helpers.reduced_words(rank=2, max_len=4), helpers.boundary_points(rank=2), helpers.boundary_points(rank=2))
def test_gromov_product_equivariance(g, x, y):
    moved = helpers.gromov_product_at(g, translate(g, x), translate(g, y))
    assert moved == gromov_product(x, y)


@given(
    helpers.boundary_points(rank=2),
    helpers.boundary_points(rank=2),
    helpers.boundary_points(rank=2),
)
def test_visual_metric_is_ultrametric(x, y, z):
    d = visual_distance
    assert d(x, y) <= max(d(x, z), d(z, y)) + 1e-15
    assert d(x, y) == d(y, x)
    assert (d(x, y) == 0.0) == (x == y)


def test_visual_distance_kappa():
    x = periodic_point(parse_word("a"))
    y = parse_boundary_point("aab|(a)")  # differs from x first at letter 2
    assert visual_distance(x, y) == pytest.approx(math.exp(-2.0))
    assert visual_distance(x, y, kappa=0.5) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError):
        visual_distance(x, y, kappa=0.0)


# ---------------------------------------------------------------------------
# geodesics: the line of a shift point, its marker at the identity


def vertex(x, t):
    """The vertex at time t on the line of x: the first t letters of its
    forward end, or the first -t of its backward end for t < 0."""
    return x.forward.prefix(t) if t >= 0 else x.backward.prefix(-t)


@given(helpers.shift_points(), st.integers(-5, 5), st.integers(-5, 5))
def test_geodesic_vertices_are_unit_speed(x, s, t):
    assert helpers.naive_distance(vertex(x, s), vertex(x, t)) == abs(s - t)


@given(helpers.shift_points(), st.integers(-4, 4), st.integers(-4, 4))
def test_reparametrize_shifts_vertices(x, s, t):
    # shift(x, s) sees the same line from the vertex s
    assert concat(vertex(x, s), vertex(shift(x, s), t)) == vertex(x, s + t)
