"""Subset descriptions, positive-word enumeration and primitivity tests.

The primitivity oracle is the classical count for rank 2: rotation classes
of primitive cyclic words of length n >= 2 are in bijection with coprime
integer pairs (p, q), p + q = n, p, q >= 1, taken with all four sign
choices, so there are exactly 4*phi(n) classes and 4*n*phi(n) words.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gapcert.errors import BudgetError, EmptyWordError
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    check_witness,
    enumerate_primitive_classes,
    gamma_p_plus,
    hat,
    is_primitive,
    letters_of_rank,
    q_plus_boundary,
    reduced_ball,
)
from gapcert.words import (
    EMPTY_WORD,
    Letter,
    ReducedWord,
    concat,
    invert,
    parse_word,
    periodic_point,
    reduce,
    rotate,
    word_to_string,
)


def words(*strings):
    return {parse_word(s) for s in strings}


def sample_words(sample):
    return set(sample.words())


# ---------------------------------------------------------------------------
# construction and canonical forms


def test_directed_validation():
    Directed(2, frozenset({parse_word("a")[0], parse_word("b")[0]}))
    with pytest.raises(ValueError):
        Directed(2, frozenset())
    with pytest.raises(ValueError):
        Directed(1, frozenset({Letter(2, 1)}))
    with pytest.raises(ValueError):
        Directed(2, frozenset({Letter(1, 1), Letter(1, -1)}))
    mixed = Directed(2, frozenset({Letter(1, 1), Letter(1, -1)}), True)
    assert len(mixed.steps) == 2


def test_axis_family_canonicalization():
    fam = AxisFamily(2, (parse_word("ba"), parse_word("Abaa")))
    # both inputs are conjugates of rotations of ab
    assert fam.words == (parse_word("ab"),)
    with pytest.raises(EmptyWordError):
        AxisFamily(2, (EMPTY_WORD,))


def test_primitive_validation():
    Primitive(2, 3)
    with pytest.raises(ValueError):
        Primitive(1, 3)
    with pytest.raises(ValueError):
        Primitive(2, 0)


# ---------------------------------------------------------------------------
# enumeration against hand-checked examples and a brute-force axis oracle


def test_full_boundary_sphere_one():
    sample = gamma_p_plus(FullBoundary(2), 1)
    assert sample_words(sample) == words("a", "b", "A", "B")
    assert sample.complete


def test_directed_example():
    spec = Directed(2, frozenset({Letter(1, 1), Letter(2, 1)}))
    sample = gamma_p_plus(spec, 2)
    assert sample_words(sample) == words("a", "b", "aa", "ab", "ba", "bb")
    assert sample.complete


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_directed_levels_are_whole_spheres_over_the_steps(rank):
    alphabet = letters_of_rank(rank)
    for mask in range(1, 1 << len(alphabet)):
        steps = [l for j, l in enumerate(alphabet) if mask >> j & 1]
        sample = gamma_p_plus(Directed(rank, frozenset(steps), True), 4)
        for t in range(1, 5):
            sphere = [
                ReducedWord(letters)
                for letters in itertools.product(steps, repeat=t)
                if all(u != v.inverse() for u, v in zip(letters, letters[1:]))
            ]
            assert sample.level_words(t) == sorted(sphere, key=ReducedWord.sort_key)
        outside = [l for l in alphabet if l not in steps]
        if outside:
            assert outside[0] not in sample.buckets[1]
            with pytest.raises(KeyError):
                sample.witness(ReducedWord((outside[0],)))


def test_axis_example_matches_brute_force():
    spec = AxisFamily(2, (parse_word("a"),))
    sample = gamma_p_plus(spec, 3)
    assert sample_words(sample) == words("a", "aa", "aaa")

    # brute force: for every g with |g| <= 6, check whether id lies on the
    # translated axis g.{a^t}; collect forward steps from id when it does
    found = set()
    a = parse_word("a")
    powers = {t: reduce((a if t >= 0 else invert(a)).letters * abs(t)) for t in range(-9, 10)}
    for g in reduced_ball(2, 6):
        on_axis = [t for t in range(-6, 7) if concat(g, powers[t]) == EMPTY_WORD]
        if not on_axis:
            continue
        t0 = on_axis[0]
        for n in range(1, 4):
            found.add(concat(g, powers[t0 + n]))
    assert found == sample_words(sample)


def test_axis_rotations_enumerated():
    spec = AxisFamily(2, (parse_word("ab"),))
    sample = gamma_p_plus(spec, 2)
    assert sample_words(sample) == words("a", "b", "ab", "ba")


def test_budget_errors():
    with pytest.raises(BudgetError):
        gamma_p_plus(FullBoundary(2), 0)
    sample = gamma_p_plus(FullBoundary(2), 3)
    with pytest.raises(BudgetError):
        sample.truncate(4)


@pytest.mark.parametrize(
    "spec",
    [
        FullBoundary(2),
        Directed(2, frozenset({Letter(1, 1), Letter(2, 1)})),
        Directed(1, frozenset({Letter(1, 1)})),
        AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        Primitive(2, 3),
    ],
    ids=["full", "directed", "directed-z", "axis", "primitive"],
)
def test_enumeration_properties(spec):
    budget = 5
    sample = gamma_p_plus(spec, budget)
    # stated lengths and witness soundness
    for t, bucket in sample.buckets.items():
        for w in bucket:
            assert len(w) == t
            assert check_witness(w, sample.witness(w))
    # monotonicity: truncation equals smaller-budget enumeration
    smaller = gamma_p_plus(spec, 3)
    assert sample.truncate(3).buckets == smaller.buckets
    # inversion duality, exact
    dual = gamma_p_plus(hat(spec), budget)
    for t in range(1, budget + 1):
        assert {invert(w) for w in sample.buckets[t]} == dual.buckets[t]
    # flipping twice returns the original description
    assert hat(hat(spec)) == spec


def test_hat_examples():
    d = Directed(2, frozenset({Letter(1, 1), Letter(2, 1)}))
    assert hat(d).steps == frozenset({Letter(1, -1), Letter(2, -1)})
    fam = AxisFamily(2, (parse_word("ab"),))
    assert hat(fam).words == (parse_word("AB"),)  # least rotation of (ab)^-1
    assert hat(FullBoundary(3)) == FullBoundary(3)


# ---------------------------------------------------------------------------
# boundary samples


def test_q_plus_examples():
    axis = AxisFamily(2, (parse_word("a"),))
    assert q_plus_boundary(axis, 1, 0) == {periodic_point(parse_word("a"))}

    directed = Directed(2, frozenset({Letter(1, 1), Letter(2, 1)}))
    got = q_plus_boundary(directed, 2, 0)
    expect = {
        periodic_point(parse_word(s)) for s in ["a", "b", "ab", "ba"]
    }
    assert got == expect

    # the probe family: a^m b . a^inf needs offset m+1
    m = 3
    probe = parse_word("aaab")
    shifted = q_plus_boundary(axis, 1, m + 1)
    from gapcert.words import parse_boundary_point

    assert parse_boundary_point("aaab|(a)") in shifted
    assert parse_boundary_point("aaab|(a)") not in q_plus_boundary(axis, 1, m)
    assert len(probe) == m + 1


def test_q_plus_points_have_bounded_period():
    spec = FullBoundary(2)
    for x in q_plus_boundary(spec, 2, 1):
        assert len(x.period) <= 2


# ---------------------------------------------------------------------------
# primitivity


def test_is_primitive_examples():
    assert is_primitive(parse_word("a"), 2)
    assert not is_primitive(parse_word("aa"), 2)
    assert is_primitive(parse_word("aab"), 2)
    assert is_primitive(parse_word("aabab"), 2)  # exponent pair (3, 2)
    assert not is_primitive(parse_word("abab"), 2)
    assert not is_primitive(parse_word("abAB"), 2)  # commutator
    assert is_primitive(parse_word("abc"), 3)
    assert not is_primitive(parse_word("aabbcc"), 3)
    with pytest.raises(EmptyWordError):
        is_primitive(EMPTY_WORD, 2)
    with pytest.raises(BudgetError):
        is_primitive(parse_word("a"), 7)


@given(
    helpers.cyclically_reduced_words(rank=2, max_len=5),
    helpers.reduced_words(rank=2, max_len=3),
)
@settings(max_examples=40, deadline=None)
def test_primitivity_invariance(w, g):
    value = is_primitive(w, 2)
    assert is_primitive(invert(w), 2) == value
    assert is_primitive(concat(concat(g, w), invert(g)), 2) == value


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_two_primitive_counts(n):
    """Classes of length n are the 4 sign choices of coprime (p, q), p+q=n."""
    classes = [w for w in enumerate_primitive_classes(2, n) if len(w) == n]
    assert len(classes) == 4 * _phi(n)
    for w in classes:
        sums = [0, 0]
        for l in w.letters:
            sums[l.index - 1] += l.sign
        p, q = sums
        assert p != 0 and q != 0 and math.gcd(abs(p), abs(q)) == 1
        assert abs(p) + abs(q) == n


def test_enumerate_primitive_class_examples():
    assert set(enumerate_primitive_classes(2, 1)) == words("a", "b", "A", "B")
    level2 = set(enumerate_primitive_classes(2, 2))
    assert words("ab", "aB", "Ab", "AB") <= level2
    assert not level2 & words("aa", "bb", "AA", "BB")
    level3 = {w for w in enumerate_primitive_classes(2, 3) if len(w) == 3}
    assert words("aab", "abb") <= level3
    assert parse_word("aaa") not in level3


def test_primitive_class_representatives_are_canonical():
    reps = enumerate_primitive_classes(2, 4)
    for w in reps:
        assert w.is_cyclically_reduced()
        rots = [rotate(w, i) for i in range(len(w))]
        assert w == min(rots, key=ReducedWord.sort_key)
    assert len(set(reps)) == len(reps)
    # inverse closure at the class level
    inv_canon = {
        min(
            (rotate(invert(w), i) for i in range(len(w))),
            key=ReducedWord.sort_key,
        )
        for w in reps
    }
    assert inv_canon == set(reps)


def test_primitive_sample_flagged_incomplete():
    sample = gamma_p_plus(Primitive(2, 2), 3)
    assert not sample.complete
    assert parse_word("aab") not in sample_words(sample)  # class length 3 > cap
    assert parse_word("aba") in sample_words(sample)  # rotation subword of (ab)
