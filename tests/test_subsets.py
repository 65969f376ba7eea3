"""Subset descriptions, positive-word enumeration and primitivity tests.

The primitivity oracle is the classical count for rank 2: rotation classes
of primitive cyclic words of length n >= 2 are in bijection with coprime
integer pairs (p, q), p + q = n, p, q >= 1, taken with all four sign
choices, so there are exactly 4*phi(n) classes and 4*n*phi(n) words.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from gapcert import subsets
from gapcert.errors import BudgetError, EmptyWordError
from gapcert.subsets import (
    AxisFamily,
    Directed,
    FullBoundary,
    Primitive,
    enumerate_primitive_classes,
    gamma_p_plus,
    hat,
    is_primitive,
    pair_in_subset,
    point_in_forward_set,
    q_plus_boundary,
    reduced_ball,
    word_in_positive_set,
)
from gapcert.words import (
    EMPTY_WORD,
    BoundaryPoint,
    ReducedWord,
    concat,
    parse_word,
    periodic_point,
    reduce,
    rotate,
    translate,
    word_to_string,
)


def words(*strings):
    return {parse_word(s) for s in strings}


def sample_words(sample):
    return set(helpers.sample_words(sample))


# ---------------------------------------------------------------------------
# construction and canonical forms


def test_directed_validation():
    Directed(2, frozenset({parse_word("a")[0], parse_word("b")[0]}))
    with pytest.raises(ValueError):
        Directed(2, frozenset())
    with pytest.raises(ValueError):
        Directed(1, frozenset({2}))
    with pytest.raises(ValueError):
        Directed(2, frozenset({-1}))
    # a step set may hold a letter and its inverse
    mixed = Directed(2, frozenset({0, 1}))
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
    spec = Directed(2, frozenset({0, 2}))
    sample = gamma_p_plus(spec, 2)
    assert sample_words(sample) == words("a", "b", "aa", "ab", "ba", "bb")
    assert sample.complete


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_directed_levels_are_whole_spheres_over_the_steps(rank):
    alphabet = range(2 * rank)
    for mask in range(1, 1 << len(alphabet)):
        steps = [l for j, l in enumerate(alphabet) if mask >> j & 1]
        sample = gamma_p_plus(Directed(rank, frozenset(steps)), 4)
        for t in range(1, 5):
            sphere = [
                ReducedWord(letters)
                for letters in itertools.product(steps, repeat=t)
                if all(u != v ^ 1 for u, v in zip(letters, letters[1:]))
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
    powers = {t: reduce((a if t >= 0 else a.inverse()).letters * abs(t)) for t in range(-9, 10)}
    for g in reduced_ball(range(4), 6):
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
    # a power is stored as its primitive root, the period of its points
    powers = AxisFamily(2, tuple(parse_word(w) for w in ("aa", "abab", "a")))
    assert powers.words == (parse_word("a"), parse_word("ab"))


def test_budget_errors():
    with pytest.raises(BudgetError):
        gamma_p_plus(FullBoundary(2), 0)
    # 4 * 3^13 words of length 14 are refused before any level is built; an
    # axis family's levels stay small at any budget
    with pytest.raises(BudgetError, match="6377292 words of length 14"):
        gamma_p_plus(FullBoundary(2), 30)
    assert len(gamma_p_plus(AxisFamily(2, (parse_word("ab"),)), 30).levels) == 30


def test_level_cap_counts_the_levels(monkeypatch):
    # past the sphere bound the levels are counted, not bounded: Directed{a,b}
    # has 2^t words of length t against the sphere's 4 * 3^(t - 1)
    monkeypatch.setattr(subsets, "MAX_LEVEL_WORDS", 100)
    gamma_p_plus(FullBoundary(2), 3)
    with pytest.raises(BudgetError, match="108 words of length 4"):
        gamma_p_plus(FullBoundary(2), 4)
    ab = Directed(2, frozenset({0, 2}))
    gamma_p_plus(ab, 6)
    with pytest.raises(BudgetError, match="128 words of length 7"):
        gamma_p_plus(ab, 9)


def test_oversized_walks_are_budget_errors():
    # counted before any walk: Directed{a,b} has 2^(t + 1) walks of length
    # t from its two states, each point takes 2 * 3^b - 1 translates, and
    # the full rank-2 graph that primitive classes are read from has
    # 4 * 3^t walks of length t
    ab = Directed(2, frozenset({0, 2}))
    too_large = "is too large: its walks of length"
    with pytest.raises(BudgetError, match=f"max_period 40 at b = 0 {too_large} 22 "):
        q_plus_boundary(ab, 40)
    with pytest.raises(BudgetError, match=f"max_period 6 at b = 20 {too_large} 1 "):
        q_plus_boundary(ab, 6, 20)
    with pytest.raises(BudgetError, match=f"max_period 40 {too_large} 13 "):
        enumerate_primitive_classes(2, 40)
    with pytest.raises(BudgetError, match=f"max_period 40 {too_large} 13 "):
        gamma_p_plus(Primitive(2, 40), 6)


def test_walk_bound_leaves_small_samples_as_they_are(monkeypatch):
    # at the bound a sample is built, one walk past it raises, and inside
    # it every sample and class list is the unguarded one
    ab = Directed(2, frozenset({0, 2}))
    monkeypatch.setattr(subsets, "MAX_LEVEL_WORDS", 2**6 * 5)  # length 5, b = 1
    kept = q_plus_boundary(ab, 5, 1)
    with pytest.raises(BudgetError, match="walks of length 6 pass the 320"):
        q_plus_boundary(ab, 6, 1)
    monkeypatch.setattr(subsets, "MAX_LEVEL_WORDS", 4 * 3**5)  # length 5
    classes = enumerate_primitive_classes(2, 5)
    with pytest.raises(BudgetError, match="walks of length 6 pass the 972"):
        enumerate_primitive_classes(2, 6)
    monkeypatch.undo()
    specs = (FullBoundary(2), ab, AxisFamily(2, (parse_word("aab"),)), Primitive(2, 4))
    sizes = [(spec, p, b) for spec in specs for p in (1, 4) for b in (0, 2)]
    guarded = [q_plus_boundary(*size) for size in sizes]
    lists = [enumerate_primitive_classes(2, n) for n in range(1, 7)]
    monkeypatch.setattr(subsets, "_require_walks", lambda *args: None)
    assert kept == q_plus_boundary(ab, 5, 1)
    assert classes == enumerate_primitive_classes(2, 5)
    assert guarded == [q_plus_boundary(*size) for size in sizes]
    assert lists == [enumerate_primitive_classes(2, n) for n in range(1, 7)]


@pytest.mark.parametrize(
    "spec",
    [
        FullBoundary(2),
        Directed(2, frozenset({0, 2})),
        Directed(1, frozenset({0})),
        AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        AxisFamily(2, (parse_word("aa"), parse_word("abab"))),
        Primitive(2, 3),
    ],
    ids=["full", "directed", "directed-z", "axis", "axis-powers", "primitive"],
)
def test_enumeration_properties(spec):
    budget = 5
    sample = gamma_p_plus(spec, budget)
    # stated lengths and witness soundness
    for t, bucket in sample.buckets.items():
        for w in bucket:
            assert len(w) == t
            back, fwd = sample.witness(w)
            assert helpers.check_witness(w, (back, fwd))
            assert pair_in_subset(spec, fwd, back)
    # monotonicity: a smaller budget enumerates the first levels
    smaller = gamma_p_plus(spec, 3)
    assert {t: sample.buckets[t] for t in range(1, 4)} == smaller.buckets
    # inversion duality, exact
    dual = gamma_p_plus(hat(spec), budget)
    for t in range(1, budget + 1):
        assert {w.inverse() for w in sample.buckets[t]} == dual.buckets[t]
    # flipping twice returns the original description
    assert hat(hat(spec)) == spec


def test_hat_examples():
    d = Directed(2, frozenset({0, 2}))
    assert hat(d).steps == frozenset({1, 3})
    fam = AxisFamily(2, (parse_word("ab"),))
    assert hat(fam).words == (parse_word("AB"),)  # least rotation of (ab)^-1
    assert hat(FullBoundary(3)) == FullBoundary(3)
    assert FullBoundary(2) == Directed(2, frozenset(range(4)))


# ---------------------------------------------------------------------------
# boundary samples


def test_q_plus_examples():
    axis = AxisFamily(2, (parse_word("a"),))
    assert q_plus_boundary(axis, 1, 0) == {periodic_point(parse_word("a"))}

    directed = Directed(2, frozenset({0, 2}))
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


def test_q_plus_points_keep_the_cycle_words(monkeypatch):
    # a point of the sample holds the closed walk's word as its period and
    # the empty word as its preperiod, with no word rebuilt; a proper power
    # is kept by its root, a shorter walk of the same state
    yielded = []
    cycles = subsets._cycles

    def recording(graph, state, longest):
        for w in cycles(graph, state, longest):
            yielded.append(w)
            yield w

    monkeypatch.setattr(subsets, "_cycles", recording)
    sample = q_plus_boundary(Directed(2, frozenset({0, 2})), 8)
    words = {id(w) for w in yielded}
    assert len(sample) == 472  # the primitive words in a and b of length <= 8
    for x in sample:
        assert x.preperiod is EMPTY_WORD and id(x.period) in words


def test_q_plus_points_have_bounded_period():
    spec = FullBoundary(2)
    for x in q_plus_boundary(spec, 2, 1):
        assert len(x.period) <= 2


def test_q_plus_points_are_forward_endpoints():
    # every sampled point, translates included, is a forward endpoint of
    # its subset: a translate keeps its period, a step word, an axis
    # rotation or a primitive class (holder_estimate walks them unchecked)
    presets = [
        FullBoundary(2),
        FullBoundary(1),
        Directed(2, frozenset({0, 2})),
        Directed(2, frozenset({0, 3})),
        Directed(1, frozenset({0})),
        AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        AxisFamily(2, (parse_word("aa"), parse_word("aBB"))),
        Primitive(2, 3),
    ]
    for spec in presets:
        for b_offset in (0, 1, 2):
            points = q_plus_boundary(spec, 3, b_offset)
            assert all(point_in_forward_set(spec, x) for x in points)


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
    assert is_primitive(w.inverse(), 2) == value
    assert is_primitive(concat(concat(g, w), g.inverse()), 2) == value


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
            sums[l // 2] += -1 if l & 1 else 1
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
            (rotate(w.inverse(), i) for i in range(len(w))),
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


# ---------------------------------------------------------------------------
# the inverse rows of an inversion-closed sample


@pytest.mark.parametrize(
    "spec",
    [
        FullBoundary(2),
        FullBoundary(3),
        Primitive(2, 6),
        AxisFamily(2, (parse_word("ab"), parse_word("BA"))),
    ],
)
def test_inverse_rows_point_at_the_inverse_words(spec):
    sample = gamma_p_plus(spec, 6)
    index = sample.inverse_rows
    assert index is not None and len(index) == sample.budget
    for t in range(1, sample.budget + 1):
        assert index[t - 1].dtype == np.intp
        inverses = [w.inverse() for w in sample.level_words(t)]
        assert sample.decode(t, index[t - 1]) == inverses


@pytest.mark.parametrize(
    "spec", [Directed(2, frozenset({0, 2})), AxisFamily(2, (parse_word("ab"),))]
)
def test_samples_that_miss_an_inverse_have_no_inverse_rows(spec):
    # the subset is not its own flip, so no index is built; built anyway
    # from the levels, it finds a missing inverse
    sample = gamma_p_plus(spec, 6)
    assert sample.inverse_rows is None
    assert subsets._inverse_rows(sample.levels, 2 * spec.rank) is None


def test_inverse_rows_exist_on_the_presets_that_are_their_own_flip():
    presets = (
        FullBoundary(2),
        Directed(2, frozenset({0, 2})),
        Directed(1, frozenset({0})),
        AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        Primitive(2, 3),
    )
    for spec in presets:
        sample = gamma_p_plus(spec, 8)
        built = subsets._inverse_rows(sample.levels, 2 * spec.rank)
        assert (sample.inverse_rows is not None) == (hat(spec) == spec)
        assert (built is not None) == (hat(spec) == spec)


# ---------------------------------------------------------------------------
# the subset graph against the per-kind references it replaced


def _step_sets(rank):
    alphabet = range(2 * rank)
    for mask in range(1, 1 << len(alphabet)):
        yield frozenset(l for j, l in enumerate(alphabet) if mask >> j & 1)


def _assert_levels_match(spec, budget):
    got = gamma_p_plus(spec, budget).levels
    want = helpers.reference_levels(spec, budget)
    assert len(got) == len(want) == budget
    for (parents, letters), (ref_parents, ref_letters) in zip(got, want):
        assert parents.dtype == letters.dtype == np.intp
        np.testing.assert_array_equal(parents, ref_parents)
        np.testing.assert_array_equal(letters, ref_letters)


@st.composite
def axis_families(draw):
    rank = draw(st.integers(1, 3))
    axis = helpers.cyclically_reduced_words(rank, 1, 6)
    return AxisFamily(rank, tuple(draw(st.lists(axis, min_size=1, max_size=3))))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_directed_levels_match_the_reference(rank):
    for steps in _step_sets(rank):
        _assert_levels_match(Directed(rank, steps), 7 if rank < 3 else 5)


@given(axis_families(), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_axis_levels_match_the_reference(spec, budget):
    _assert_levels_match(spec, budget)


@pytest.mark.parametrize("p", range(1, 7))
def test_primitive_levels_match_the_reference(p):
    _assert_levels_match(Primitive(2, p), 10)


def _closed_walk_counts(spec, longest):
    """Closed walks of each length 1..longest, summed over the graph's states."""
    graph = subsets._graph(spec)
    counts = [0] * (longest + 1)
    for s in range(len(graph.moves)):
        for w in subsets._cycles(graph, s, longest):
            counts[len(w)] += 1
    return graph, counts[1:]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_directed_closed_walks_are_the_adjacency_traces(rank):
    # closed walks of length n in a graph with adjacency matrix A: tr(A^n)
    for steps in _step_sets(rank):
        graph, counts = _closed_walk_counts(Directed(rank, steps), 6)
        adjacency = np.zeros((len(graph.moves),) * 2, dtype=np.int64)
        for s, row in enumerate(graph.moves):
            for t in row.values():
                adjacency[s, t] += 1
        powers = [np.linalg.matrix_power(adjacency, n) for n in range(1, 7)]
        assert counts == [int(np.trace(power)) for power in powers]


@given(axis_families())
@settings(max_examples=40, deadline=None)
def test_axis_closed_walks_go_round_whole_axes(spec):
    # a closed walk of length n winds round one axis, from any of its |w|
    # phases, so they number the sum of |w| over the axes with |w| dividing n
    _, counts = _closed_walk_counts(spec, 12)
    for n, count in enumerate(counts, start=1):
        assert count == sum(len(w) for w in spec.words if n % len(w) == 0)


def test_primitive_closed_walks_go_round_whole_classes():
    spec = Primitive(2, 5)
    classes = helpers.reference_primitive_classes(2, 5)
    _, counts = _closed_walk_counts(spec, 10)
    for n, count in enumerate(counts, start=1):
        assert count == sum(len(w) for w in classes if n % len(w) == 0)


@functools.lru_cache(maxsize=1)
def _rank_two_points():
    """Every rank-2 point with preperiod at most 3 and period at most 4."""
    periods = [w for w in reduced_ball(range(4), 4) if w and w.is_cyclically_reduced()]
    points = set()
    for pre in reduced_ball(range(4), 3):
        for per in periods:
            if not pre or pre.letters[-1] != per.letters[0] ^ 1:
                points.add(BoundaryPoint(pre, per))
    return sorted(points, key=str)


@pytest.mark.parametrize(
    "spec",
    [
        FullBoundary(2),
        Directed(2, frozenset({0, 2})),
        Directed(2, frozenset({0, 3})),
        Directed(2, frozenset({0, 1, 2})),
        AxisFamily(2, (parse_word("ab"), parse_word("aab"))),
        AxisFamily(2, (parse_word("aa"), parse_word("aBB"))),
        Primitive(2, 3),
    ],
    ids=["full", "ab", "aB", "aAb", "axis", "axis-powers", "primitive"],
)
def test_membership_matches_the_reference(spec):
    points = _rank_two_points()
    assert len(points) == 2916
    members, flipped = [], []
    for x in points:
        inside = helpers.reference_point_in_forward_set(spec, x)
        assert point_in_forward_set(spec, x) == inside
        if inside:
            members.append(x)
        if helpers.reference_point_in_forward_set(hat(spec), x):
            flipped.append(x)
    rng = random.Random(0)
    pairs = [(rng.choice(points), rng.choice(points)) for _ in range(300)]
    pairs += [(rng.choice(members), rng.choice(flipped)) for _ in range(300)]
    # the witness lines of the positive set, translated off the identity
    sample = gamma_p_plus(spec, 3)
    for w in helpers.sample_words(sample):
        back, fwd = sample.witness(w)
        for g in reduced_ball(range(4), 1):
            pairs.append((translate(g, fwd), translate(g, back)))
    assert any(helpers.reference_pair_in_subset(spec, x, y) for x, y in pairs)
    for x, y in pairs:
        want = helpers.reference_pair_in_subset(spec, x, y)
        assert pair_in_subset(spec, x, y) == want


@st.composite
def subset_specs(draw):
    """A subset of each of the four kinds, of rank 1 or 2."""
    kind = draw(st.sampled_from(("full", "directed", "axis", "primitive")))
    rank = 2 if kind == "primitive" else draw(st.integers(1, 2))
    if kind == "full":
        return FullBoundary(rank)
    if kind == "directed":
        steps = draw(st.sets(helpers.letters(rank), min_size=1))
        return Directed(rank, frozenset(steps))
    if kind == "axis":
        axis = helpers.cyclically_reduced_words(rank, 1, 4)
        return AxisFamily(rank, tuple(draw(st.lists(axis, min_size=1, max_size=3))))
    return Primitive(2, draw(st.integers(1, 3)))


# words over three generators, so that some pass the subset's rank
@given(subset_specs(), helpers.reduced_words(3, 0, 6), st.integers(0, 2))
@example(FullBoundary(2), parse_word("c"), 0)
@example(FullBoundary(2), parse_word("c"), 1)
@example(FullBoundary(2), parse_word("abc"), 2)
@example(FullBoundary(2), EMPTY_WORD, 0)
@example(Directed(2, frozenset({0, 2})), parse_word("Ab"), 1)
@example(AxisFamily(2, (parse_word("ab"),)), parse_word("bab"), 1)
@example(Primitive(2, 2), parse_word("Babb"), 2)
@settings(max_examples=80, deadline=None)
def test_word_membership_reads_the_table_as_the_enumeration_does(spec, w, b):
    # word_in_positive_set tests each p^-1 w against the subset graph's
    # table; the reference decodes gamma_p_plus(spec, |w| + b) and looks
    # the words up in it.  A word of length <= b is in at the empty p^-1 w
    # (p = w), whatever its letters
    want = helpers.enumerated_word_in_positive_set(spec, w, b)
    assert word_in_positive_set(spec, w, b) == want
    sample = gamma_p_plus(spec, 6)
    assert (w in sample) == (w in sample_words(sample))
    assert EMPTY_WORD not in sample and not subsets._reads(spec, EMPTY_WORD)
