"""Closed invariant subsets of the double boundary, their positive word sets
at a finite length budget, and primitivity testing.

A subset description picks out pairs of distinct boundary points; the words
enumerated for it are the forward vertices of bi-infinite geodesics through
the identity whose endpoint pair belongs to the described set.  They are
held as integer-coded levels, one per length, and decoded to words only on
demand.  Every enumerated word has a witness endpoint pair, built when
asked for, so membership, which this module decides too, can be re-checked
independently.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import BudgetError, EmptyWordError, MembershipError
from .words import (
    EMPTY_WORD,
    BoundaryPoint,
    ReducedWord,
    concat,
    cyclic_reduce,
    gromov_product,
    least_rotation,
    letter_to_string,
    periodic_point,
    reduce,
    rotate,
    translate,
)

WHITEHEAD_RANK_CAP = 6


def reduced_ball(letters: Iterable[int], radius: int) -> Iterator[ReducedWord]:
    """Every reduced word spelled with the given letter codes of length <=
    radius, one sphere after another; in sort_key order for sorted codes."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    letters = sorted(letters)
    sphere = [EMPTY_WORD]
    yield EMPTY_WORD
    for _ in range(radius):
        sphere = [
            ReducedWord(w.letters + (l,))
            for w in sphere
            for l in letters
            if not w.letters or l != w.letters[-1] ^ 1
        ]
        yield from sphere


# ---------------------------------------------------------------------------
# subset descriptions


@dataclass(frozen=True)
class Directed:
    """Pairs of endpoints of lines whose forward steps all lie in `steps`,
    a set of letter codes that may hold a letter together with its inverse
    (enumeration only ever needs step-wise reducedness)."""

    rank: int
    steps: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "steps", frozenset(self.steps))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not self.steps:
            raise ValueError("directed step set must be nonempty")
        for l in self.steps:
            if not 0 <= l < 2 * self.rank:
                raise ValueError(
                    f"letter {letter_to_string(l)} exceeds rank {self.rank}"
                )


def FullBoundary(rank: int) -> Directed:
    """All pairs of distinct boundary points: the lines that may step along
    every letter."""
    return Directed(rank, frozenset(range(2 * rank)))


@dataclass(frozen=True)
class AxisFamily:
    """The orbit of the oriented endpoint pairs (w^-inf, w^+inf), w in `words`.

    Words are stored as the primitive root of their cyclic reduction,
    rotated to a canonical phase, as a boundary point keeps its period;
    conjugate inputs and powers therefore collapse to one stored word.
    """

    rank: int
    words: tuple[ReducedWord, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not self.words:
            raise ValueError("axis family needs at least one word")
        canon = []
        for w in self.words:
            if w.is_empty():
                raise EmptyWordError("axis words must be nonempty")
            if w.max_index() > self.rank:
                raise ValueError(f"word {w} exceeds rank {self.rank}")
            least = least_rotation(periodic_point(cyclic_reduce(w)[0]).period)
            if least not in canon:
                canon.append(least)
        canon.sort(key=ReducedWord.sort_key)
        object.__setattr__(self, "words", tuple(canon))


@dataclass(frozen=True)
class Primitive:
    """Closure of the axis-endpoint pairs of all primitive elements.

    Enumerations truncate to primitive classes of cyclic length at most
    `max_period` and are flagged incomplete; the closure also contains
    points with no finite periodic description.
    """

    rank: int
    max_period: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("primitive subset needs rank >= 2")
        if self.max_period < 1:
            raise ValueError("max_period must be >= 1")


SubsetPSpec = Union[Directed, AxisFamily, Primitive]


def _is_directed(spec: SubsetPSpec) -> bool:
    """Whether the subset steps along a letter set (Directed) rather than
    being spelled by axes (AxisFamily, Primitive); the one place an unknown
    description is refused."""
    if isinstance(spec, Directed):
        return True
    if isinstance(spec, (AxisFamily, Primitive)):
        return False
    raise TypeError(f"unknown subset description {spec!r}")


def _axis_words(
    spec: Union[AxisFamily, Primitive], max_len: float = math.inf
) -> tuple[ReducedWord, ...]:
    """The axis words of an axis subset of cyclic length at most max_len:
    an AxisFamily's own words, or Primitive's enumerated classes."""
    if isinstance(spec, AxisFamily):
        return tuple(w for w in spec.words if len(w) <= max_len)
    return tuple(
        enumerate_primitive_classes(spec.rank, min(spec.max_period, max_len))
    )


def _is_axis(spec: Union[AxisFamily, Primitive], w: ReducedWord) -> bool:
    """Whether the line of the cyclically reduced word w, within the rank,
    is an axis of the subset."""
    if isinstance(spec, AxisFamily):
        return least_rotation(w) in spec.words
    return is_primitive(w, spec.rank)


def hat(spec: SubsetPSpec) -> SubsetPSpec:
    """The flipped subset: pair (x, y) belongs to hat(P) iff (y, x) is in P."""
    if _is_directed(spec):
        return Directed(spec.rank, frozenset(l ^ 1 for l in spec.steps))
    if isinstance(spec, AxisFamily):
        return AxisFamily(spec.rank, tuple(w.inverse() for w in spec.words))
    return spec


# ---------------------------------------------------------------------------
# positive word enumeration


Level = tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class GammaPSample:
    """Words of the positive set as integer-coded levels, with lazy witnesses.

    levels[t - 1] = (parents, letters) holds the words of length t for
    t = 1..budget in ReducedWord.sort_key order: word i of length t is word
    parents[i] of length t - 1 followed by the letter letters[i].  Length
    0 is the empty word alone, so level 1 has every parent 0.  The set is
    prefix-closed, which is what makes the parent index exist; sorting by
    (parent, letter) keeps each level in order.
    complete records whether every level provably exhausts the positive set
    at that length.  `axes` are the axis words whose rays spell the set,
    for the axis-type subsets.
    """

    spec: SubsetPSpec
    budget: int
    levels: tuple[Level, ...]
    complete: bool
    axes: tuple[ReducedWord, ...] = ()

    @cached_property
    def buckets(self) -> dict[int, _Bucket]:
        """buckets[t]: the words of length t as a lazily decoded set."""
        return {t: _Bucket(self, t) for t in range(1, self.budget + 1)}

    def level_words(self, t: int) -> list[ReducedWord]:
        """Every word of length t, decoded, in sort_key order."""
        return self.decode(t, np.arange(len(self.levels[t - 1][1])))

    def decode(self, t: int, rows: np.ndarray) -> list[ReducedWord]:
        """The words of length t at the given rows of its level, in one pass
        down the parent indices."""
        codes = np.empty((len(rows), t), dtype=np.intp)
        for s in range(t, 0, -1):
            parents, letters = self.levels[s - 1]
            codes[:, s - 1] = letters[rows]
            rows = parents[rows]
        return [ReducedWord(tuple(row)) for row in codes.tolist()]

    def index(self, w: ReducedWord) -> Optional[int]:
        """Position of w within its length's level, or None if absent."""
        if w.is_empty() or len(w) > self.budget or w.max_index() > self.spec.rank:
            return None
        i = 0
        for (parents, letters), letter in zip(self.levels, w.letters):
            lo = int(np.searchsorted(parents, i, "left"))
            hi = int(np.searchsorted(parents, i, "right"))
            i = lo + int(np.searchsorted(letters[lo:hi], letter))
            if i == hi or letters[i] != letter:
                return None
        return i

    def witness(self, w: ReducedWord) -> tuple[BoundaryPoint, BoundaryPoint]:
        """An endpoint pair (backward, forward) in the subset whose connecting
        geodesic passes through the identity with w on its forward ray."""
        if self.index(w) is None:
            raise KeyError(w)
        if _is_directed(self.spec):
            return _directed_witness(w, sorted(self.spec.steps))
        for axis in self.axes:
            for i in range(len(axis)):
                v = rotate(axis, i)
                fwd = periodic_point(v)
                if fwd.prefix(len(w)) == w:
                    return periodic_point(v.inverse()), fwd
        raise AssertionError(f"no axis ray spells {w}")


class _Bucket(AbstractSet):
    """The words of one length of a sample, decoded only when iterated."""

    def __init__(self, sample: GammaPSample, t: int):
        self._sample = sample
        self._t = t

    def __len__(self) -> int:
        return len(self._sample.levels[self._t - 1][1])

    def __iter__(self) -> Iterator[ReducedWord]:
        return iter(self._sample.level_words(self._t))

    def __contains__(self, w: object) -> bool:
        return (
            isinstance(w, ReducedWord)
            and len(w) == self._t
            and self._sample.index(w) is not None
        )


def _directed_witness(
    w: ReducedWord, steps: list[int]
) -> tuple[BoundaryPoint, BoundaryPoint]:
    """The first steps that continue the word w, spelled with steps, without
    cancellation: forward from its last letter, backward into its first."""
    ahead = next(s for s in steps if s != w.letters[-1] ^ 1)
    back_step = next(s for s in steps if s != w.letters[0] ^ 1)
    fwd = BoundaryPoint(w, ReducedWord((ahead,)))
    return periodic_point(ReducedWord((back_step ^ 1,))), fwd


def _free_levels(codes: Iterable[int], budget: int) -> tuple[Level, ...]:
    """Levels of every reduced word spelled with the given letter codes."""
    step = np.array(sorted(codes), dtype=np.intp)
    parents = np.zeros(len(step), dtype=np.intp)
    letters = step
    levels = [(parents, letters)]
    for _ in range(1, budget):
        parents = np.repeat(np.arange(len(letters)), len(step))
        extended = np.tile(step, len(letters))
        keep = extended != (letters[parents] ^ 1)
        parents, letters = parents[keep], extended[keep]
        levels.append((parents, letters))
    return tuple(levels)


def _axis_levels(axes: tuple[ReducedWord, ...], budget: int) -> tuple[Level, ...]:
    """Levels of the prefixes of the rays w^inf over all rotations w of the
    axis words: the forward vertices of the axes through the identity."""
    rays = {
        periodic_point(rotate(w, i)).prefix(budget).letters
        for w in axes
        for i in range(len(w))
    }
    index: dict[tuple[int, ...], int] = {(): 0}
    levels = []
    for t in range(1, budget + 1):
        coded = sorted({ray[:t] for ray in rays})
        levels.append(
            (
                np.array([index[c[:-1]] for c in coded], dtype=np.intp),
                np.array([c[-1] for c in coded], dtype=np.intp),
            )
        )
        index = {c: i for i, c in enumerate(coded)}
    return tuple(levels)


def gamma_p_plus(spec: SubsetPSpec, budget: int) -> GammaPSample:
    """Enumerate the positive words of the subset up to the length budget."""
    if budget < 1:
        raise BudgetError(f"length budget must be >= 1, got {budget}")

    if _is_directed(spec):
        # every reduced word over the steps lies on a line of the subset: a
        # step other than the last letter's inverse continues it, and a step
        # other than the first letter's inverse leads into it
        levels = _free_levels(spec.steps, budget)
        return GammaPSample(spec, budget, levels, True)

    # Primitive's classes stop at its max_period, short of the closure
    axes = _axis_words(spec)
    complete = isinstance(spec, AxisFamily)
    return GammaPSample(spec, budget, _axis_levels(axes, budget), complete, axes)


def word_in_positive_set(
    spec: SubsetPSpec,
    w: ReducedWord,
    b: int = 0,
    sample: Optional[GammaPSample] = None,
) -> bool:
    """Whether w sits at nonnegative parameter on a subset line passing
    within distance b of the identity.

    Any word of length at most b qualifies at parameter zero (a subset
    line can be based at it); longer words need a vertex p with |p| <= b
    whose segment p^-1 * w lies in the enumerated through-identity set.
    For truncated enumerations a False means "no witness found", not a
    proof of non-membership.
    """
    if b < 0:
        raise ValueError("shift b must be >= 0")
    if len(w) <= b:
        return True
    if sample is None or sample.budget < len(w) + b:
        sample = gamma_p_plus(spec, len(w) + b)
    for p in reduced_ball(range(2 * spec.rank), b):
        segment = concat(p.inverse(), w)
        if segment.is_empty():
            continue
        if segment in sample.buckets.get(len(segment), frozenset()):
            return True
    return False


# ---------------------------------------------------------------------------
# boundary samples


def _base_points(spec: SubsetPSpec, max_period: int) -> set[BoundaryPoint]:
    """Forward endpoints of subset lines through the identity, period-bounded."""
    if _is_directed(spec):
        return {
            periodic_point(w)
            for w in reduced_ball(spec.steps, max_period)
            if w and w.is_cyclically_reduced()
        }
    return {
        periodic_point(rotate(w, i))
        for w in _axis_words(spec, max_period)
        for i in range(len(w))
    }


def q_plus_boundary(
    spec: SubsetPSpec, max_period: int, b: int = 0
) -> set[BoundaryPoint]:
    """Forward endpoints of subset lines passing within distance b of id.

    Returns the eventually periodic sample: forward endpoints with period
    at most max_period, translated by every group element of length at most
    b.  Each translate g.x is an endpoint of the translated witness line,
    which passes through the vertex g, at distance |g| <= b from id.
    """
    if max_period < 1:
        raise BudgetError("max_period must be >= 1")
    if b < 0:
        raise ValueError("offset b must be >= 0")
    base = _base_points(spec, max_period)
    if b == 0:
        return set(base)
    out: set[BoundaryPoint] = set()
    for g in reduced_ball(range(2 * spec.rank), b):
        out.update(translate(g, x) for x in base)
    return out


# ---------------------------------------------------------------------------
# membership of points and pairs


def _tail_letter_set(x: BoundaryPoint, start: int) -> set[int]:
    """Every letter appearing in the expansion of x at positions >= start."""
    pre = x.preperiod.letters
    return set(pre[start:]) | set(x.period.letters)


def point_in_forward_set(spec: SubsetPSpec, x: BoundaryPoint) -> bool:
    """Whether x is the forward endpoint of some line of the subset; no
    point with a letter past the rank is."""
    if _is_directed(spec):
        # a finite head is a shift of the line; only the tail must be directed
        return x.max_index() <= spec.rank and set(x.period.letters) <= spec.steps
    return x.max_index() <= spec.rank and _is_axis(spec, x.period)


def pair_in_subset(spec: SubsetPSpec, x: BoundaryPoint, y: BoundaryPoint) -> bool:
    """Whether (x, y) is an (forward, backward) endpoint pair of the subset;
    no pair with a letter past the rank is."""
    if x == y:
        return False
    directed = _is_directed(spec)
    if max(x.max_index(), y.max_index()) > spec.rank:
        return False
    junction = int(gromov_product(x, y))
    if directed:
        forward_ok = _tail_letter_set(x, junction) <= spec.steps
        backward_ok = all(
            l ^ 1 in spec.steps for l in _tail_letter_set(y, junction)
        )
        return forward_ok and backward_ok
    # axis subsets: after removing the shared approach, the pair must be
    # the two ends of one periodic line through the identity
    approach = x.prefix(junction).inverse()
    px, py = translate(approach, x), translate(approach, y)
    if not (px.preperiod.is_empty() and py.preperiod.is_empty()):
        return False
    if py.period != px.period.inverse():
        return False
    return _is_axis(spec, px.period)


def _require_pair(spec: SubsetPSpec, x: BoundaryPoint, y: BoundaryPoint) -> None:
    """Raise MembershipError unless (x, y) is an endpoint pair of the subset."""
    if not pair_in_subset(spec, x, y):
        raise MembershipError(f"({x}, {y}) is not an endpoint pair of the subset")


# ---------------------------------------------------------------------------
# primitivity


def _exponent_gcd(w: ReducedWord, rank: int) -> int:
    sums = [0] * rank
    for l in w.letters:
        sums[l // 2] += -1 if l & 1 else 1
    g = 0
    for v in sums:
        g = math.gcd(g, abs(v))
    return g


def _type_ii_images(core: ReducedWord, rank: int) -> Iterator[ReducedWord]:
    """Cyclic cores of all type-II Whitehead automorphism images of core."""
    alphabet = range(2 * rank)
    for a in alphabet:
        others = [l for l in alphabet if l // 2 != a // 2]
        for bits in range(1 << len(others)):
            chosen = {others[j] for j in range(len(others)) if bits >> j & 1}
            chosen.add(a)
            images = {}
            for x in alphabet[::2]:
                if x == a & ~1:
                    images[x] = (x,)
                    continue
                pos, neg = x in chosen, x ^ 1 in chosen
                if pos and neg:
                    images[x] = (a ^ 1, x, a)
                elif pos:
                    images[x] = (x, a)
                elif neg:
                    images[x] = (a ^ 1, x)
                else:
                    images[x] = (x,)
            spelled: list[int] = []
            for l in core.letters:
                img = images[l & ~1]
                if l & 1:
                    spelled.extend(m ^ 1 for m in reversed(img))
                else:
                    spelled.extend(img)
            image_core, _ = cyclic_reduce(reduce(spelled))
            yield image_core


def is_primitive(w: ReducedWord, rank: int) -> bool:
    """Whether w belongs to some free basis of the rank-n free group.

    Filters by the gcd of exponent sums, then runs a strictly descending
    search over type-II Whitehead automorphism images of the cyclic word;
    membership in a basis is equivalent to descending to length 1.
    """
    if w.is_empty():
        raise EmptyWordError("the identity is not primitive")
    if w.max_index() > rank:
        raise ValueError(f"word {w} exceeds rank {rank}")
    if rank > WHITEHEAD_RANK_CAP:
        raise BudgetError(
            f"primitivity search supports rank <= {WHITEHEAD_RANK_CAP}"
        )
    core, _ = cyclic_reduce(w)
    if _exponent_gcd(core, rank) != 1:
        return False
    while len(core) > 1:
        shorter = next(
            (img for img in _type_ii_images(core, rank) if len(img) < len(core)),
            None,
        )
        if shorter is None:
            return False
        core = shorter
    return True


def enumerate_primitive_classes(rank: int, max_len: int) -> list[ReducedWord]:
    """One cyclically reduced representative per rotation class of primitive
    words of length <= max_len; inverse classes appear separately."""
    if rank < 2:
        raise ValueError("primitive enumeration needs rank >= 2")
    if max_len < 1:
        raise BudgetError("max_len must be >= 1")
    reps: list[ReducedWord] = []
    seen: set[ReducedWord] = set()
    for w in reduced_ball(range(2 * rank), max_len):
        if not w or not w.is_cyclically_reduced():
            continue
        canon = least_rotation(w)
        if canon in seen:
            continue
        seen.add(canon)
        if is_primitive(canon, rank):
            reps.append(canon)
    return reps
