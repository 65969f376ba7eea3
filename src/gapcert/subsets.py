"""Closed invariant subsets of the double boundary, their positive word sets
at a finite length budget, and primitivity testing.

A subset description picks out pairs of distinct boundary points; the words
enumerated for it are the forward vertices of bi-infinite geodesics through
the identity whose endpoint pair belongs to the described set.  They are
held as integer-coded levels, one per length, and decoded to words only on
demand.  Every enumerated word has a witness endpoint pair, built when
asked for, so membership can be re-checked independently.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

import numpy as np

from .errors import BudgetError, EmptyWordError
from .words import (
    EMPTY_WORD,
    BoundaryPoint,
    Letter,
    ReducedWord,
    concat,
    cyclic_reduce,
    gromov_product,
    invert,
    periodic_point,
    ray_point,
    reduce,
    rotate,
    translate,
)

WHITEHEAD_RANK_CAP = 6


def letters_of_rank(rank: int) -> list[Letter]:
    """All 2*rank letters, generators before inverses, by index."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    out = []
    for i in range(1, rank + 1):
        out.append(Letter(i, 1))
        out.append(Letter(i, -1))
    return out


def reduced_ball(rank: int, radius: int) -> list[ReducedWord]:
    """All reduced words of length <= radius, shortest first."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    alphabet = letters_of_rank(rank)
    out = [EMPTY_WORD]
    sphere = [EMPTY_WORD]
    for _ in range(radius):
        sphere = [
            ReducedWord(w.letters + (l,))
            for w in sphere
            for l in alphabet
            if not w.letters or l != w.letters[-1].inverse()
        ]
        out.extend(sphere)
    return out


# ---------------------------------------------------------------------------
# subset descriptions


@dataclass(frozen=True)
class FullBoundary:
    """All pairs of distinct boundary points."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class Directed:
    """Pairs of endpoints of lines whose forward steps all lie in `steps`.

    By default the step set must not contain a letter together with its
    inverse; pass allow_inverse_pairs=True to lift that restriction
    (enumeration only ever needs step-wise reducedness).
    """

    rank: int
    steps: frozenset[Letter]
    allow_inverse_pairs: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", frozenset(self.steps))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not self.steps:
            raise ValueError("directed step set must be nonempty")
        for l in self.steps:
            if l.index > self.rank:
                raise ValueError(f"letter {l} exceeds rank {self.rank}")
        if not self.allow_inverse_pairs:
            clash = {l for l in self.steps if l.inverse() in self.steps}
            if clash:
                raise ValueError(
                    "step set contains a letter and its inverse; "
                    "pass allow_inverse_pairs=True to permit this"
                )


@dataclass(frozen=True)
class AxisFamily:
    """The orbit of the oriented endpoint pairs (w^-inf, w^+inf), w in `words`.

    Words are stored cyclically reduced and rotated to a canonical phase;
    conjugate inputs therefore collapse to one stored word.
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
            core, _ = cyclic_reduce(w)
            least = min(
                (rotate(core, i) for i in range(len(core))),
                key=ReducedWord.sort_key,
            )
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


SubsetPSpec = Union[FullBoundary, Directed, AxisFamily, Primitive]


def hat(spec: SubsetPSpec) -> SubsetPSpec:
    """The flipped subset: pair (x, y) belongs to hat(P) iff (y, x) is in P."""
    if isinstance(spec, FullBoundary):
        return spec
    if isinstance(spec, Directed):
        return Directed(
            spec.rank,
            frozenset(l.inverse() for l in spec.steps),
            spec.allow_inverse_pairs,
        )
    if isinstance(spec, AxisFamily):
        return AxisFamily(spec.rank, tuple(w.inverse() for w in spec.words))
    if isinstance(spec, Primitive):
        return spec
    raise TypeError(f"unknown subset description {spec!r}")


# ---------------------------------------------------------------------------
# positive word enumeration


def letter_code(letter: Letter) -> int:
    """Position of a letter in letters_of_rank order: a=0, A=1, b=2, B=3, ...

    Codes sort like Letter.sort_key, and a letter's inverse has code ^ 1.
    """
    return 2 * (letter.index - 1) + (letter.sign == -1)


def code_letter(code: int) -> Letter:
    """The letter with the given letter_code."""
    return Letter(code // 2 + 1, -1 if code % 2 else 1)


Level = tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class GammaPSample:
    """Words of the positive set as integer-coded levels, with lazy witnesses.

    levels[t - 1] = (parents, letters) holds the words of length t for
    t = 1..budget in ReducedWord.sort_key order: word i of length t is word
    parents[i] of length t - 1 followed by the letter coded letters[i]
    (letter_code).  Length 0 is the empty word alone, so level 1 has every
    parent 0.  The set is prefix-closed, which is what makes the parent
    index exist; sorting by (parent, letter) keeps each level in order.
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

    def words(self) -> Iterator[ReducedWord]:
        for t in range(1, self.budget + 1):
            yield from self.level_words(t)

    def level_words(self, t: int) -> list[ReducedWord]:
        """Every word of length t, decoded, in sort_key order."""
        return self._decode(t, np.arange(len(self.levels[t - 1][1])))

    def word(self, t: int, i: int) -> ReducedWord:
        """Word i of length t."""
        return self._decode(t, np.array([i]))[0]

    def _decode(self, t: int, rows: np.ndarray) -> list[ReducedWord]:
        codes = np.empty((len(rows), t), dtype=np.intp)
        for s in range(t, 0, -1):
            parents, letters = self.levels[s - 1]
            codes[:, s - 1] = letters[rows]
            rows = parents[rows]
        alphabet = letters_of_rank(self.spec.rank)
        return [
            ReducedWord(tuple(alphabet[c] for c in row)) for row in codes.tolist()
        ]

    def index(self, w: ReducedWord) -> Optional[int]:
        """Position of w within its length's level, or None if absent."""
        if w.is_empty() or len(w) > self.budget or w.max_index() > self.spec.rank:
            return None
        i = 0
        for (parents, letters), letter in zip(self.levels, w.letters):
            lo = int(np.searchsorted(parents, i, "left"))
            hi = int(np.searchsorted(parents, i, "right"))
            code = letter_code(letter)
            i = lo + int(np.searchsorted(letters[lo:hi], code))
            if i == hi or letters[i] != code:
                return None
        return i

    def witness(self, w: ReducedWord) -> tuple[BoundaryPoint, BoundaryPoint]:
        """An endpoint pair (backward, forward) in the subset whose connecting
        geodesic passes through the identity with w on its forward ray."""
        if self.index(w) is None:
            raise KeyError(w)
        spec = self.spec
        if isinstance(spec, FullBoundary):
            return _full_witness(w, spec.rank)
        if isinstance(spec, Directed):
            return _directed_witness(w, sorted(spec.steps, key=Letter.sort_key))
        for axis in self.axes:
            for i in range(len(axis)):
                v = rotate(axis, i)
                fwd = periodic_point(v)
                if fwd.prefix(len(w)) == w:
                    return periodic_point(v.inverse()), fwd
        raise AssertionError(f"no axis ray spells {w}")

    def truncate(self, budget: int) -> "GammaPSample":
        if not 1 <= budget <= self.budget:
            raise BudgetError(f"budget {budget} outside 1..{self.budget}")
        return GammaPSample(
            self.spec, budget, self.levels[:budget], self.complete, self.axes
        )


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


def _forward_extension(w: ReducedWord, choices: list[Letter]) -> Letter:
    """A letter continuing w without cancellation; choices must allow one."""
    for c in choices:
        if w.is_empty() or c != w.letters[-1].inverse():
            return c
    raise AssertionError(f"no reduced continuation of {w} in {choices}")


def _directed_witness(
    w: ReducedWord, steps: list[Letter]
) -> tuple[BoundaryPoint, BoundaryPoint]:
    fwd = ray_point(w, ReducedWord((_forward_extension(w, steps),)))
    back_step = next(s for s in steps if s != w.letters[0].inverse())
    return periodic_point(ReducedWord((back_step.inverse(),))), fwd


def _full_witness(
    w: ReducedWord, rank: int
) -> tuple[BoundaryPoint, BoundaryPoint]:
    alphabet = letters_of_rank(rank)
    fwd = ray_point(w, ReducedWord((_forward_extension(w, alphabet),)))
    back = next(l for l in alphabet if l != w.letters[0])
    return periodic_point(ReducedWord((back,))), fwd


def _sphere_words(
    rank_letters: list[Letter], budget: int
) -> Iterator[tuple[int, list[ReducedWord]]]:
    sphere = [EMPTY_WORD]
    for t in range(1, budget + 1):
        sphere = [
            ReducedWord(w.letters + (l,))
            for w in sphere
            for l in rank_letters
            if not w.letters or l != w.letters[-1].inverse()
        ]
        yield t, sphere


def _free_levels(codes: list[int], budget: int) -> tuple[Level, ...]:
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
        tuple(letter_code(x.letter_at(j)) for j in range(budget))
        for w in axes
        for x in (periodic_point(rotate(w, i)) for i in range(len(w)))
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

    if isinstance(spec, FullBoundary):
        levels = _free_levels(list(range(2 * spec.rank)), budget)
        return GammaPSample(spec, budget, levels, True)

    if isinstance(spec, Directed):
        # every reduced word over the steps lies on a directed line: a step
        # other than the last letter's inverse continues it, and a step
        # other than the first letter's inverse leads into it
        levels = _free_levels([letter_code(s) for s in spec.steps], budget)
        return GammaPSample(spec, budget, levels, True)

    if isinstance(spec, AxisFamily):
        levels = _axis_levels(spec.words, budget)
        return GammaPSample(spec, budget, levels, True, spec.words)

    if isinstance(spec, Primitive):
        reps = tuple(enumerate_primitive_classes(spec.rank, spec.max_period))
        return GammaPSample(spec, budget, _axis_levels(reps, budget), False, reps)

    raise TypeError(f"unknown subset description {spec!r}")


def check_witness(
    w: ReducedWord, pair: tuple[BoundaryPoint, BoundaryPoint]
) -> bool:
    """Re-check that w sits on the forward ray of the witness line through id."""
    back, fwd = pair
    return (
        back != fwd
        and gromov_product(fwd, back) == 0
        and fwd.prefix(len(w)) == w
    )


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
    for p in reduced_ball(spec.rank, b):
        segment = concat(invert(p), w)
        if segment.is_empty():
            continue
        if segment in sample.buckets.get(len(segment), frozenset()):
            return True
    return False


# ---------------------------------------------------------------------------
# boundary samples


def _base_points(spec: SubsetPSpec, max_period: int) -> set[BoundaryPoint]:
    """Forward endpoints of subset lines through the identity, period-bounded."""
    if isinstance(spec, FullBoundary):
        out = set()
        for t, sphere in _sphere_words(letters_of_rank(spec.rank), max_period):
            out.update(
                periodic_point(w) for w in sphere if w.is_cyclically_reduced()
            )
        return out
    if isinstance(spec, Directed):
        steps = sorted(spec.steps, key=Letter.sort_key)
        out = set()
        for t, sphere in _sphere_words(steps, max_period):
            out.update(
                periodic_point(w) for w in sphere if w.is_cyclically_reduced()
            )
        return out
    if isinstance(spec, AxisFamily):
        return {
            periodic_point(rotate(w, i))
            for w in spec.words
            if len(w) <= max_period
            for i in range(len(w))
        }
    if isinstance(spec, Primitive):
        reps = enumerate_primitive_classes(
            spec.rank, min(spec.max_period, max_period)
        )
        return {
            periodic_point(rotate(w, i)) for w in reps for i in range(len(w))
        }
    raise TypeError(f"unknown subset description {spec!r}")


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
    rank = spec.rank
    out: set[BoundaryPoint] = set()
    for g in reduced_ball(rank, b):
        out.update(translate(g, x) for x in base)
    return out


# ---------------------------------------------------------------------------
# primitivity


def _exponent_gcd(w: ReducedWord, rank: int) -> int:
    sums = [0] * rank
    for l in w.letters:
        sums[l.index - 1] += l.sign
    g = 0
    for v in sums:
        g = math.gcd(g, abs(v))
    return g


def _type_ii_images(core: ReducedWord, rank: int) -> Iterator[ReducedWord]:
    """Cyclic cores of all type-II Whitehead automorphism images of core."""
    alphabet = letters_of_rank(rank)
    for a in alphabet:
        others = [l for l in alphabet if l.index != a.index]
        for bits in range(1 << len(others)):
            chosen = {others[j] for j in range(len(others)) if bits >> j & 1}
            chosen.add(a)
            images = {}
            for i in range(1, rank + 1):
                x = Letter(i, 1)
                if i == a.index:
                    images[i] = (x,)
                    continue
                pos, neg = x in chosen, x.inverse() in chosen
                if pos and neg:
                    images[i] = (a.inverse(), x, a)
                elif pos:
                    images[i] = (x, a)
                elif neg:
                    images[i] = (a.inverse(), x)
                else:
                    images[i] = (x,)
            spelled: list[Letter] = []
            for l in core.letters:
                img = images[l.index]
                if l.sign == 1:
                    spelled.extend(img)
                else:
                    spelled.extend(m.inverse() for m in reversed(img))
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
    for t, sphere in _sphere_words(letters_of_rank(rank), max_len):
        for w in sphere:
            if not w.is_cyclically_reduced():
                continue
            canon = min(
                (rotate(w, i) for i in range(len(w))), key=ReducedWord.sort_key
            )
            if canon in seen:
                continue
            seen.add(canon)
            if is_primitive(canon, rank):
                reps.append(canon)
    return reps
