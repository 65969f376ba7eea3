"""Closed invariant subsets of the double boundary as labelled graphs, their
positive word sets at a finite length budget, and primitivity testing.

Every subset description is read as a finite graph with edges labelled by
letter codes, whose bi-infinite paths spell the subset's lines.  The words
enumerated for it, the forward vertices of its lines through the identity,
are held as integer-coded levels, one per length, and decoded only on
demand.  Levels, word witnesses, the periodic boundary sample and the
membership of points and pairs are all read off that one graph.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import BudgetError, EmptyWordError, MembershipError
from .words import (
    EMPTY_WORD,
    BoundaryPoint,
    ReducedWord,
    _Frozen,
    _set,
    concat,
    cyclic_reduce,
    gromov_product,
    least_rotation,
    letter_to_string,
    periodic_point,
    reduce,
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


class Directed(_Frozen):
    """Pairs of endpoints of lines whose forward steps all lie in `steps`,
    a set of letter codes that may hold a letter together with its inverse
    (enumeration only ever needs step-wise reducedness)."""

    __slots__ = _fields = ("rank", "steps")

    def __init__(self, rank: int, steps: frozenset[int]):
        steps = frozenset(steps)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not steps:
            raise ValueError("directed step set must be nonempty")
        for l in steps:
            if not 0 <= l < 2 * rank:
                raise ValueError(f"letter {letter_to_string(l)} exceeds rank {rank}")
        _set(self, "rank", rank)
        _set(self, "steps", steps)

    def _key(self) -> tuple:
        return (self.rank, self.steps)


def FullBoundary(rank: int) -> Directed:
    """All pairs of distinct boundary points: the lines that may step along
    every letter."""
    return Directed(rank, frozenset(range(2 * rank)))


class AxisFamily(_Frozen):
    """The orbit of the oriented endpoint pairs (w^-inf, w^+inf), w in `words`.

    Words are stored as the primitive root of their cyclic reduction,
    rotated to a canonical phase, as a boundary point keeps its period;
    conjugate inputs and powers therefore collapse to one stored word.
    """

    __slots__ = _fields = ("rank", "words")

    def __init__(self, rank: int, words: tuple[ReducedWord, ...]):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not words:
            raise ValueError("axis family needs at least one word")
        canon = []
        for w in words:
            if w.is_empty():
                raise EmptyWordError("axis words must be nonempty")
            if w.max_index() > rank:
                raise ValueError(f"word {w} exceeds rank {rank}")
            least = least_rotation(periodic_point(cyclic_reduce(w)[0]).period)
            if least not in canon:
                canon.append(least)
        canon.sort(key=ReducedWord.sort_key)
        _set(self, "rank", rank)
        _set(self, "words", tuple(canon))

    def _key(self) -> tuple:
        return (self.rank, self.words)


class Primitive(_Frozen):
    """The primitive subset, as membership tests it: the periodic part of
    the closure of the axis-endpoint pairs of the primitive elements.  A
    point is a forward endpoint when its period is primitive, whatever its
    length and preperiod (so b|(a) is one); a pair belongs when its line is
    a translate of the axis of one primitive element.  A limit of axes that
    is no axis, such as the line ...aaa.baaa... from (A) to b|(a), is
    rejected, though the closure holds it.

    Enumerations truncate to primitive classes of cyclic length at most
    `max_period` and are flagged incomplete.
    """

    __slots__ = _fields = ("rank", "max_period")

    def __init__(self, rank: int, max_period: int):
        if rank < 2:
            raise ValueError("primitive subset needs rank >= 2")
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        _set(self, "rank", rank)
        _set(self, "max_period", max_period)

    def _key(self) -> tuple:
        return (self.rank, self.max_period)


SubsetPSpec = Union[Directed, AxisFamily, Primitive]


@lru_cache(maxsize=32)
def hat(spec: SubsetPSpec) -> SubsetPSpec:
    """The flipped subset: pair (x, y) belongs to hat(P) iff (y, x) is in P;
    kept, so a flip's graph is built once."""
    if isinstance(spec, Directed):
        return Directed(spec.rank, frozenset(l ^ 1 for l in spec.steps))
    if isinstance(spec, AxisFamily):
        return AxisFamily(spec.rank, tuple(w.inverse() for w in spec.words))
    return spec


class _Graph:
    """A graph whose bi-infinite paths spell the lines of a subset: state s
    steps along letter l to moves[s][l] (in letter order), and every state
    lies on a cycle.  complete: whether the paths are every line."""

    def __init__(
        self, rank: int, moves: tuple[dict[int, int], ...], complete: bool = True
    ):
        self.rank = rank
        self.moves = moves
        self.complete = complete

    @cached_property
    def table(self) -> np.ndarray:
        """The subset construction from the set of every state (row 0): row
        r steps along letter l to the row of the set r's states step to."""
        order = [frozenset(range(len(self.moves)))]
        rows = {order[0]: 0}
        table = []
        for states in order:
            ahead: list[set[int]] = [set() for _ in range(2 * self.rank)]
            for s in states:
                for l, t in self.moves[s].items():
                    ahead[l].add(t)
            for reached in map(frozenset, ahead):
                if reached and reached not in rows:
                    rows[reached] = len(order)
                    order.append(reached)
            table.append([rows[frozenset(a)] if a else -1 for a in ahead])
        return np.array(table, dtype=np.intp)

    def read(self, state: int, letters: Iterable[int]) -> int:
        """The state the letters lead to from state, or -1 where they stop."""
        for l in letters:
            state = self.moves[state].get(l, -1)
            if state < 0:
                return -1
        return state


@lru_cache(maxsize=1024)
def _periodic(graph: _Graph, letters: tuple[int, ...]) -> tuple[frozenset, frozenset]:
    """Where a path spelling letters^inf from the left can end, and where one
    can start to the right: the image and the domain of the letters read as
    often as there are states."""
    ends = [graph.read(s, letters) for s in range(len(graph.moves))]
    image = list(range(len(ends)))
    for _ in ends:
        image = [ends[t] if t >= 0 else -1 for t in image]
    domain = frozenset(s for s, t in enumerate(image) if t >= 0)
    return frozenset(image) - {-1}, domain


def _cycle_graph(rank: int, words: Iterable, complete: bool = True) -> _Graph:
    """One cycle per cyclically reduced word, whose phase i reads letter i."""
    moves: list[dict[int, int]] = []
    for w in map(tuple, words):
        first = len(moves)
        moves.extend({l: first + (i + 1) % len(w)} for i, l in enumerate(w))
    return _Graph(rank, tuple(moves), complete)


@lru_cache(maxsize=32)
def _graph(spec: SubsetPSpec) -> _Graph:
    """The graph of a subset, built once per process.  Directed: one state
    per step, the last letter read, which every step but its inverse may
    follow.  AxisFamily: one cycle per stored word; Primitive: one per
    primitive class up to its max_period, short of the closure."""
    if isinstance(spec, Directed):
        steps = sorted(spec.steps)
        moves = [{l: steps.index(l) for l in steps if l != s ^ 1} for s in steps]
        return _Graph(spec.rank, tuple(moves))
    if isinstance(spec, AxisFamily):
        return _cycle_graph(spec.rank, spec.words)
    if isinstance(spec, Primitive):
        classes = enumerate_primitive_classes(spec.rank, spec.max_period)
        return _cycle_graph(spec.rank, classes, complete=False)
    raise TypeError(f"unknown subset description {spec!r}")


def _cycles(graph: _Graph, state: int, longest: int) -> Iterator[ReducedWord]:
    """The words of the closed walks at state of length 1..longest, in
    sort_key order."""
    walks = [((), state)]
    for _ in range(longest):
        walks = [(w + (l,), t) for w, s in walks for l, t in graph.moves[s].items()]
        for w, t in walks:
            if t == state:
                yield ReducedWord(w)


def _require_walks(graph: _Graph, longest: int, copies: int, what: str) -> None:
    """Raise BudgetError when the walks of some length up to longest from
    every state, times copies, pass MAX_LEVEL_WORDS: counted before any
    walk, one length at a time, through the moves."""
    counts = [1] * len(graph.moves)
    for t in range(1, longest + 1):
        # the walks of length t from a state: those of t - 1 from its moves
        counts = [sum(counts[u] for u in moves.values()) for moves in graph.moves]
        if sum(counts) * copies > MAX_LEVEL_WORDS:
            raise BudgetError(
                f"{what} is too large: its walks of length {t} pass the "
                f"{MAX_LEVEL_WORDS} a sample may hold"
            )


# ---------------------------------------------------------------------------
# positive word enumeration


Level = tuple[np.ndarray, np.ndarray]

# The most words a level may hold, refused up front: kept between lengths,
# a level of 2^22 words holds about 0.6 GB of products in d = 3.  It bounds
# the walks _cycles keeps of one length too.
MAX_LEVEL_WORDS = 1 << 22


class GammaPSample:
    """Words of the positive set as integer-coded levels, with lazy witnesses.

    levels[t - 1] = (parents, letters) holds the words of length t for
    t = 1..budget in ReducedWord.sort_key order: word i of length t is word
    parents[i] of length t - 1 followed by the letter letters[i].  Length
    0 is the empty word alone, so level 1 has every parent 0.  The set is
    prefix-closed, which is what makes the parent index exist; sorting by
    (parent, letter) keeps each level in order.
    complete records whether every level provably exhausts the positive set
    at that length.
    """

    def __init__(
        self, spec: SubsetPSpec, budget: int, levels: tuple[Level, ...], complete: bool
    ):
        self.spec = spec
        self.budget = budget
        self.levels = levels
        self.complete = complete

    @cached_property
    def buckets(self) -> dict[int, _Bucket]:
        """buckets[t]: the words of length t as a lazily decoded set."""
        return {t: _Bucket(self, t) for t in range(1, self.budget + 1)}

    @cached_property
    def inverse_rows(self) -> Optional[tuple[np.ndarray, ...]]:
        """For each level, the row of each of its words' inverse in that
        level, or None when the levels are not closed under inversion: at
        once when the subset is not its own flip, and otherwise when some
        word's inverse is missing."""
        if hat(self.spec) != self.spec:
            return None
        return _inverse_rows(self.levels, 2 * self.spec.rank)

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

    def __contains__(self, w: ReducedWord) -> bool:
        """Whether w is a word of the sample, read through the table."""
        return len(w) <= self.budget and _reads(self.spec, w)

    def witness(self, w: ReducedWord) -> tuple[BoundaryPoint, BoundaryPoint]:
        """An endpoint pair (backward, forward) in the subset whose connecting
        geodesic passes through the identity with w on its forward ray: the
        first cycles at the first state reading w and at the state it ends."""
        if w not in self:
            raise KeyError(w)
        graph = _graph(self.spec)
        start = next(s for s in range(len(graph.moves)) if graph.read(s, w) >= 0)
        back = next(_cycles(graph, start, len(graph.moves)))
        ahead = next(_cycles(graph, graph.read(start, w), len(graph.moves)))
        return periodic_point(back.inverse()), BoundaryPoint(w, ahead)


def _inverse_rows(
    levels: tuple[Level, ...], width: int
) -> Optional[tuple[np.ndarray, ...]]:
    """The row of each word's inverse in its own level, level by level, or
    None when some inverse (or some tail, which an inversion-closed,
    prefix-closed set holds) is missing.  A word f.u, f its first letter
    and u its tail, has the inverse u^-1 . f^-1: the parent is the inverse
    of the word's tail, the letter f^-1.  The tail of p.l is tail(p).l.
    Each is read in a level's flat (parent, letter) -> row table, -1 where
    no word is: a few gathers per level."""
    out = []
    inverses = np.zeros(1, dtype=np.intp)  # the empty word's
    table = None  # the previous level's
    for parents, letters in levels:
        if table is None:
            firsts, tails = letters, np.zeros(len(letters), dtype=np.intp)
        else:
            firsts, tails = firsts[parents], table[tails[parents] * width + letters]
        if np.count_nonzero(tails < 0):
            return None
        table = np.full(len(inverses) * width, -1, dtype=np.intp)
        table[parents * width + letters] = np.arange(len(letters))
        inverses = table[inverses[tails] * width + (firsts ^ 1)]
        if np.count_nonzero(inverses < 0):
            return None
        out.append(inverses)
    return tuple(out)


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
        return isinstance(w, ReducedWord) and len(w) == self._t and w in self._sample


def gamma_p_plus(spec: SubsetPSpec, budget: int) -> GammaPSample:
    """Enumerate the positive words of the subset up to the length budget:
    the words read from the set of every state of its graph, each level one
    vectorised step of the last through the table, which keeps its order."""
    if budget < 1:
        raise BudgetError(f"length budget must be >= 1, got {budget}")
    graph = _graph(spec)
    table = graph.table
    # every word extends, so the last level is the largest; when even its
    # sphere, 2r (2r - 1)^(budget - 1) words, may not fit, count the levels up
    # front by pushing row counts through the table
    sphere = math.log(2 * spec.rank) + (budget - 1) * math.log(2 * spec.rank - 1)
    if sphere > math.log(MAX_LEVEL_WORDS):
        rows, letters = np.nonzero(table >= 0)
        counts = np.eye(1, len(table))[0]
        for t in range(1, budget + 1):
            counts = np.bincount(table[rows, letters], counts[rows], len(table))
            if counts.sum() > MAX_LEVEL_WORDS:
                raise BudgetError(
                    f"budget {budget} is too large: {counts.sum():.0f} words of "
                    f"length {t}, past the {MAX_LEVEL_WORDS} a level may hold"
                )
    rows = np.zeros(1, dtype=np.intp)
    levels = []
    for _ in range(budget):
        steps = np.take(table, rows, axis=0).ravel()
        kept = np.flatnonzero(steps >= 0)
        rows = steps[kept]
        levels.append(np.divmod(kept, table.shape[1]))
    return GammaPSample(spec, budget, tuple(levels), graph.complete)


def _reads(spec: SubsetPSpec, w: ReducedWord) -> bool:
    """Whether the subset's graph table reads the nonempty word w from its
    row 0, the set of every state: whether w is a positive word, of any
    length; none with a letter past the rank."""
    if w.is_empty() or w.max_index() > spec.rank:
        return False
    table, row = _graph(spec).table, 0
    for l in w.letters:
        row = table[row, l]
        if row < 0:
            return False
    return True


def word_in_positive_set(spec: SubsetPSpec, w: ReducedWord, b: int = 0) -> bool:
    """Whether w sits at nonnegative parameter on a subset line passing
    within distance b of the identity.

    Any word of length at most b qualifies at parameter zero (a subset
    line can be based at it); longer words need a vertex p with |p| <= b
    whose segment p^-1 * w the graph table reads, with no enumeration.
    For a truncated graph (Primitive) a False means "no witness found",
    not a proof of non-membership.
    """
    if b < 0:
        raise ValueError("shift b must be >= 0")
    if len(w) <= b:
        return True
    ball = reduced_ball(range(2 * spec.rank), b)
    return any(_reads(spec, concat(p.inverse(), w)) for p in ball)


# ---------------------------------------------------------------------------
# boundary samples


def q_plus_boundary(
    spec: SubsetPSpec, max_period: int, b: int = 0
) -> set[BoundaryPoint]:
    """Forward endpoints of subset lines passing within distance b of id:
    the periodic points of the graph's closed walks up to max_period, the
    ends of its periodic lines through id, translated by every group element
    g of length at most b (g.x ends the translated line, through g)."""
    if max_period < 1:
        raise BudgetError("max_period must be >= 1")
    if b < 0:
        raise ValueError("offset b must be >= 0")
    graph = _graph(spec)
    # each point's translates, the reduced words of length <= b, counted
    # until they alone pass the bound
    ball, sphere = 1, 2 * spec.rank
    for _ in range(b):
        ball, sphere = ball + sphere, sphere * (2 * spec.rank - 1)
        if ball > MAX_LEVEL_WORDS:
            break
    _require_walks(graph, max_period, ball, f"max_period {max_period} at b = {b}")
    base = {
        BoundaryPoint(EMPTY_WORD, w)
        for s in range(len(graph.moves))
        for w in _cycles(graph, s, max_period)
    }
    if b == 0:
        return base
    ball = reduced_ball(range(2 * spec.rank), b)
    return {translate(g, x) for g in ball for x in base}


# ---------------------------------------------------------------------------
# membership of points and pairs


@lru_cache(maxsize=1024)
def _line_graph(spec: SubsetPSpec, period: tuple[int, ...]) -> Optional[_Graph]:
    """The graph a subset line with this forward period is read in, or None
    when no cycle reads the period.  Primitive's graph stops at max_period,
    so its test is is_primitive, unbounded, and its graph the period's cycle."""
    if isinstance(spec, Primitive):
        if not is_primitive(ReducedWord(period), spec.rank):
            return None
        return _cycle_graph(spec.rank, (period,))
    graph = _graph(spec)
    return graph if _periodic(graph, period)[0] else None


def _tail(x: BoundaryPoint, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of x from position start on, as a preperiod and a period."""
    pre, per = x.preperiod.letters, x.period.letters
    if start <= len(pre):
        return pre[start:], per
    shift = (start - len(pre)) % len(per)
    return (), per[shift:] + per[:shift]


def point_in_forward_set(spec: SubsetPSpec, x: BoundaryPoint) -> bool:
    """Whether x is the forward endpoint of some line of the subset, that
    is, whether a cycle reads its period; none with a letter past the rank."""
    period = x.period.letters
    return x.max_index() <= spec.rank and _line_graph(spec, period) is not None


def pair_in_subset(spec: SubsetPSpec, x: BoundaryPoint, y: BoundaryPoint) -> bool:
    """Whether (x, y) is a (forward, backward) endpoint pair of the subset:
    whether the line re-based at its branch vertex, back^inf . middle .
    fwd^inf, is a path of the graph; none with a letter past the rank."""
    if x == y or max(x.max_index(), y.max_index()) > spec.rank:
        return False
    junction = int(gromov_product(x, y))
    ahead, fwd = _tail(x, junction)
    behind, per = _tail(y, junction)
    graph = _line_graph(spec, fwd)
    if graph is None:
        return False
    # back = per^-1, middle = behind^-1 . ahead
    arrive, _ = _periodic(graph, tuple([l ^ 1 for l in per[::-1]]))
    leave = _periodic(graph, fwd)[1]
    middle = [l ^ 1 for l in behind[::-1]]
    middle.extend(ahead)
    for s in arrive:
        if graph.read(s, middle) in leave:
            return True
    return False


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
    return math.gcd(*sums)


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
        raise BudgetError(f"primitivity search supports rank <= {WHITEHEAD_RANK_CAP}")
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
    graph = _graph(FullBoundary(rank))
    _require_walks(graph, max_len, 1, f"max_period {max_len}")
    classes = {
        least_rotation(w) for s in range(2 * rank) for w in _cycles(graph, s, max_len)
    }
    classes = sorted(classes, key=ReducedWord.sort_key)
    return [w for w in classes if is_primitive(w, rank)]
