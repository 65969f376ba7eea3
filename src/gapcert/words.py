"""Reduced words in a free group and boundary points of its Cayley tree.

A letter is an integer code: 2 (i - 1) for the i-th generator and
2 (i - 1) + 1 for its inverse, so a letter's inverse is code ^ 1 and codes
sort a < A < b < B < ...  Words are freely reduced tuples of codes, and
boundary points are eventually periodic infinite reduced words kept in a
canonical (shortest preperiod, primitive period) form so that equality is
decidable by comparing fields.
"""

from __future__ import annotations

import math
from itertools import chain, cycle
from typing import Iterable, Iterator

from .errors import EmptyWordError

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def letter_to_string(letter: int) -> str:
    """A letter code as text: lowercase generators, uppercase inverses, and
    x27 / x27^-1 past the alphabet."""
    if letter < 0:
        raise ValueError(f"letter codes are >= 0, got {letter}")
    index, inverse = divmod(letter, 2)
    if index >= len(_ALPHABET):
        return f"x{index + 1}" + ("^-1" if inverse else "")
    return _ALPHABET[index].upper() if inverse else _ALPHABET[index]


_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types.  __init__ sets each field once
    through object.__setattr__; assignment and deletion raise.  _fields
    names the constructor's arguments, which repr, copy and pickle read,
    and _key returns the tuple of the compared fields, which equality and
    the hash read."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ReducedWord(_Frozen):
    """A freely reduced word; the constructor rejects adjacent cancellations."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        for u, v in zip(letters, letters[1:]):
            if u == v ^ 1:
                raise ValueError(
                    "word is not freely reduced at "
                    f"{letter_to_string(u)}{letter_to_string(v)}"
                )
        _set(self, "letters", letters)

    def _key(self) -> tuple:
        return (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        got = self.letters[i]
        return ReducedWord(got) if isinstance(i, slice) else got

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return concat(self, other)

    def __str__(self) -> str:
        return word_to_string(self)

    def is_empty(self) -> bool:
        return not self.letters

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple(l ^ 1 for l in reversed(self.letters)))

    def prefix(self, m: int) -> "ReducedWord":
        if not 0 <= m <= len(self.letters):
            raise ValueError(f"prefix length {m} out of range 0..{len(self.letters)}")
        return ReducedWord(self.letters[:m])

    def max_index(self) -> int:
        """Largest generator index used (0 for the empty word)."""
        return max(self.letters) // 2 + 1 if self.letters else 0

    def sort_key(self) -> tuple:
        """Total order: by length, then letterwise by code (a < A < b < B)."""
        return (len(self.letters), self.letters)

    def is_cyclically_reduced(self) -> bool:
        if len(self.letters) < 2:
            return True
        return self.letters[0] != self.letters[-1] ^ 1


EMPTY_WORD = ReducedWord()


def reduce(letters: Iterable[int]) -> ReducedWord:
    """Freely reduce an arbitrary letter sequence (stack cancellation)."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == l ^ 1:
            stack.pop()
        else:
            stack.append(l)
    return ReducedWord(tuple(stack))


def concat(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """Product u*v in the free group, freely reduced."""
    i = 0
    limit = min(len(u), len(v))
    while i < limit and u.letters[len(u) - 1 - i] == v.letters[i] ^ 1:
        i += 1
    return ReducedWord(u.letters[: len(u) - i] + v.letters[i:])


def cyclic_reduce(w: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Split w = c * core * c^-1 with core cyclically reduced; returns (core, c)."""
    if w.is_empty():
        raise EmptyWordError("cannot cyclically reduce the empty word")
    letters = w.letters
    i = 0
    while len(letters) - 2 * i >= 2 and letters[i] == letters[-1 - i] ^ 1:
        i += 1
    return ReducedWord(letters[i : len(letters) - i]), ReducedWord(letters[:i])


def rotate(w: ReducedWord, shift: int) -> ReducedWord:
    """Cyclic rotation of a cyclically reduced word by `shift` positions."""
    if w.is_empty():
        raise EmptyWordError("cannot rotate the empty word")
    if not w.is_cyclically_reduced():
        raise ValueError("rotation requires a cyclically reduced word")
    s = shift % len(w)
    return ReducedWord(w.letters[s:] + w.letters[:s])


def least_rotation(w: ReducedWord) -> ReducedWord:
    """The least rotation of a cyclically reduced word in sort_key order: one
    representative per conjugacy class."""
    return min((rotate(w, i) for i in range(len(w))), key=ReducedWord.sort_key)


def word_to_string(w: ReducedWord) -> str:
    """ASCII form: lowercase generators, uppercase inverses (rank <= 26)."""
    if w.max_index() > len(_ALPHABET):
        raise ValueError("ASCII form only supports generator indices up to 26")
    return "".join(letter_to_string(l) for l in w.letters)


def parse_letter(ch: str) -> int:
    """The code of one ASCII letter: a -> 0, A -> 1, b -> 2, ..."""
    if not (isinstance(ch, str) and len(ch) == 1 and ch.lower() in _ALPHABET):
        raise ValueError(f"invalid letter character {ch!r}")
    return 2 * _ALPHABET.index(ch.lower()) + ch.isupper()


def parse_word(s: str) -> ReducedWord:
    """Parse an ASCII word; raises ValueError if not freely reduced."""
    if not isinstance(s, str):
        raise ValueError(f"expected a word string, got {s!r}")
    return ReducedWord(tuple(parse_letter(ch) for ch in s.strip()))


def _primitive_root(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest u with letters = u^m (as a plain sequence)."""
    n = len(letters)
    for p in range(1, n + 1):
        if n % p == 0 and letters == letters[:p] * (n // p):
            return letters[:p]
    raise AssertionError("unreachable")


class BoundaryPoint(_Frozen):
    """Eventually periodic point of the tree boundary, x = preperiod.(period)^inf.

    Canonical form is enforced on construction: the period is primitive and
    the preperiod is shortest (no trailing letter of the preperiod equals the
    last letter of the period).  Two points are equal as boundary points iff
    their canonical fields are equal, so field-wise equality/hash is exact.
    The given words are kept where canonicalization leaves them as they are.
    """

    __slots__ = _fields = ("preperiod", "period")

    def __init__(self, preperiod: ReducedWord, period: ReducedWord):
        if period.is_empty():
            raise EmptyWordError("boundary point needs a nonempty period")
        pre = preperiod.letters
        per = _primitive_root(period.letters)
        cut = len(pre)
        while cut and pre[cut - 1] == per[-1]:
            cut -= 1
            per = per[-1:] + per[:-1]
        # Junction checks: the spelled infinite word must be reduced.
        if cut and pre[cut - 1] == per[0] ^ 1:
            raise ValueError("preperiod/period junction cancels")
        if per[0] == per[-1] ^ 1:
            raise ValueError("period is not cyclically reduced")
        kept = cut == len(pre)
        _set(self, "preperiod", preperiod if kept else ReducedWord(pre[:cut]))
        kept = kept and len(per) == len(period)
        _set(self, "period", period if kept else ReducedWord(per))

    def _key(self) -> tuple:
        return (self.preperiod, self.period)

    def letter_at(self, i: int) -> int:
        """Letter i (0-based) of the spelled infinite word."""
        if i < 0:
            raise ValueError("boundary point letters are indexed from 0")
        npre = len(self.preperiod)
        if i < npre:
            return self.preperiod.letters[i]
        return self.period.letters[(i - npre) % len(self.period)]

    def prefix(self, m: int) -> ReducedWord:
        """The length-m vertex on the ray from the identity to this point."""
        return ReducedWord(tuple(self.letter_at(i) for i in range(m)))

    def max_index(self) -> int:
        """Largest generator index used."""
        return max(self.preperiod.max_index(), self.period.max_index())

    def __str__(self) -> str:
        return boundary_point_to_string(self)


def boundary_point_to_string(x: BoundaryPoint) -> str:
    """Serialized form "prefix|(period)"; empty prefix gives "(period)"."""
    per = f"({word_to_string(x.period)})"
    return per if x.preperiod.is_empty() else f"{word_to_string(x.preperiod)}|{per}"


def parse_boundary_point(s: str) -> BoundaryPoint:
    """Parse "prefix|(period)" or "(period)"; the "prefix|" part is optional."""
    s = s.strip()
    head, sep, tail = s.partition("|")
    if not sep:
        head, tail = "", s
    if not (tail.startswith("(") and tail.endswith(")")):
        raise ValueError(f"period must be parenthesized in {s!r}")
    return BoundaryPoint(parse_word(head), parse_word(tail[1:-1]))


def periodic_point(w: ReducedWord) -> BoundaryPoint:
    """The attracting fixed point w^inf of a cyclically reduced word."""
    if not w.is_cyclically_reduced():
        raise ValueError("periodic point needs a cyclically reduced word")
    return BoundaryPoint(EMPTY_WORD, w)


def translate(g: ReducedWord, x: BoundaryPoint) -> BoundaryPoint:
    """The boundary action g . x: spell g followed by x and cancel."""
    depth = 0
    rev = g.inverse()  # rev[j] cancels x's letter j when they match
    while depth < len(g) and x.letter_at(depth) == rev.letters[depth]:
        depth += 1
    head = g.letters[: len(g) - depth]
    npre = len(x.preperiod)
    if depth <= npre:
        pre = head + x.preperiod.letters[depth:]
        per = x.period
    else:
        pre = head
        per = rotate(x.period, depth - npre)
    return BoundaryPoint(ReducedWord(pre), per)


def gromov_product(x: BoundaryPoint, y: BoundaryPoint) -> float:
    """Length of the common prefix of x and y from the identity (inf if x == y)."""
    if x == y:
        return math.inf
    bound = (
        max(len(x.preperiod), len(y.preperiod))
        + math.lcm(len(x.period), len(y.period))
        + 1
    )
    spelled_x = chain(x.preperiod.letters, cycle(x.period.letters))
    spelled_y = chain(y.preperiod.letters, cycle(y.period.letters))
    for i, u, v in zip(range(bound), spelled_x, spelled_y):
        if u != v:
            return i
    raise AssertionError("distinct canonical points must differ within the bound")


def visual_distance(x: BoundaryPoint, y: BoundaryPoint, kappa: float = 1.0) -> float:
    """Visual metric exp(-kappa * (x|y)) on the boundary; 0 iff x == y."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    gp = gromov_product(x, y)
    return 0.0 if math.isinf(gp) else math.exp(-kappa * gp)
