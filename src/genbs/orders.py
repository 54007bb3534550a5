"""Monomial term orders on exponent vectors.

Monomials are plain tuples of non-negative integers.  Every order is
realized through a ``key`` function mapping an exponent vector to a tuple
that compares the right way under Python's lexicographic tuple comparison,
so ``max(terms, key=order.key)`` picks the leading monomial.  Each order
keeps the keys it has computed: ``order.cached_key`` is the ``__getitem__``
of a dict that fills a miss through ``order.key``, and every hot reader
(leading terms, sorted terms, the S-pair heap) goes through it.

All orders here are admissible: total, multiplicative (u < v implies
uw < vw) and well-founded with the constant monomial as minimum.  The
multiplicativity of the key-based comparisons is exercised by the property
suite rather than proven per instance.
"""

from __future__ import annotations

import weakref
from operator import add, ge, neg, sub


class _KeyCache(dict):
    """exp -> order key; a miss is computed by the order's ``key``.

    It holds its order only weakly, so an order and its cache form no
    reference cycle and both are freed by refcount with the last ring
    that uses the order.
    """

    __slots__ = ("_order",)

    def __init__(self, order):
        self._order = weakref.ref(order)

    def __missing__(self, exp):
        k = self[exp] = self._order().key(exp)
        return k


class TermOrder:
    """Base class; subclasses define ``key`` and a stable description."""

    def __init__(self):
        self.cached_key = _KeyCache(self).__getitem__

    def key(self, exp):
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def greater(self, a, b):
        return self.cached_key(a) > self.cached_key(b)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TermOrder) and self.describe() == other.describe()
        )

    def __hash__(self):
        return hash(self.describe())

    def __repr__(self):
        return self.describe()


class Lex(TermOrder):
    """Pure lexicographic order; earlier positions dominate."""

    def key(self, exp):
        return tuple(exp)

    def describe(self):
        return "lex"


class GRevLex(TermOrder):
    """Degree reverse lexicographic order."""

    def key(self, exp):
        return (sum(exp), tuple(map(neg, reversed(exp))))

    def describe(self):
        return "grevlex"


class Block(TermOrder):
    """Elimination order: the front block dominates, ties fall to the back.

    ``front`` is a set of variable positions; each block is ordered by
    grevlex.  A monomial involving a front variable is larger than any
    monomial free of them, which is what makes basis elements free of the
    front block generate the subring intersection.  The back positions
    depend only on the exponent length, so they are computed once per
    length.
    """

    def __init__(self, front):
        super().__init__()
        self.front = tuple(sorted(front))
        self._front_set = frozenset(self.front)
        self._grevlex = GRevLex()
        self._back = {}
        self._describe = "block(front=%s;grevlex;grevlex)" % ",".join(map(str, self.front))

    def _back_indices(self, n):
        back = self._back.get(n)
        if back is None:
            back = tuple(i for i in range(n) if i not in self._front_set)
            self._back[n] = back
        return back

    def split(self, exp):
        fr = tuple([exp[i] for i in self.front])
        bk = tuple([exp[i] for i in self._back_indices(len(exp))])
        return fr, bk

    def key(self, exp):
        fr, bk = self.split(exp)
        key = self._grevlex.cached_key
        return (key(fr), key(bk))

    def describe(self):
        return self._describe


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """Return a/b as an exponent vector, or None if b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def mono_divides(b, a):
    return all(map(ge, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_is_one(a):
    return all(e == 0 for e in a)


def multi_indices(nvars, max_total):
    """All exponent tuples with total degree <= max_total, ascending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], max_total, nvars)
    out.sort(key=lambda t: (sum(t), t))
    return out
