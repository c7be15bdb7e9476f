"""Reference Weyl orbit by breadth-first search (test oracle).

This is the enumeration `sphdescent.weyl.weyl_orbit` used before it moved
to descent from the dominant member: a two-way search over the simple
reflections that takes one dot product per simple coroot for every vector
and keeps a global seen-set.  It is kept only so the tests can compare the
new enumeration against an independent one.
"""
from fractions import Fraction

from sphdescent.intlinalg import vec_dot
from sphdescent.rootdata import CapExceeded


def weyl_orbit(brd, v, cap=10 ** 6):
    start = tuple(Fraction(x) for x in v)
    if len(start) != brd.rank:
        raise ValueError("vector length mismatch")
    if all(x.denominator == 1 for x in start):
        start = tuple(int(x) for x in start)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for alpha, cov in zip(brd.simple_roots, brd.simple_coroots):
                c = vec_dot(w, cov)
                if c == 0:
                    continue
                img = tuple(x - c * a for x, a in zip(w, alpha))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    if len(seen) > cap:
                        raise CapExceeded(f"orbit exceeded cap {cap}")
        frontier = nxt
    return frozenset(seen)
