"""Exact rational polyhedra: double-description conversion and feasibility.

`_hcone_extreme_rays` is the one polyhedral engine of the package: the
incremental double-description method (Motzkin et al. 1953; Fukuda & Prodon
1996) in integer arithmetic, turning {x : c.x >= 0 for all c} into its
extreme rays, their incidence with the rows and the rank of the rows.
`cones` builds canonical cones on it, one pass each, and `feasible`
decides a system of weak inequalities c . x >= r with it, by homogenizing
the system to a cone.  Strict homogeneous inequalities are handled by
callers through scaling: c . x > 0 is feasible together with a homogeneous
system iff c . x >= 1 is.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .intlinalg import vec_dot, vec_neg, vec_primitive


def _combine(p: int, u, q: int, v) -> tuple[int, ...] | None:
    """Primitive direction of p*u + q*v for integer u, v; None when zero."""
    w = tuple(p * x + q * y for x, y in zip(u, v))
    g = gcd(*w)
    return (w if g == 1 else tuple(x // g for x in w)) if g else None


def _adjacent(z: int, masks) -> bool:
    # combinatorial test: no ray besides the two is tight wherever both are
    holders = 0
    for m in masks:
        if m & z == z:
            holders += 1
            if holders > 2:
                return False
    return True


def _hcone_extreme_rays(constraints, watch: int | None = None) -> tuple:
    """Extreme rays, modulo lineality, of {x : c.x >= 0 for all c}, their
    incidence with the constraint rows, and the rank of the rows.

    Returns (rays, masks, rank): the sorted primitive integer ray
    representatives orthogonal to the lineality space, which is the kernel
    of the constraint matrix; for each ray, the bit set of the rows tight on
    it, bit k standing for the k-th nonzero row; and the dimension of the
    row space, so that the lineality is {0} exactly when the rank is the
    ambient dimension.  With `watch` set, stops with no rays once no ray has
    a positive entry at that index.
    That is final when the first row is x[watch] >= 0, as in `feasible`:
    the lineality left after it lies in x[watch] = 0.

    Incremental double description inside the orthogonal complement of the
    lineality, which the constraint rows span.  The cone starts as that whole
    space, held as a spanning set of the lineality it has left.  A constraint
    that is not zero on that lineality turns one spanning vector into a new
    ray and moves the other vectors, and the rays, onto its hyperplane.  Any
    other constraint keeps the rays on its nonnegative side and adds, for
    each adjacent pair of rays it separates, the positive combination on its
    hyperplane.  Each ray carries the bit set of the constraints so far that
    are tight on it, which gives the adjacency test and, at the end, the
    incidence.
    """
    rows = [c for c in map(vec_primitive, constraints) if c is not None]
    span = list(dict.fromkeys(rows))
    rays, masks = [], []
    cuts = 0  # dimension of the cone modulo its lineality: the rank so far
    for k, a in enumerate(rows):
        bit = 1 << k
        i = next((i for i, v in enumerate(span) if vec_dot(a, v)), None)
        if i is not None:
            piv = span.pop(i)
            s = vec_dot(a, piv)
            if s < 0:
                piv, s = vec_neg(piv), -s
            span = [w for w in (_combine(s, v, -vec_dot(a, v), piv) for v in span)
                    if w is not None]
            rays = [_combine(s, r, -vec_dot(a, r), piv) for r in rays]
            masks = [m | bit for m in masks]
            rays.append(piv)
            masks.append(bit - 1)
            cuts += 1
            continue
        vals = [vec_dot(a, r) for r in rays]
        if all(t >= 0 for t in vals):
            masks = [m | bit if t == 0 else m for m, t in zip(masks, vals)]
            continue
        # two adjacent rays are tight together on cuts - 2 independent rows
        need = cuts - 2
        new_rays, new_masks = [], []
        for p, tp in enumerate(vals):
            if tp <= 0:
                continue
            for n, tn in enumerate(vals):
                if tn >= 0:
                    continue
                z = masks[p] & masks[n]
                if z.bit_count() < need or not _adjacent(z, masks):
                    continue
                new_rays.append(_combine(tp, rays[n], -tn, rays[p]))
                new_masks.append(z | bit)
        for r, m, t in zip(rays, masks, vals):
            if t >= 0:
                new_rays.append(r)
                new_masks.append(m | bit if t == 0 else m)
        rays, masks = new_rays, new_masks
        if watch is not None and all(r[watch] <= 0 for r in rays):
            return (), (), cuts
    pairs = sorted(zip(rays, masks))
    return tuple(r for r, _ in pairs), tuple(m for _, m in pairs), cuts


def feasible(rows, rhs) -> tuple[Fraction, ...] | None:
    """A rational x with row . x >= r for every (row, r) pair, or None.

    rows: sequence of coefficient vectors, all of one length n (n may be 0).
    rhs: sequence of right-hand sides, one per row.

    The system is feasible exactly when the cone {(x, t) : row . x - r t >= 0,
    t >= 0} has a point with t > 0.  Its lineality lies in t = 0, so that
    holds exactly when one of its extreme rays has t > 0, and then x is the
    ray's first n entries over t.  t >= 0 goes first: it is the first cut.
    The lineality left after it lies in t = 0, so a later row keeps or
    rescales the rays with t > 0 and makes new ones only from pairs that
    hold one; once no ray has t > 0 the answer is None and the conversion
    stops.
    """
    rows, rhs = [tuple(row) for row in rows], list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged coefficient rows")
    cone = [(0,) * n + (1,)] + [(*row, -r) for row, r in zip(rows, rhs)]
    rays, _, _ = _hcone_extreme_rays(cone, watch=n)
    ray = next((ray for ray in rays if ray[n] > 0), None)
    return None if ray is None else tuple(Fraction(x, ray[n]) for x in ray[:n])
