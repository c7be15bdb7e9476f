"""The two-pass cone conversion that the one-pass conversion in `cones`
replaced.

Kept as the reference `test_one_pass_conversion.py` compares against.  As
it was in the package, with its own copy of the double-description engine
of that time, so that the comparison shares no conversion code with what it
tests: the first pass turns the generators into the facets, the second
turns the facets and the equations back into the rays, and each pass's
lineality is a Hermite kernel wherever its rank falls short of the
dimension.
"""
from sphdescent.cones import RationalCone, _check_rows
from sphdescent.intlinalg import (
    IntMatrix,
    kernel_lattice,
    vec_dot,
    vec_neg,
    vec_primitive,
)


def _combine(p: int, u, q: int, v) -> tuple[int, ...] | None:
    """Primitive direction of p*u + q*v, or None when that is zero."""
    return vec_primitive(tuple(p * x + q * y for x, y in zip(u, v)))


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
    """Extreme rays, modulo lineality, of {x : c.x >= 0 for all c}, and the
    rank of the constraint rows: (rays, rank)."""
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
            return (), cuts
    return tuple(sorted(rays)), cuts


def _kernel(dim: int, rows, rank: int) -> tuple:
    """Hermite basis of the integer vectors orthogonal to rational rows of
    the given rank: () at full rank, with no Hermite form to compute."""
    if rank == dim:
        return ()
    rows = [r for r in map(vec_primitive, rows) if r is not None]
    if not rows:
        return IntMatrix.identity(dim).entries
    return kernel_lattice(IntMatrix.from_rows(rows, cols=dim)).basis.entries


def cone_from_generators(dim: int, generators) -> RationalCone:
    """Canonical cone spanned by rational generators (possibly redundant)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    generators = list(generators)
    _check_rows(dim, generators)
    # facets of the cone are the extreme rays of its polar dual, whose
    # lineality is the orthogonal complement of the cone's span
    ineqs, rank = _hcone_extreme_rays(generators)
    perp = _kernel(dim, generators, rank)
    constraints = list(ineqs)
    for e in perp:
        constraints += [e, vec_neg(e)]
    rays, rank = _hcone_extreme_rays(constraints)
    return RationalCone(dim, rays, _kernel(dim, constraints, rank), ineqs, perp)


def cone_from_inequalities(dim: int, inequalities, equations=()) -> RationalCone:
    """Canonical cone {x : c.x >= 0, e.x = 0}; redundant rows are fine.

    It is the polar of the cone spanned by the rows c and +-e, so its
    canonical form is that cone's with the two descriptions swapped.
    """
    constraints = list(inequalities)
    for e in equations:
        constraints += [e, vec_neg(e)]
    p = cone_from_generators(dim, constraints)
    return RationalCone(dim, p.inequalities, p.equations, p.rays, p.lineality)
