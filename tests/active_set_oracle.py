"""The active-set cone conversion that the double-description engine replaced.

Kept as the reference the differential tests in `test_cone_engine.py` compare
against.  It enumerates every constraint subset of the size an extreme ray's
active set must have, with one kernel computation each, so it is exponential
in the number of constraints: use it on small inputs only.  One fault is
mended here, in `_primitive` (see there); everything else is as it was.
Its fan check takes its meets from the simplex in `simplex_oracle.py`, so
that fan verdicts are compared engine against linear program.

The fan code below is the `RationalCone`-based fan layer that ray masks
replaced: a fan is a list of `ColoredCone`s sorted by their full canonical
description, every face and every image is converted again, and fan
membership compares whole canonical cones.  `colored_cones` lists a mask
fan's cones in that form.
"""
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm

from elimination_oracle import solve_exact
from simplex_oracle import meet_relative_interiors
from sphdescent import cones as engine
from sphdescent.cones import (
    ColoredCone,
    ColorRecord,
    FanVerdict,
    RationalCone,
    StabilityVerdict,
)
from sphdescent.intlinalg import (
    IntMatrix,
    Lattice,
    kernel_lattice,
    vec_dot,
    vec_is_zero,
    vec_neg,
)
from sphdescent.staraction import dual_matrix_on_V


def _qvec(v):
    return tuple(Fraction(x) for x in v)


def _primitive(v):
    fv = _qvec(v)
    if all(x == 0 for x in fv):
        return None
    mult = lcm(*(x.denominator for x in fv))
    ints = [int(x * mult) for x in fv]
    # the initial 0 keeps g positive for a one-entry vector; without it the
    # original flipped (-1,) to (1,), the opposite half-line
    g = reduce(gcd, ints, 0)
    return tuple(x // g for x in ints)


def _project_off(v, lat):
    if lat.rank == 0:
        return _qvec(v)
    rows = lat.basis.entries
    gram = [[vec_dot(a, b) for b in rows] for a in rows]
    coeffs = solve_exact(gram, [vec_dot(a, v) for a in rows])
    out = list(_qvec(v))
    for lam, row in zip(coeffs, rows):
        for j, x in enumerate(row):
            out[j] -= lam * x
    return tuple(out)


def hcone_extreme_rays(constraints, dim):
    """Extreme rays, modulo lineality, of {x : c.x >= 0 for all c}, and the
    lineality lattice, by enumerating candidate active sets."""
    rows = [c for c in constraints if not vec_is_zero(c)]
    if not rows:
        return (), Lattice.full(dim)
    cmat = IntMatrix.from_rows(rows, cols=dim)
    lin = kernel_lattice(cmat)
    t = dim - lin.rank - 1
    if t < 0:
        return (), lin
    rays = set()
    for subset in combinations(range(len(rows)), t):
        sub = IntMatrix.from_rows([rows[i] for i in subset], cols=dim)
        ker = kernel_lattice(sub)
        if ker.rank != lin.rank + 1:
            continue
        v = next((b for b in ker.basis.entries if lin.coordinates(b) is None), None)
        if v is None:
            continue
        ray = _primitive(_project_off(v, lin))
        if ray is None:
            continue
        for cand in (ray, vec_neg(ray)):
            if all(vec_dot(c, cand) >= 0 for c in rows):
                rays.add(cand)
                break
    return tuple(sorted(rays)), lin


def cone_from_generators(dim, generators):
    prim = [p for p in map(_primitive, generators) if p is not None]
    ineqs, perp = hcone_extreme_rays(prim, dim)
    constraints = list(ineqs)
    for e in perp.basis.entries:
        constraints += [e, vec_neg(e)]
    rays, lin = hcone_extreme_rays(constraints, dim)
    return RationalCone(dim, rays, lin.basis.entries,
                        tuple(sorted(ineqs)), perp.basis.entries)


def cone_from_inequalities(dim, inequalities, equations=()):
    constraints = [p for p in map(_primitive, inequalities) if p is not None]
    for e in equations:
        p = _primitive(e)
        if p is not None:
            constraints += [p, vec_neg(p)]
    rays, lin = hcone_extreme_rays(constraints, dim)
    gens = list(rays)
    for b in lin.basis.entries:
        gens += [b, vec_neg(b)]
    return cone_from_generators(dim, gens)


def face_ray_sets(cone):
    """Ray subsets of a strictly convex cone closed under facet incidence,
    found by scanning all 2^#rays subsets."""
    incidence = [sum(1 << i for i, r in enumerate(cone.rays)
                     if vec_dot(c, r) == 0)
                 for c in cone.inequalities]
    full = (1 << len(cone.rays)) - 1
    closed = set()
    for pick in range(1 << len(cone.rays)):
        span = full
        for mask in incidence:
            if pick & ~mask == 0:
                span &= mask
        closed.add(span)
    return {tuple(r for i, r in enumerate(cone.rays) if span >> i & 1)
            for span in closed}


def image(cone, matrix):
    """Image cone, by converting the mapped generators again."""
    return cone_from_generators(
        cone.ambient_dim, [matrix.apply(g) for g in cone.generators()])


def faces(cc):
    """Faces with induced colors, each converted again from its rays."""
    out = set()
    for rays in face_ray_sets(cc.cone):
        face = cone_from_generators(cc.cone.ambient_dim, rays)
        cols = frozenset(r for r in cc.colors if _contains(face, r.rho))
        out.add(ColoredCone(face, cols))
    return frozenset(out)


def _contains(cone, v):
    fv = _qvec(v)
    return (all(vec_dot(e, fv) == 0 for e in cone.equations)
            and all(vec_dot(c, fv) >= 0 for c in cone.inequalities))


def _relint_point(cone):
    out = [Fraction(0)] * cone.ambient_dim
    for r in cone.rays:
        for j, x in enumerate(r):
            out[j] += x
    return tuple(out)


def _relint_contains(cone, p):
    return (all(vec_dot(e, p) == 0 for e in cone.equations)
            and all(vec_dot(c, p) > 0 for c in cone.inequalities))


def _relint_meets(cone, v_cone):
    if cone.is_strictly_convex and _contains(v_cone, _relint_point(cone)):
        return True
    return meet_relative_interiors([cone], [v_cone]) is not None


def _relints_overlap(a, b, v_cone):
    for one, other in ((a, b), (b, a)):
        if one.is_strictly_convex:
            p = _relint_point(one)
            if _relint_contains(other, p) and _contains(v_cone, p):
                return True
    return meet_relative_interiors([a, b], [v_cone]) is not None


def key(cc):
    """The canonical order of fan cones: the full description, then colors."""
    c = cc.cone
    return (c.rays, c.lineality, c.equations, c.inequalities,
            tuple(sorted(r.key() for r in cc.colors)))


def fan(cones):
    """A fan as a list: duplicates dropped, sorted by `key`."""
    dedup = {key(cc): cc for cc in cones}
    return [dedup[k] for k in sorted(dedup)]


def wonderful_fan(v_cone):
    return fan(faces(ColoredCone(v_cone, frozenset())))


def is_valid_fan(cones, v_cone):
    """The fan axioms as first implemented: faces converted again, and a
    separation test on every pair of cones."""
    problems = []
    interior_ok = True
    for k, cc in enumerate(cones):
        if not _relint_meets(cc.cone, v_cone):
            interior_ok = False
            problems.append(f"cone {k}: relative interior misses the valuation cone")
    closure_ok = True
    for k, cc in enumerate(cones):
        for face in sorted(faces(cc), key=key):
            if not _relint_meets(face.cone, v_cone):
                continue
            if not any(face == other for other in cones):
                closure_ok = False
                problems.append(f"cone {k}: face with rays {face.cone.rays} "
                                "missing from the fan")
    separation_ok = True
    for i, j in combinations(range(len(cones)), 2):
        a, b = cones[i].cone, cones[j].cone
        if _relints_overlap(a, b, v_cone):
            separation_ok = False
            problems.append(f"cones {i} and {j}: relative interiors overlap "
                            "inside the valuation cone")
    return FanVerdict(interior_ok, closure_ok, separation_ok, tuple(problems))


def is_wonderful(cones, v_cone):
    """Maximal cones found by pairwise containment."""
    if any(cc.colors for cc in cones):
        return False

    def inside(big, small):
        return all(_contains(big, g) for g in small.generators())

    maximal = [cc for cc in cones
               if not any(other is not cc and inside(other.cone, cc.cone)
                          and other.cone != cc.cone for other in cones)]
    return len(maximal) == 1 and maximal[0].cone == v_cone


def is_gamma_stable(cones, action, weight_lattice):
    """Each generator's image of each cone, converted again, looked up among
    the fan's cones."""
    duals = [dual_matrix_on_V(gen, weight_lattice) for gen in action.generators]
    for name, dual in zip(action.generator_names, duals):
        if dual is None:
            return StabilityVerdict(False, name, None)
    members = set(cones)
    for name, gen, dual in zip(action.generator_names, action.generators, duals):
        for cc in cones:
            moved = ColoredCone(image(cc.cone, dual), frozenset(
                ColorRecord(dual.apply(r.rho),
                            frozenset(gen.s_perm[i] for i in r.sigma))
                for r in cc.colors))
            if moved not in members:
                return StabilityVerdict(False, name, cc)
    return StabilityVerdict(True, None, None)


def colored_cones(fan):
    """A mask fan's cones as `ColoredCone`s in the fan's order, each
    converted from its rays by the engine."""
    return [ColoredCone(engine.cone_from_generators(fan.ambient_dim,
                                                    fan.rays_of(fc.mask)),
                        fc.colors)
            for fc in fan.cones]
