"""Exact rational polyhedral cones, colored cones, and colored fans.

Cones are kept in a canonical double description: extreme rays (primitive,
orthogonal to the lineality space), a Hermite basis of the lineality lattice,
facet inequalities (primitive, orthogonal to the equation space), and a
Hermite basis of the equation lattice.  Structural equality of two cones is
then the same as equality of the point sets they define.

Conversion between descriptions, one pass each, and the feasibility question
of whether relative interiors meet go to the one double-description engine
in `ratlp`.

A colored fan holds one sorted list of primitive rays and each of its cones
as a bit mask over that list plus its colors: fan cones are strictly convex,
so each is spanned by its extreme rays.  Faces, fan membership and stability
under lattice automorphisms are read off masks, facet incidence masks and
integer dot products, with no further conversion.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .intlinalg import (
    IntMatrix,
    _exact,
    _int_vec,
    kernel_lattice,
    solve_fraction_free,
    vec_dot,
    vec_integral,
    vec_neg,
    vec_primitive,
)
from .ratlp import _hcone_extreme_rays, feasible
from .rootdata import WEYL_CAP, CapExceeded, check_cap
from .staraction import dual_matrix_on_V


class NotStrictlyConvex(ValueError):
    """A construction needed a strictly convex cone but got lineality."""


NO_FACE_FAN = ("the valuation cone has nontrivial lineality, so no fan has it "
               "as a maximal strictly convex cone")


@dataclass(frozen=True)
class RationalCone:
    """Convex rational polyhedral cone in canonical double description."""

    ambient_dim: int
    rays: tuple
    lineality: tuple
    inequalities: tuple
    equations: tuple

    @property
    def is_strictly_convex(self) -> bool:
        return not self.lineality

    def generators(self) -> tuple:
        return self.rays + self.lineality + tuple(vec_neg(r) for r in self.lineality)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        iv = vec_integral(v)
        return (all(vec_dot(e, iv) == 0 for e in self.equations)
                and all(vec_dot(c, iv) >= 0 for c in self.inequalities))


def _check_rows(dim: int, rows) -> None:
    if any(len(r) != dim for r in rows):
        raise ValueError("dimension mismatch")


def _kernel(dim: int, rows) -> tuple:
    """Hermite basis of the integer vectors orthogonal to integer rows."""
    return kernel_lattice(IntMatrix.from_rows(rows, cols=dim)).basis.entries


def cone_from_generators(dim: int, generators) -> RationalCone:
    """Canonical cone spanned by rational generators (possibly redundant).

    One double-description pass gives the facets, the rays of the polar,
    and the generators on each.  A face is spanned by the generators it
    holds, so the lineality L is nonzero exactly when a generator lies on
    every facet, and the rays modulo L are the generators whose facet sets
    are maximal among the proper ones, one for each.  With L = {0} they
    are the rays; else a ray is a generator projected orthogonal to L, by
    one fraction-free solve on the Gram matrix of L's Hermite basis.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    generators = list(generators)
    _check_rows(dim, generators)
    gens = list(dict.fromkeys(g for g in map(vec_primitive, generators)
                              if g is not None))
    ineqs, masks, rank = _hcone_extreme_rays(gens)
    # the polar's lineality is the orthogonal complement of the cone's span
    perp = _kernel(dim, gens) if rank < dim else ()
    # each generator's facet set, as a bit set over the facets
    on = [sum((m >> k & 1) << i for i, m in enumerate(masks))
          for k in range(len(gens))]
    every = (1 << len(ineqs)) - 1
    proper = {s: g for s, g in zip(on, gens) if s != every}
    tops = sorted(g for s, g in proper.items() if not any(t & s == s != t for t in proper))
    if every not in on:
        return RationalCone(dim, tuple(tops), (), ineqs, perp)
    lin = _kernel(dim, ineqs + perp)
    gram = [[vec_dot(a, b) for b in lin] for a in lin]  # positive definite: det > 0
    det, coeffs = solve_fraction_free(gram, [[vec_dot(a, g) for g in tops]
                                             for a in lin])
    rays = (vec_primitive([det * x - vec_dot(col, row) for x, *row in zip(g, *lin)])
            for g, col in zip(tops, zip(*coeffs)))
    return RationalCone(dim, tuple(sorted(rays)), lin, ineqs, perp)


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


# uncalled memo of cones by ray tuple; the benchmark reads its cache statistics
_cone_from_ray_tuple = lru_cache(maxsize=65536)(cone_from_generators)


def meet_relative_interiors(strict, weak=()):
    """A point interior to every cone of `strict` and inside every cone of
    `weak`, or None.  Exact rational feasibility.

    Each entry needs `ambient_dim`, `equations` and `inequalities`: a
    `RationalCone`, or the relative interior of a fan cone's face.
    c.x > 0 for facets is homogenized to c.x >= 1: for a homogeneous system
    a solution can be scaled until every strict value reaches 1.  Each
    equation enters as two weak rows, e.x >= 0 and -e.x >= 0.
    """
    cones = list(strict) + list(weak)
    if not cones:
        return ()
    dim = cones[0].ambient_dim
    if any(c.ambient_dim != dim for c in cones):
        raise ValueError("dimension mismatch")
    # row -> right-hand side; equations go first, so that each pair removes
    # a dimension before the rays it would otherwise cut are formed
    needed = {}
    for cone in cones:
        for e in cone.equations:
            needed[e] = needed[vec_neg(e)] = 0
    for cone in strict:
        needed.update(dict.fromkeys(cone.inequalities, 1))
    for cone in weak:
        for c in cone.inequalities:
            needed.setdefault(c, 0)
    if not needed:
        return (Fraction(0),) * dim
    return feasible(list(needed), list(needed.values()))


def _simple_indices(indices) -> frozenset:
    """A set of simple-root indices; ValueError for a non-integral or
    negative one."""
    out = frozenset(_int_vec(indices))
    if any(i < 0 for i in out):
        raise ValueError("simple-root indices must be nonnegative")
    return out


@dataclass(frozen=True)
class ColorRecord:
    """Image data of one color: its valuation vector and its simple-root set."""

    rho: tuple
    sigma: frozenset

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(map(_exact, self.rho)))
        object.__setattr__(self, "sigma", _simple_indices(self.sigma))

    def key(self):
        return (self.rho, tuple(sorted(self.sigma)))

    def image(self, matrix: IntMatrix, s_perm) -> "ColorRecord":
        """The color moved by a matrix on V and a simple-root permutation."""
        return ColorRecord(matrix.apply(self.rho),
                           frozenset(s_perm[i] for i in self.sigma))


@dataclass(frozen=True)
class ColoredCone:
    """Strictly convex cone with a set of colors mapping into it."""

    cone: RationalCone
    colors: frozenset

    def __post_init__(self):
        if not self.cone.is_strictly_convex:
            raise NotStrictlyConvex("colored cones must be strictly convex")
        for rec in self.colors:
            if all(x == 0 for x in rec.rho):
                raise ValueError("colors must have nonzero valuation image")
            if len(rec.rho) != self.cone.ambient_dim:
                raise ValueError("color dimension mismatch")
            if not self.cone.contains(rec.rho):
                raise ValueError("color image outside the cone")


class FanCone(NamedTuple):
    """A cone of a colored fan: a bit mask over the fan's rays, and its colors."""

    mask: int
    colors: frozenset


# the relative interior of a face of a parent cone, as the meets read it
_Relint = namedtuple("_Relint", "ambient_dim equations inequalities")


def _parent(cone: RationalCone, bit: dict) -> tuple:
    """A strictly convex cone with each facet's ray mask over a fan's rays."""
    return cone, tuple(sum(bit[r] for r in cone.rays if vec_dot(c, r) == 0)
                       for c in cone.inequalities)


def _face_masks(mask: int, facet_masks, cap: int) -> set:
    """Ray masks of the faces of the face `mask` of a parent cone: its
    closure under intersection with the facet masks, as each face of a
    strictly convex cone is spanned by its rays and cut out by facets.
    CapExceeded once there are more than `cap` of them."""
    closed = {mask}
    for m in facet_masks:
        closed |= {span & m for span in closed}
        if len(closed) > cap:
            raise CapExceeded(f"face enumeration exceeded cap {cap}")
    return closed


def _relint(parent, span: int) -> _Relint:
    """The relative interior of the face `span` of a parent: the parent's
    equations and the facets tight on the face hold with equality, every
    other parent facet strictly, as each proper face of the face is cut out
    by one of those."""
    cone, masks = parent
    eqs, strict = list(cone.equations), []
    for c, m in zip(cone.inequalities, masks):
        (eqs if m & span == span else strict).append(c)
    return _Relint(cone.ambient_dim, tuple(eqs), tuple(strict))


def _face_colors(parent, span: int, colors) -> frozenset:
    """The colors on a face: those on every parent facet tight on it."""
    if not colors:
        return frozenset()
    eqs = _relint(parent, span).equations
    return frozenset(r for r in colors if all(vec_dot(e, r.rho) == 0 for e in eqs))


@dataclass(frozen=True)
class ColoredFan:
    """Nonempty finite set of colored cones over one sorted list of rays.

    `rays` is the union of the cones' primitive extreme rays, and cone k is
    `cones[k]`, a ray mask over `rays` plus its colors; cones are sorted by
    ray tuple, then by color keys.  `parents[k]` is a cone that has cone k
    as a face, with its facets' ray masks: its H-description gives cone k's
    faces and relative interior.
    """

    ambient_dim: int
    rays: tuple
    cones: tuple
    parents: tuple = field(compare=False, repr=False)

    @classmethod
    def build(cls, cones) -> "ColoredFan":
        """The fan of the given colored cones, each its own parent."""
        cones = list(cones)
        if not cones:
            raise ValueError("a colored fan must be nonempty")
        dims = {cc.cone.ambient_dim for cc in cones}
        if len(dims) != 1:
            raise ValueError("all cones must share one ambient dimension")
        rays = tuple(sorted({r for cc in cones for r in cc.cone.rays}))
        bit = {r: 1 << i for i, r in enumerate(rays)}
        parents = {cc.cone: _parent(cc.cone, bit) for cc in cones}
        return _fan(dims.pop(), rays, [
            (sum(bit[r] for r in cc.cone.rays), cc.colors, parents[cc.cone])
            for cc in cones])

    def __len__(self) -> int:
        return len(self.cones)

    @cached_property
    def _index(self) -> dict:
        """Each fan cone's position in `cones`."""
        return {fc: k for k, fc in enumerate(self.cones)}

    def __contains__(self, fc: FanCone) -> bool:
        return fc in self._index

    def rays_of(self, mask: int) -> tuple:
        """The rays in a mask, in order: the extreme rays of its cone."""
        return tuple(r for i, r in enumerate(self.rays) if mask >> i & 1)


def _fan(dim: int, rays: tuple, entries) -> ColoredFan:
    """Fan of (mask, colors, parent) entries: duplicates go, and the cones
    are put in canonical order."""
    parents = {}
    for mask, colors, parent in entries:
        parents.setdefault(FanCone(mask, frozenset(colors)), parent)

    def key(fc):
        # rays are sorted, so index tuples sort as the ray tuples would
        return tuple(_bits(fc.mask)), sorted(r.key() for r in fc.colors)

    order = sorted(parents, key=key)
    return ColoredFan(dim, rays, tuple(order), tuple(parents[fc] for fc in order))


def faces(cc: ColoredCone, cap: int = WEYL_CAP) -> ColoredFan:
    """All faces of a colored cone, each with the colors on it, as a fan
    over the cone's rays with the cone as every face's parent.
    CapExceeded when there are more than `cap` faces."""
    check_cap(cap)
    base = cc.cone
    parent = _parent(base, {r: 1 << i for i, r in enumerate(base.rays)})
    full = (1 << len(base.rays)) - 1
    return _fan(base.ambient_dim, base.rays, [
        (span, _face_colors(parent, span, cc.colors), parent)
        for span in _face_masks(full, parent[1], cap)])


@dataclass(frozen=True)
class FanVerdict:
    """Per-axiom outcome of the colored fan validity check."""

    interior_ok: bool
    closure_ok: bool
    separation_ok: bool
    problems: tuple

    @property
    def ok(self) -> bool:
        return self.interior_ok and self.closure_ok and self.separation_ok


def _relint_contains(cone, p) -> bool:
    # relative interior membership: equations hold, every facet is strict
    return (all(vec_dot(e, p) == 0 for e in cone.equations)
            and all(vec_dot(c, p) > 0 for c in cone.inequalities))


def _bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def is_valid_fan(fan: ColoredFan, v_cone: RationalCone,
                 cap: int = WEYL_CAP) -> FanVerdict:
    """Check the three colored fan axioms against a valuation cone.

    (i) each cone's relative interior meets the valuation cone; (ii) each
    face that meets the valuation cone (with its induced colors) belongs to
    the fan; (iii) no point of the valuation cone is interior to two cones.

    The work follows the cones that are not faces of others, as in the
    double-description bookkeeping of Fukuda & Prodon (1996).  Cones are
    taken by descending ray count; one that equals, mask and colors, a face
    of a cone taken before is covered, and only the others have their
    faces enumerated, at most `cap` each.  Relative interiors and induced
    colors are the face's own, so a covered cone misses the faces that its
    cover misses inside it.  Distinct faces of one cone have disjoint
    relative interiors, so (iii) skips the pairs of distinct faces of one
    enumerated cone.  A face meets the valuation cone when its rays, or
    their sum, which is interior to it, lie there; exact feasibility
    decides else.
    """
    if v_cone.ambient_dim != fan.ambient_dim:
        raise ValueError("fan and valuation cone dimensions differ")
    check_cap(cap)
    v_rays = set(v_cone.rays)  # V's rays lie in V: no facet to scan
    in_v = sum(1 << i for i, r in enumerate(fan.rays)
               if r in v_rays or v_cone.contains(r))

    def point(mask):
        return tuple(map(sum, zip(*fan.rays_of(mask)))) or (0,) * fan.ambient_dim

    def meets(parent, span):
        return (span & in_v == span or v_cone.contains(point(span))
                or meet_relative_interiors([_relint(parent, span)], [v_cone])
                is not None)

    problems = []
    interior_ok = True
    for k, (fc, parent) in enumerate(zip(fan.cones, fan.parents)):
        if not meets(parent, fc.mask):
            interior_ok = False
            problems.append(f"cone {k}: relative interior misses the valuation cone")
    masks = [fc.mask for fc in fan.cones]
    same = {}  # mask -> bit set of the fan cones with that mask
    for k, mask in enumerate(masks):
        same[mask] = same.get(mask, 0) | 1 << k
    missing = [None] * len(fan)  # per cone: missing face masks, by rays
    near = [0] * len(fan)  # per cone: fan faces of the enumerated cones holding it
    for k in sorted(range(len(fan)), key=lambda k: -masks[k].bit_count()):
        if missing[k] is not None:
            continue
        fc, parent = fan.cones[k], fan.parents[k]
        found, covered, held = [], [], 0
        for span in _face_masks(fc.mask, parent[1], cap):
            held |= same.get(span, 0)
            j = fan._index.get(FanCone(span, _face_colors(parent, span, fc.colors)))
            if j is None:
                if meets(parent, span):
                    found.append(span)
            elif j != k and missing[j] is None:
                covered.append(j)
        for i in _bits(held):
            near[i] |= held
        missing[k] = sorted(found, key=fan.rays_of)
        for j in covered:
            missing[j] = [m for m in missing[k] if m & masks[j] == m]
    closure_ok = True
    for k, spans in enumerate(missing):
        for span in spans:
            closure_ok = False
            problems.append(f"cone {k}: face with rays {fan.rays_of(span)} "
                            "missing from the fan")
    separation_ok = True
    everything = (1 << len(fan)) - 1
    for i, a in enumerate(masks):
        # the cones j > i, less the distinct faces of a cone that holds cone i
        for j in _bits((everything ^ (near[i] & ~same[a])) >> i + 1 << i + 1):
            b = masks[j]
            ri, rj = (_relint(fan.parents[k], masks[k]) for k in (i, j))
            if (any(_relint_contains(other, point(one))
                    and v_cone.contains(point(one))
                    for one, other in ((a, rj), (b, ri)))
                    or meet_relative_interiors([ri, rj], [v_cone]) is not None):
                separation_ok = False
                problems.append(f"cones {i} and {j}: relative interiors "
                                "overlap inside the valuation cone")
    return FanVerdict(interior_ok, closure_ok, separation_ok, tuple(problems))


def wonderful_fan(v_cone: RationalCone, cap: int = WEYL_CAP) -> ColoredFan:
    """The colorless fan of all faces of a strictly convex valuation cone;
    CapExceeded when there are more than `cap` faces."""
    if not v_cone.is_strictly_convex:
        raise NotStrictlyConvex(NO_FACE_FAN)
    return faces(ColoredCone(v_cone, frozenset()), cap)


def is_wonderful(fan: ColoredFan, v_cone: RationalCone) -> bool:
    """One maximal cone, equal to the valuation cone, and no colors anywhere.

    Without colors the fan's cones are distinct, so this holds exactly when
    one fan cone equals the valuation cone and every fan cone lies in it.
    Fan cones are strictly convex, hence spanned by their rays: one equals
    the valuation cone when it is strictly convex with the same rays, and
    all lie in it when every fan ray does.
    """
    if any(fc.colors for fc in fan.cones) or not v_cone.is_strictly_convex:
        return False
    v_rays = set(v_cone.rays)
    v_mask = sum(1 << i for i, r in enumerate(fan.rays) if r in v_rays)
    if v_mask.bit_count() != len(v_rays) or sum(fc.mask == v_mask for fc in fan.cones) != 1:
        return False
    return all(r in v_rays or v_cone.contains(r) for r in fan.rays)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the fan stability check under a finite action.

    `violating_cone` is the fan cone that the violating generator moves off
    the fan, or None when it moves the weight lattice.
    """

    stable: bool
    violating_generator: str | None
    violating_cone: FanCone | None


def is_gamma_stable(fan: ColoredFan, action, weight_lattice) -> StabilityVerdict:
    """Does every action generator map every fan cone onto a fan cone?

    Each generator is transported to V through the inverse-transpose of its
    restriction to the weight lattice; colors move by (matrix on V,
    permutation of simple roots).  A unimodular map sends a cone's primitive
    extreme rays to the image's, so a cone maps onto a fan cone exactly when
    every ray maps into the fan's ray list and the image mask, with the
    image colors, is a fan cone.  Generators suffice: the moved-fan
    condition is closed under composition and inverses, and so is
    stability of the weight lattice.  The first generator that moves the
    lattice is reported before any cone is tested; otherwise the first fan
    cone moved off the fan is reported as it is stored.  A color that names
    a simple root the action does not have is a ValueError.
    """
    top = max((i for fc in fan.cones for r in fc.colors for i in r.sigma),
              default=-1)
    if any(top >= len(gen.s_perm) for gen in action.generators):
        raise ValueError(f"a fan color names simple-root index {top}, past "
                         "the simple roots that the action permutes")
    duals = [dual_matrix_on_V(gen, weight_lattice) for gen in action.generators]
    for name, dmat in zip(action.generator_names, duals):
        if dmat is None:
            return StabilityVerdict(False, name, None)
    index = {r: 1 << i for i, r in enumerate(fan.rays)}
    for name, gen, dmat in zip(action.generator_names, action.generators, duals):
        moved = [index.get(dmat.apply(r)) for r in fan.rays]
        for fc in fan.cones:
            bits = [b for i, b in enumerate(moved) if fc.mask >> i & 1]
            if None in bits or FanCone(sum(bits), frozenset(
                    r.image(dmat, gen.s_perm) for r in fc.colors)) not in fan:
                return StabilityVerdict(False, name, fc)
    return StabilityVerdict(True, None, None)
