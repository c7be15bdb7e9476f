"""Exact rational polyhedral cones, colored cones, and colored fans.

Cones are kept in a canonical double description: extreme rays (primitive,
orthogonal to the lineality space), a Hermite basis of the lineality lattice,
facet inequalities (primitive, orthogonal to the equation space), and a
Hermite basis of the equation lattice.  Structural equality of two cones is
then the same as equality of the point sets they define.

Conversion between descriptions is the incremental double-description method
(Motzkin et al. 1953; Fukuda & Prodon 1996) in integer arithmetic.  Faces and
images under lattice automorphisms are read off the description a cone
already has, with no further conversion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm

from .intlinalg import (
    IntMatrix,
    Lattice,
    kernel_lattice,
    vec_dot,
    vec_is_zero,
    vec_neg,
)
from .ratlp import feasible
from .staraction import dual_action_on_V


class NotStrictlyConvex(ValueError):
    """A construction needed a strictly convex cone but got lineality."""


def _qvec(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


def _integral(v) -> tuple[int, ...]:
    """A positive integer multiple of a rational vector; itself if integral."""
    if all(type(x) is int for x in v):
        return tuple(v)
    fv = _qvec(v)
    mult = lcm(*(x.denominator for x in fv))
    return tuple(int(x * mult) for x in fv)


def _primitive(v) -> tuple[int, ...] | None:
    """Scale a rational vector to a primitive integer vector, same direction."""
    iv = _integral(v)
    g = gcd(*iv)
    if g == 0:
        return None
    return iv if g == 1 else tuple(x // g for x in iv)


def _combine(p: int, u, q: int, v) -> tuple[int, ...] | None:
    """Primitive direction of p*u + q*v, or None when that is zero."""
    return _primitive(tuple(p * x + q * y for x, y in zip(u, v)))


def _project_off(vectors, basis) -> list:
    """Primitive directions of the orthogonal projections of integer vectors
    off the span of independent integer rows (None for a vector in the span).

    With B the rows and G = B B^T, det(G) v - B^T adj(G) B v is det(G) > 0
    times the projection.  adj(G) comes from one fraction-free Gauss-Jordan
    elimination of [G | I], and only when some vector is not already
    orthogonal to the rows; G is positive definite, so its leading minors,
    which are the pivots, never vanish and no row swaps are needed.
    """
    k = len(basis)
    out = []
    adj = None
    for v in vectors:
        bv = [vec_dot(b, v) for b in basis]
        if not any(bv):
            out.append(_primitive(v))
            continue
        if adj is None:
            aug = [[vec_dot(a, b) for b in basis] + [int(i == j) for j in range(k)]
                   for i, a in enumerate(basis)]
            det = 1
            for p in range(k):
                piv, prow = aug[p][p], aug[p]
                for i in range(k):
                    if i != p:
                        f = aug[i][p]
                        aug[i] = [(piv * x - f * y) // det
                                  for x, y in zip(aug[i], prow)]
                det = piv
            adj = [row[k:] for row in aug]
        w = [vec_dot(row, bv) for row in adj]
        out.append(_primitive(tuple(
            det * x - sum(wi * b[j] for wi, b in zip(w, basis))
            for j, x in enumerate(v))))
    return out


def _adjacent(z: int, masks) -> bool:
    # combinatorial test: no ray besides the two is tight wherever both are
    holders = 0
    for m in masks:
        if m & z == z:
            holders += 1
            if holders > 2:
                return False
    return True


def _hcone_extreme_rays(constraints, dim: int) -> tuple[tuple, Lattice]:
    """Extreme rays, modulo lineality, of {x : c.x >= 0 for all c}.

    Returns (rays, lineality): sorted primitive integer ray representatives
    orthogonal to the lineality space, and the saturated lineality lattice
    (the kernel of the constraint matrix).

    Incremental double description inside the orthogonal complement of the
    lineality, which the constraint rows span.  The cone starts as that whole
    space, held as a spanning set of the lineality it has left.  A constraint
    that is not zero on that lineality turns one spanning vector into a new
    ray and moves the other vectors, and the rays, onto its hyperplane.  Any
    other constraint keeps the rays on its nonnegative side and adds, for
    each adjacent pair of rays it separates, the positive combination on its
    hyperplane.  Each ray carries the bit set of the constraints so far that
    are tight on it, which gives the adjacency test.
    """
    rows = [c for c in map(_primitive, constraints) if c is not None]
    if not rows:
        return (), Lattice.full(dim)
    lin = kernel_lattice(IntMatrix.from_rows(rows, cols=dim))
    span = list(dict.fromkeys(rows))
    rays, masks = [], []
    cuts = 0  # dimension of the cone modulo its lineality
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
    return tuple(sorted(rays)), lin


@lru_cache(maxsize=256)
def _inverse_transpose(matrix: IntMatrix) -> IntMatrix:
    # a stability check maps every cone of a fan by the same matrix
    return matrix.inverse_unimodular().transpose()


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

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)

    @property
    def is_origin(self) -> bool:
        return not self.rays and not self.lineality

    def generators(self) -> tuple:
        return self.rays + self.lineality + tuple(vec_neg(r) for r in self.lineality)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        iv = _integral(v)
        return (all(vec_dot(e, iv) == 0 for e in self.equations)
                and all(vec_dot(c, iv) >= 0 for c in self.inequalities))

    def contains_cone(self, other: "RationalCone") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(self.contains(g) for g in other.generators())

    def relative_interior_point(self) -> tuple[int, ...]:
        """Sum of the extreme rays: a canonical relative interior point."""
        if not self.rays:
            return (0,) * self.ambient_dim
        return tuple(map(sum, zip(*self.rays)))

    def image(self, matrix: IntMatrix) -> "RationalCone":
        """Image cone under a unimodular matrix acting on columns.

        Rays and lineality map by the matrix, inequalities and equations by
        its inverse transpose.  Nothing is converted: the image only needs
        Hermite bases for its two lattices, and rays and inequalities
        projected off the lattice spans and made primitive.
        """
        dim = self.ambient_dim
        if matrix.rows != dim or matrix.cols != dim:
            raise ValueError("the map must be a square matrix of the cone's "
                             "dimension")
        dual = _inverse_transpose(matrix)
        lin = Lattice.from_rows(dim, [matrix.apply(b) for b in self.lineality])
        eqs = Lattice.from_rows(dim, [dual.apply(e) for e in self.equations])
        rays = _project_off([matrix.apply(r) for r in self.rays],
                            lin.basis.entries)
        ineqs = _project_off([dual.apply(c) for c in self.inequalities],
                             eqs.basis.entries)
        return RationalCone(dim, tuple(sorted(rays)), lin.basis.entries,
                            tuple(sorted(ineqs)), eqs.basis.entries)


def _check_rows(dim: int, rows) -> None:
    if any(len(r) != dim for r in rows):
        raise ValueError("dimension mismatch")


def cone_from_generators(dim: int, generators) -> RationalCone:
    """Canonical cone spanned by rational generators (possibly redundant)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    generators = list(generators)
    _check_rows(dim, generators)
    # facets of the cone are the extreme rays of its polar dual, whose
    # lineality is the orthogonal complement of the cone's span
    ineqs, perp = _hcone_extreme_rays(generators, dim)
    constraints = list(ineqs)
    for e in perp.basis.entries:
        constraints += [e, vec_neg(e)]
    rays, lin = _hcone_extreme_rays(constraints, dim)
    return RationalCone(dim, rays, lin.basis.entries, ineqs, perp.basis.entries)


def cone_from_inequalities(dim: int, inequalities, equations=()) -> RationalCone:
    """Canonical cone {x : c.x >= 0, e.x = 0}; redundant rows are fine."""
    constraints = list(inequalities)
    equations = list(equations)
    _check_rows(dim, constraints + equations)
    for e in equations:
        constraints += [e, vec_neg(e)]
    rays, lin = _hcone_extreme_rays(constraints, dim)
    gens = list(rays)
    for b in lin.basis.entries:
        gens += [b, vec_neg(b)]
    ineqs, perp = _hcone_extreme_rays(gens, dim)
    return RationalCone(dim, rays, lin.basis.entries, ineqs, perp.basis.entries)


def cones_equal(a: RationalCone, b: RationalCone) -> bool:
    """Mutual containment; agrees with structural equality of canonical forms."""
    return a.contains_cone(b) and b.contains_cone(a)


@lru_cache(maxsize=65536)
def _cone_from_ray_tuple(dim: int, rays: tuple) -> RationalCone:
    # Process-wide memo of cones by ray tuple, from when every face went
    # through a conversion.  Nothing in the package calls it any more: faces
    # are built from their parent's description and shared per call (see
    # faces), since a process-wide memo of every face ever built held about
    # 1 kB a face, unreleased.  It stays because the benchmark's traced run
    # reads its cache statistics.
    return cone_from_generators(dim, rays)


def _face(parent: RationalCone, incidence, mask: int, rays: tuple) -> RationalCone:
    """The face of a strictly convex cone spanned by the rays in `mask`.

    `incidence` holds each parent facet's ray mask.  The equations are the
    kernel of the rays; every facet of the face is its meet with a parent
    facet, and the facets are the meets whose ray sets are maximal below the
    face's own, each given by such a parent facet projected onto the face's
    span.
    """
    dim = parent.ambient_dim
    equations = kernel_lattice(IntMatrix.from_rows(rays, cols=dim)).basis.entries
    cuts = {}
    for c, m in zip(parent.inequalities, incidence):
        if m & mask != mask:
            cuts.setdefault(m & mask, c)
    facets = [c for t, c in cuts.items()
              if not any(u != t and u & t == t for u in cuts)]
    ineqs = _project_off(facets, equations)
    return RationalCone(dim, rays, (), tuple(sorted(ineqs)), equations)


def meet_relative_interiors(strict, weak=()):
    """A point interior to every cone of `strict` and inside every cone of
    `weak`, or None.  Exact rational feasibility.

    c.x > 0 for facets is homogenized to c.x >= 1: for a homogeneous system
    a solution can be scaled until every strict value reaches 1.  Equations
    are eliminated first by restricting to the kernel of their stacked rows,
    which keeps the linear program at the dimension actually in play.
    """
    cones = list(strict) + list(weak)
    if not cones:
        return ()
    dim = cones[0].ambient_dim
    if any(c.ambient_dim != dim for c in cones):
        raise ValueError("dimension mismatch")
    eq_rows = []
    needed = {}
    for cone in strict:
        eq_rows += list(cone.equations)
        for c in cone.inequalities:
            needed[c] = 1
    for cone in weak:
        eq_rows += list(cone.equations)
        for c in cone.inequalities:
            needed.setdefault(c, 0)
    if not eq_rows:
        sol = feasible(list(needed), list(needed.values()))
        return sol if sol is None or needed else (Fraction(0),) * dim
    basis = kernel_lattice(IntMatrix.from_rows(eq_rows, cols=dim)).basis.entries
    rows, rhs = [], []
    for c, r in needed.items():
        row = tuple(vec_dot(c, b) for b in basis)
        if vec_is_zero(row):
            if r > 0:
                return None
            continue
        rows.append(row)
        rhs.append(r)
    sol = feasible(rows, rhs)
    if sol is None:
        return None
    out = [Fraction(0)] * dim
    for y, b in zip(sol, basis):
        for j, x in enumerate(b):
            out[j] += y * x
    return tuple(out)


@dataclass(frozen=True)
class ColorRecord:
    """Image data of one color: its valuation vector and its simple-root set."""

    rho: tuple
    sigma: frozenset

    def __post_init__(self):
        object.__setattr__(self, "rho", _qvec(self.rho))
        object.__setattr__(self, "sigma", frozenset(int(i) for i in self.sigma))

    def key(self):
        return (self.rho, tuple(sorted(self.sigma)))


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

    def key(self):
        c = self.cone
        return (c.rays, c.lineality, c.equations, c.inequalities,
                tuple(sorted(r.key() for r in self.colors)))


def colored_cone(dim: int, generators, colors) -> ColoredCone:
    """Build the colored cone spanned by the color images and extra generators."""
    recs = frozenset(colors)
    gens = [r.rho for r in recs] + [tuple(g) for g in generators]
    return ColoredCone(cone_from_generators(dim, gens), recs)


def faces(cc: ColoredCone, known: dict | None = None) -> frozenset:
    """All faces of a colored cone, each with its induced color set.

    The cone is strictly convex, so each face is spanned by the extreme rays
    on it, and its ray set is an intersection of facet ray sets.  The face
    lattice is therefore the closure of the facet incidence masks under
    intersection, and each face is built from the parent's description with
    no conversion.  A face's colors are those whose image lies on it.

    `known` maps ray tuples to faces already built; faces() looks faces up
    there first and adds those it builds, so a caller walking the faces of
    faces builds each one once.
    """
    base = cc.cone
    known = {} if known is None else known
    incidence = tuple(sum(1 << i for i, r in enumerate(base.rays)
                          if vec_dot(c, r) == 0)
                      for c in base.inequalities)
    full = (1 << len(base.rays)) - 1
    closed = {full}
    for mask in incidence:
        closed |= {span & mask for span in closed}
    out = []
    for span in closed:
        if span == full:
            face = base
        else:
            rays = tuple(r for i, r in enumerate(base.rays) if span >> i & 1)
            face = known.get(rays)
            if face is None:
                face = known[rays] = _face(base, incidence, span, rays)
        cols = frozenset(r for r in cc.colors if face.contains(r.rho))
        out.append(ColoredCone(face, cols))
    return frozenset(out)


@dataclass(frozen=True)
class ColoredFan:
    """Nonempty finite set of colored cones, kept in a canonical order."""

    cones: tuple

    @classmethod
    def build(cls, cones) -> "ColoredFan":
        dedup = {cc.key(): cc for cc in cones}
        if not dedup:
            raise ValueError("a colored fan must be nonempty")
        dims = {cc.cone.ambient_dim for cc in dedup.values()}
        if len(dims) != 1:
            raise ValueError("all cones must share one ambient dimension")
        return cls(tuple(dedup[k] for k in sorted(dedup)))

    @property
    def ambient_dim(self) -> int:
        return self.cones[0].cone.ambient_dim

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.cones)

    def __contains__(self, cc: ColoredCone) -> bool:
        return cc in self._members


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


def _relint_contains(cone: RationalCone, p) -> bool:
    # relative interior membership: equations hold, every facet is strict
    p = _integral(p)
    return (all(vec_dot(e, p) == 0 for e in cone.equations)
            and all(vec_dot(c, p) > 0 for c in cone.inequalities))


def _relint_meets(cone: RationalCone, v_cone: RationalCone) -> bool:
    # the canonical interior point often certifies cheaply; LP decides else
    if cone.is_strictly_convex and v_cone.contains(cone.relative_interior_point()):
        return True
    return meet_relative_interiors([cone], [v_cone]) is not None


def _relints_overlap(a: RationalCone, b: RationalCone,
                     v_cone: RationalCone) -> bool:
    for one, other in ((a, b), (b, a)):
        if one.is_strictly_convex:
            p = one.relative_interior_point()
            if _relint_contains(other, p) and v_cone.contains(p):
                return True
    return meet_relative_interiors([a, b], [v_cone]) is not None


def is_valid_fan(fan: ColoredFan, v_cone: RationalCone) -> FanVerdict:
    """Check the three colored fan axioms against a valuation cone.

    (i) each cone's relative interior meets the valuation cone; (ii) each
    face that meets the valuation cone (with its induced colors) belongs to
    the fan; (iii) no point of the valuation cone is interior to two cones.
    Two distinct faces of one cone have disjoint relative interiors, so
    (iii) is only tested for pairs that are not both faces of one fan cone.
    """
    if v_cone.ambient_dim != fan.ambient_dim:
        raise ValueError("fan and valuation cone dimensions differ")
    problems = []
    interior_ok = True
    for k, cc in enumerate(fan.cones):
        if not _relint_meets(cc.cone, v_cone):
            interior_ok = False
            problems.append(f"cone {k}: relative interior misses the valuation cone")
    closure_ok = True
    known = {cc.cone.rays: cc.cone for cc in fan.cones}
    holders = {}  # cone -> bit set of the fan cones it is a face of
    for k, cc in enumerate(fan.cones):
        missing = []
        for face in faces(cc, known):
            holders[face.cone] = holders.get(face.cone, 0) | 1 << k
            if face not in fan and _relint_meets(face.cone, v_cone):
                missing.append(face)
        for face in sorted(missing, key=ColoredCone.key):
            closure_ok = False
            problems.append(f"cone {k}: face with rays {face.cone.rays} "
                            "missing from the fan")
    separation_ok = True
    for i, j in combinations(range(len(fan.cones)), 2):
        a, b = fan.cones[i].cone, fan.cones[j].cone
        if a != b and holders[a] & holders[b]:
            continue
        if _relints_overlap(a, b, v_cone):
            separation_ok = False
            problems.append(f"cones {i} and {j}: relative interiors overlap "
                            "inside the valuation cone")
    return FanVerdict(interior_ok, closure_ok, separation_ok, tuple(problems))


def wonderful_fan(v_cone: RationalCone) -> ColoredFan:
    """The colorless fan of all faces of a strictly convex valuation cone."""
    if not v_cone.is_strictly_convex:
        raise NotStrictlyConvex(
            "the valuation cone has nontrivial lineality, so no fan has it "
            "as a maximal strictly convex cone")
    return ColoredFan.build(faces(ColoredCone(v_cone, frozenset())))


def is_wonderful(fan: ColoredFan, v_cone: RationalCone) -> bool:
    """One maximal cone, equal to the valuation cone, and no colors anywhere.

    Without colors the fan's cones are distinct, so this holds exactly when
    one fan cone equals the valuation cone and every fan cone lies in it.
    Fan cones are strictly convex, hence spanned by their rays: a cone whose
    rays are among the valuation cone's rays lies in it, and any other cone
    has its rays tested.
    """
    if any(cc.colors for cc in fan.cones):
        return False
    if sum(cc.cone == v_cone for cc in fan.cones) != 1:
        return False
    v_rays = frozenset(v_cone.rays)
    return all(v_rays.issuperset(cc.cone.rays)
               or all(v_cone.contains(r) for r in cc.cone.rays)
               for cc in fan.cones)


def transform_colored_cone(cc: ColoredCone, matrix: IntMatrix, s_perm) -> ColoredCone:
    """Apply a lattice automorphism of V plus a simple-root permutation."""
    new_cone = cc.cone.image(matrix)
    new_colors = frozenset(
        ColorRecord(matrix.apply(r.rho), frozenset(s_perm[i] for i in r.sigma))
        for r in cc.colors)
    return ColoredCone(new_cone, new_colors)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the fan stability check under a finite action."""

    stable: bool
    violating_generator: str | None
    violating_cone: ColoredCone | None


def is_gamma_stable(fan: ColoredFan, action, weight_lattice) -> StabilityVerdict:
    """Does every action generator map every fan cone onto a fan cone?

    The action is transported to V through the inverse-transpose of its
    restriction to the weight lattice; colors move by (matrix on V,
    permutation of simple roots).  Generators suffice: the moved-fan
    condition is closed under composition and inverses.
    """
    duals = dual_action_on_V(action, weight_lattice)
    index = {el.matrix.entries: k for k, el in enumerate(action.elements)}
    for name, gen in zip(action.generator_names, action.generators):
        dmat = duals[index[gen.matrix.entries]]
        for cc in fan.cones:
            if transform_colored_cone(cc, dmat, gen.s_perm) not in fan:
                return StabilityVerdict(False, name, cc)
    return StabilityVerdict(True, None, None)
