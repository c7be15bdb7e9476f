"""Exact rational polyhedral cones, colored cones, and colored fans.

Cones are kept in a canonical double description: extreme rays (primitive,
orthogonal to the lineality space), a Hermite basis of the lineality lattice,
facet inequalities (primitive, orthogonal to the equation space), and a
Hermite basis of the equation lattice.  Structural equality of two cones is
then the same as equality of the point sets they define.

Conversion between descriptions, and the feasibility question of whether
relative interiors meet, go to the one double-description engine in `ratlp`.
Faces and images under lattice automorphisms are read off the description a
cone already has, with no further conversion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .intlinalg import (
    IntMatrix,
    Lattice,
    kernel_lattice,
    solve_fraction_free,
    vec_dot,
    vec_integral,
    vec_neg,
    vec_primitive,
)
from .ratlp import _hcone_extreme_rays, feasible
from .staraction import LatticeMoved, dual_matrix_on_V


class NotStrictlyConvex(ValueError):
    """A construction needed a strictly convex cone but got lineality."""


def _project_off(vectors, basis) -> list:
    """Primitive directions of the orthogonal projections of integer vectors
    off the span of independent integer rows (None for a vector in the span).

    With B the rows and G = B B^T, det(G) v - B^T adj(G) B v is det(G) > 0
    times the projection.  adj(G) is solve_fraction_free(G, I), computed only
    when some vector is not already orthogonal to the rows; G is positive
    definite, so its pivots are its leading minors and the last is det(G).
    """
    out = []
    adj = None
    for v in vectors:
        bv = [vec_dot(b, v) for b in basis]
        if not any(bv):
            out.append(vec_primitive(v))
            continue
        if adj is None:
            det, adj = solve_fraction_free(
                [[vec_dot(a, b) for b in basis] for a in basis],
                IntMatrix.identity(len(basis)).entries)
        w = [vec_dot(row, bv) for row in adj]
        out.append(vec_primitive(tuple(
            det * x - sum(wi * b[j] for wi, b in zip(w, basis))
            for j, x in enumerate(v))))
    return out


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
        iv = vec_integral(v)
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


@dataclass(frozen=True)
class ColorRecord:
    """Image data of one color: its valuation vector and its simple-root set."""

    rho: tuple
    sigma: frozenset

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(Fraction(x) for x in self.rho))
        object.__setattr__(self, "sigma", frozenset(int(i) for i in self.sigma))

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
    p = vec_integral(p)
    return (all(vec_dot(e, p) == 0 for e in cone.equations)
            and all(vec_dot(c, p) > 0 for c in cone.inequalities))


def _relint_meets(cone: RationalCone, v_cone: RationalCone) -> bool:
    # the canonical interior point often certifies cheaply; feasibility
    # decides else
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
    return ColoredCone(cc.cone.image(matrix),
                       frozenset(r.image(matrix, s_perm) for r in cc.colors))


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the fan stability check under a finite action."""

    stable: bool
    violating_generator: str | None
    violating_cone: ColoredCone | None


def is_gamma_stable(fan: ColoredFan, action, weight_lattice) -> StabilityVerdict:
    """Does every action generator map every fan cone onto a fan cone?

    Each generator is transported to V through the inverse-transpose of its
    restriction to the weight lattice; colors move by (matrix on V,
    permutation of simple roots).  Generators suffice: the moved-fan
    condition is closed under composition and inverses, and so is
    stability of the weight lattice.  A generator that moves the lattice
    raises LatticeMoved before any cone is tested.
    """
    duals = [dual_matrix_on_V(gen, weight_lattice) for gen in action.generators]
    for name, dmat in zip(action.generator_names, duals):
        if dmat is None:
            raise LatticeMoved(name)
    for name, gen, dmat in zip(action.generator_names, action.generators, duals):
        for cc in fan.cones:
            if transform_colored_cone(cc, dmat, gen.s_perm) not in fan:
                return StabilityVerdict(False, name, cc)
    return StabilityVerdict(True, None, None)
