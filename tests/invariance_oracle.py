"""The closure-wide invariance checks and the HNF-checked transport to V
that `checker.invariance_entries` and `staraction.dual_matrix_on_V`
replaced, kept as test oracles.

`dual_matrix_on_V` compares the image lattice with the lattice in Hermite
form before it restricts; `preserves_spherical` moves colors by its own
loop; `preserves_horospherical` and `closure_preserves` test every closure
element instead of the generators.  Cone images come from the active-set
engine in `active_set_oracle`.
"""
from active_set_oracle import image
from sphdescent.cones import ColorRecord
from sphdescent.intlinalg import IntMatrix
from sphdescent.staraction import action_on_simple_subset


def dual_matrix_on_V(element, lattice):
    """Inverse-transpose of the restriction to the lattice, or None if moved."""
    if lattice.apply(element.matrix) != lattice:
        return None
    cols = [lattice.coordinates(element.matrix.apply(b))
            for b in lattice.basis.entries]
    n = lattice.rank
    restriction = IntMatrix.from_rows(
        [[cols[i][j] for i in range(n)] for j in range(n)], cols=n)
    return restriction.inverse_unimodular().transpose()


def _transform_color(rec, dual, s_perm):
    return ColorRecord(dual.apply(rec.rho), frozenset(s_perm[i] for i in rec.sigma))


def preserves_spherical(element, inv) -> bool:
    """Does one automorphism fix the weight lattice, cone, and color sets?"""
    dual = dual_matrix_on_V(element, inv.weight_lattice)
    if dual is None:
        return False
    return (image(inv.valuation_cone, dual) == inv.valuation_cone
            and frozenset(_transform_color(r, dual, element.s_perm)
                          for r in inv.omega1) == inv.omega1
            and frozenset(_transform_color(r, dual, element.s_perm)
                          for r in inv.omega2) == inv.omega2)


def closure_preserves(action, inv) -> bool:
    """True iff every closure element preserves the spherical invariants."""
    return all(preserves_spherical(el, inv) for el in action.elements)


def preserves_horospherical(action, datum) -> bool:
    """True iff every closure element fixes I as a set and M as a group."""
    for el in action.elements:
        if action_on_simple_subset(action, datum.simple_subset, el) != datum.simple_subset:
            return False
        if datum.characters.apply(el.matrix) != datum.characters:
            return False
    return True
