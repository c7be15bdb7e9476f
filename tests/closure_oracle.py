"""The matrix closure that `staraction.build_action` ran before it closed
the generators' permutations of the basis orbit, kept as a test oracle.

`closure` lists the whole image of an action in Aut(X), breadth first from
the identity, one `BRDAutomorphism` per element, with its own `compose`
and identity; it raises the cap message of `build_action` when the image
has more than `cap` elements.
"""
from sphdescent.intlinalg import IntMatrix
from sphdescent.rootdata import BRDAutomorphism
from sphdescent.staraction import CLOSURE_CAP, ClosureCapExceeded


def compose(a: BRDAutomorphism, b: BRDAutomorphism) -> BRDAutomorphism:
    return BRDAutomorphism(a.matrix @ b.matrix, tuple(a.s_perm[j] for j in b.s_perm))


def identity_automorphism(brd) -> BRDAutomorphism:
    return BRDAutomorphism(IntMatrix.identity(brd.rank), tuple(range(len(brd.simple_roots))))


def closure(brd, gens, cap: int = CLOSURE_CAP) -> tuple[BRDAutomorphism, ...]:
    """Every element of the group gens generate; [0] is the identity."""
    ident = identity_automorphism(brd)
    elements = [ident]
    seen = {ident.matrix.entries}
    # breadth first: the loop reads each element as it is appended, so the
    # products come level by level, and those of the identity are the gens
    for el in elements:
        for g in gens:
            prod = g if el is ident else compose(el, g)
            if prod.matrix.entries in seen:
                continue
            if len(elements) >= cap:
                raise ClosureCapExceeded(
                    f"closure exceeds {cap} elements; the action must factor "
                    "through a finite group (for a torus factor, pick "
                    "generators of finite order)")
            seen.add(prod.matrix.entries)
            elements.append(prod)
    return tuple(elements)


def elements(action, cap: int = CLOSURE_CAP) -> tuple[BRDAutomorphism, ...]:
    """The closure of a GaloisAction's generators."""
    return closure(action.brd, action.generators, cap)
