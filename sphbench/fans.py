"""random_fans workload: random strictly convex cones and signed permutations.

Generators are drawn as in acceptance criterion 7: dim..dim+3 integer
vectors with entries in [-3, 3].  A draw is kept only when some normal c with
entries in {-1, 0, 1} has c.g > 0 for every generator, which proves strict
convexity without asking the program.  Stability is decided by the
benchmark's own brute-force Caratheodory membership test.
"""
from itertools import combinations, product

from .exact import solve


def _half_space_normals(dim):
    return [c for c in product((-1, 0, 1), repeat=dim) if any(c)]


def _pointed(gens, normals):
    return any(all(sum(a * b for a, b in zip(c, g)) > 0 for g in gens)
               for c in normals)


def signed_permutation(rng, dim, involution=False):
    """Rows of a signed permutation matrix; an involution when asked."""
    perm = list(range(dim))
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    if involution:
        rng.shuffle(perm)
        pairs = perm[:2 * (dim // 2)]
        perm = list(range(dim))
        for i in range(0, len(pairs), 2):
            if rng.random() < 0.7:
                a, b = pairs[i], pairs[i + 1]
                perm[a], perm[b] = b, a
                signs[b] = signs[a]  # (i j) with signs s, s squares to 1
    else:
        rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        rows[i][j] = signs[i]
    return rows


def mat_apply(rows, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


def draw_case(rng, dim, k, kind):
    """Generators and a signed permutation for one case.

    kind: "random" (a random signed permutation, almost always unstable),
    "identity", or "symmetric" (generators closed under a random signed
    involution, so the cone is stable by construction).
    """
    normals = _half_space_normals(dim)
    while True:
        if kind == "identity":
            m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        else:
            m = signed_permutation(rng, dim, involution=kind == "symmetric")
        base = k if kind != "symmetric" else (k + 1) // 2
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(base)]
        if kind == "symmetric":
            gens += [mat_apply(m, g) for g in gens]
            gens = list(dict.fromkeys(gens))
        if all(any(g) for g in gens) and _pointed(gens, normals):
            return gens, m


def in_cone(v, gens):
    """Caratheodory: v is a nonnegative combination of <= dim independent gens."""
    if not any(v):
        return True
    for size in range(1, len(v) + 1):
        for subset in combinations(gens, size):
            x = solve(list(subset), v)
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


def cone_is_fixed(gens, m):
    """m maps cone(gens) onto itself.  m has finite order, so m(C) in C
    already forces m(C) = C."""
    return all(in_cone(mat_apply(m, g), gens) for g in gens)


def rays_are_generators(rays, gens):
    """Each extreme ray is a positive multiple of one of the generators."""
    def parallel(r, g):
        n = len(r)
        return (sum(a * b for a, b in zip(r, g)) > 0
                and all(r[i] * g[j] == r[j] * g[i]
                        for i in range(n) for j in range(i + 1, n)))
    return all(any(parallel(r, g) for g in gens) for r in rays)
