"""root_systems workload: horospherical files over types A-G and Weyl queries.

The oracle here is the benchmark's own: Cartan matrices from Bourbaki Dynkin
data, a table of Weyl group orders, and root systems generated by reflecting
simple roots in fundamental-weight coordinates (the character basis of a
simply connected datum, where each simple coroot is a unit vector).  Every
horospherical file is built so that its answer is known: the subset I and
the lattice M are either stable under the diagram action or moved by it.
"""
from math import factorial, gcd

from .exact import inverse

# Every (type, rank) with rank 2..9 that the program builds.
TYPES = ([("A", n) for n in range(2, 10)] + [("B", n) for n in range(2, 10)]
         + [("C", n) for n in range(2, 10)] + [("D", n) for n in range(3, 10)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# Weyl queries stay in types with |W| <= 1920 (D5).  E6-E8 conjugacy builds
# all of W first (51,840 elements for E6, 22 s) and returns once the
# conjugacy search stops enumerating W.
WEYL_CAP_ORDER = 1920


def weyl_order(letter, n):
    """|W| by type (Bourbaki, Planche I-IX)."""
    if letter == "A":
        return factorial(n + 1)
    if letter in "BC":
        return 2 ** n * factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(letter, n)]


def _gram(letter, n):
    """Inner products (alpha_i, alpha_j) of the simple roots, Bourbaki order."""
    g = [[0] * n for _ in range(n)]
    lengths = [2] * n
    edges = [(i, i + 1, -1) for i in range(n - 1)]
    if letter == "B":
        lengths[n - 1] = 1
    elif letter == "C":
        lengths[n - 1] = 4
        edges[-1] = (n - 2, n - 1, -2)
    elif letter == "D":
        edges = [(i, i + 1, -1) for i in range(n - 2)] + [(n - 3, n - 1, -1)]
    elif letter == "E":
        edges = [(0, 2, -1), (1, 3, -1)] + [(i, i + 1, -1)
                                            for i in range(2, n - 1)]
    elif letter == "F":
        lengths = [4, 4, 2, 2]
        edges = [(0, 1, -2), (1, 2, -2), (2, 3, -1)]
    elif letter == "G":
        lengths = [2, 6]
        edges = [(0, 1, -3)]
    for i, d in enumerate(lengths):
        g[i][i] = d
    for i, j, x in edges:
        g[i][j] = g[j][i] = x
    return g


def cartan(letter, n):
    """A[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)."""
    g = _gram(letter, n)
    return [[2 * g[i][j] // g[i][i] for j in range(n)] for i in range(n)]


def simple_roots(letter, n):
    """Simple roots in fundamental-weight coordinates: the Cartan columns."""
    a = cartan(letter, n)
    return [tuple(a[i][j] for i in range(n)) for j in range(n)]


def reflect(x, i, alpha):
    """s_i(x) = x - <x, alpha_i^vee> alpha_i; the pairing is coordinate i."""
    c = x[i]
    return tuple(a - c * b for a, b in zip(x, alpha))


def roots_by_length(letter, n):
    """All roots, each mapped to True when long, by reflection closure."""
    simple = simple_roots(letter, n)
    g = _gram(letter, n)
    longest = max(g[i][i] for i in range(n))
    out = {alpha: g[i][i] == longest for i, alpha in enumerate(simple)}
    frontier = list(out)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                img = reflect(beta, i, alpha)
                if img not in out:
                    out[img] = out[beta]
                    nxt.append(img)
        frontier = nxt
    return out


def diagram_permutations(letter, n):
    """Nontrivial diagram automorphisms as 0-based images of simple roots."""
    if letter == "A":
        return [tuple(n - 1 - i for i in range(n))]
    if letter == "D":
        swap = tuple(range(n - 2)) + (n - 1, n - 2)
        if n == 4:
            return [swap, (2, 1, 3, 0)]
        return [swap]
    if letter == "E" and n == 6:
        return [(5, 1, 4, 3, 2, 0)]
    return []


def _orbits(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        orb, j = [], i
        while j not in orb:
            orb.append(j)
            j = perm[j]
        seen.update(orb)
        out.append(orb)
    return out


def _permute(v, perm):
    """Column action of the lifted diagram map: omega_i -> omega_perm(i)."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def _vector_orbit(v, perm):
    out = [v]
    while True:
        w = _permute(out[-1], perm)
        if w == v:
            return out
        out.append(w)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _to_root_coords(w, inv):
    """Root-lattice coordinates of an integer multiple of the weight w.

    With A the Cartan matrix, x = sum m_j alpha_j pairs with alpha_i^vee as
    (A m)_i, so m proportional to A^-1 w keeps the zero pattern of w and
    commutes with every diagram permutation."""
    q = [sum(inv[i][j] * w[j] for j in range(len(w))) for i in range(len(w))]
    d = 1
    for x in q:
        d = d * x.denominator // gcd(d, x.denominator)
    return _primitive(tuple(int(x * d) for x in q))


def horospherical_case(rng, letter, n, isogeny):
    """A problem dict and how it was built: "stable", "moved_I" or "moved_M"."""
    perms = diagram_permutations(letter, n)
    perm = rng.choice(perms) if perms else tuple(range(n))
    orbits = _orbits(perm)
    moving = [o for o in orbits if len(o) > 1]
    kind = rng.choice(("stable", "moved_I", "moved_M")) if moving else "stable"
    if kind == "moved_I":
        orb = rng.choice(moving)
        subset = {rng.choice(orb)}
        subset |= {i for o in orbits if o is not orb and rng.random() < 0.3
                   for i in o}
    else:
        keep_free = rng.choice(moving) if kind == "moved_M" else []
        subset = {i for o in orbits if o is not keep_free
                  and rng.random() < 0.4 for i in o}
    closure = {i for o in orbits if subset & set(o) for i in o}
    free = [i for i in range(n) if i not in closure]
    if kind == "moved_M":
        i = rng.choice(keep_free)
        w = [0] * n
        w[i] = rng.randint(1, 3)
        for j in free:
            if j not in keep_free and rng.random() < 0.5:
                w[j] = rng.randint(0, 3)
        gens = [tuple(w)]
    else:
        w = tuple(rng.randint(0, 3) if j in free else 0 for j in range(n))
        if not any(w) and free:
            w = tuple(int(j == free[0]) for j in range(n))
        gens = _vector_orbit(w, perm) if any(w) else [w]
    if isogeny == "adjoint":
        inv = inverse(cartan(letter, n))
        gens = [_to_root_coords(g, inv) if any(g) else g for g in gens]
    data = {
        "schema": 1,
        "title": f"horospherical {letter}{n} {isogeny} ({kind})",
        "root_datum": {"type": letter, "rank": n, "isogeny": isogeny},
        "action": {"generators": [
            {"name": "sigma", "s_permutation": [p + 1 for p in perm]}]},
        "horospherical": {"I": sorted(i + 1 for i in subset),
                          "M": {"generators": [list(g) for g in gens]}},
        "hypotheses": {"field_is_large": True, "char_zero": True,
                       "form_is_quasi_split": True,
                       "normalizer_self_normalizing": "ByHorospherical",
                       "base_field": rng.choice(("p_adic", "real",
                                                 "large_other"))},
    }
    rng.shuffle(data["horospherical"]["I"])
    return data, kind


def weyl_types():
    return [(t, n) for t, n in TYPES if weyl_order(t, n) <= WEYL_CAP_ORDER]


def dominant_weight(rng, n, regular):
    if regular:
        return tuple(rng.randint(1, 3) for _ in range(n))
    while True:
        v = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
        if 0 in v and any(v):
            return v


def apply_word(letter, n, word, x):
    """w(x) for w = s_word[0] ... s_word[-1], as the matrix of the word."""
    simple = simple_roots(letter, n)
    for i in reversed(word):
        x = reflect(x, i, simple[i])
    return x


def conjugacy_inputs(rng, letter, n, conjugate):
    """Root subsets (a, b): b = w(a) when conjugate, else long vs short."""
    roots = roots_by_length(letter, n)
    size = rng.choice((1, 2))
    if conjugate:
        a = rng.sample(sorted(roots), size)
        word = [rng.randrange(n) for _ in range(rng.randint(1, 3 * n))]
        b = [apply_word(letter, n, word, r) for r in a]
        return a, b
    longs = sorted(r for r, is_long in roots.items() if is_long)
    shorts = sorted(r for r, is_long in roots.items() if not is_long)
    return rng.sample(longs, size), rng.sample(shorts, size)
