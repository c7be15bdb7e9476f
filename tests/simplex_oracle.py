"""The exact rational simplex and the equation elimination that the
double-description feasibility test replaced.

Kept as the reference the differential tests in `test_cones.py` and
`test_cone_engine.py` compare against, and as the meet test of
`active_set_oracle.is_valid_fan`, so that fan verdicts are compared engine
against linear program.  As it was in the package:

* `feasible`: phase-one simplex on a fraction-free integer tableau.  Rows
  are cleared to integers and pivoted in the style of integer Gaussian
  elimination: every stored entry is det times the true rational entry,
  where det is the most recent pivot, and the two-term update divides
  exactly by the previous pivot.  Bland's rule guarantees termination.
* `meet_relative_interiors`: strict facets at right-hand side 1, equations
  eliminated first by restricting to the kernel of their stacked rows, one
  `feasible` call on what is left.
"""
from fractions import Fraction
from math import lcm

from sphdescent.intlinalg import IntMatrix, kernel_lattice, vec_dot, vec_is_zero


def feasible(rows, rhs) -> tuple[Fraction, ...] | None:
    """A rational x with row . x >= r for every (row, r) pair, or None.

    rows: sequence of coefficient vectors, all of one length n (n may be 0).
    rhs: sequence of right-hand sides, one per row.
    """
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    rhs = [Fraction(r) for r in rhs]
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged coefficient rows")
    if m == 0:
        return (Fraction(0),) * n
    if n == 0:
        return () if all(r <= 0 for r in rhs) else None

    # Standard form: split x = xp - xn, subtract slack, flip rows to b >= 0,
    # then start from the all-artificial basis.  Columns: xp (n), xn (n),
    # slack (m), right-hand side (1).  Each row is scaled to integers first;
    # row scaling changes neither the solution set nor feasibility.
    ncols = 2 * n + m
    tab = []
    for i in range(m):
        mult = lcm(*(x.denominator for x in rows[i]), rhs[i].denominator)
        irow = [int(x * mult) for x in rows[i]]
        row = irow + [-x for x in irow] + [0] * (m + 1)
        row[2 * n + i] = -1
        row[ncols] = int(rhs[i] * mult)
        if row[ncols] < 0:
            row = [-x for x in row]
        tab.append(row)
    basis = [ncols + i for i in range(m)]
    det = 1

    # Phase one minimizes the sum of the artificial variables.  The reduced
    # cost of column j is minus the sum of tableau column j over rows whose
    # basic variable is still artificial (artificials never re-enter, so
    # their own columns are never scanned), and the objective is the matching
    # sum of right-hand sides; both are recomputed per pivot.
    while True:
        art = [trow for b, trow in zip(basis, tab) if b >= ncols]
        enter = next((j for j in range(ncols)
                      if sum(trow[j] for trow in art) > 0), None)
        if enter is None:
            if sum(trow[ncols] for trow in art) != 0:
                return None
            break
        pivot_row = None
        for i in range(m):
            if tab[i][enter] <= 0:
                continue
            # b[i]/a[i] against the incumbent by cross-multiplication; both
            # stored denominators are positive, so the comparison is exact
            if pivot_row is not None:
                diff = (tab[i][ncols] * tab[pivot_row][enter]
                        - tab[pivot_row][ncols] * tab[i][enter])
                if diff > 0 or (diff == 0 and basis[i] > basis[pivot_row]):
                    continue
            pivot_row = i
        if pivot_row is None:
            # phase-one objective is bounded below by 0, so this cannot occur
            raise AssertionError("unbounded phase-one objective")
        pv = tab[pivot_row][enter]
        prow = tab[pivot_row]
        for i in range(m):
            if i == pivot_row:
                continue
            trow = tab[i]
            f = trow[enter]
            if f:
                tab[i] = [(pv * x - f * y) // det for x, y in zip(trow, prow)]
            elif pv != det:
                tab[i] = [pv * x // det for x in trow]
        basis[pivot_row] = enter
        det = pv

    x = [Fraction(0)] * (2 * n)
    for i, j in enumerate(basis):
        if j < 2 * n:
            x[j] = Fraction(tab[i][ncols], det)
    return tuple(p - q for p, q in zip(x[:n], x[n:]))


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
