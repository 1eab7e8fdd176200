"""Exact integer linear algebra.

Everything here works over arbitrary-precision Python integers: Smith normal
form with tracked unimodular transforms, linear system solving over Z,
column-lattice arithmetic, and a complete decision procedure for
non-negative integer feasibility (used for cone membership).

Every factorization inside the package goes through :func:`factored`, one
shared cache of at most 256 Smith normal forms keyed on the matrix
contents, so a matrix that many queries share is factored once.  Its
results hold tuples and are shared between callers, which must not mutate
them; :func:`smith_normal_form` stays uncached and returns caller-owned
lists.

Matrices are lists of rows; column vectors are plain lists.  An m x 0 or
0 x n matrix is represented by the obvious degenerate list shape and every
routine tolerates it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd


def _ceil_div(a, b):
    return -((-a) // b)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(m, n):
    return [[0] * n for _ in range(m)]


def mat_copy(M):
    return [list(row) for row in M]


def mat_shape(M):
    return len(M), len(M[0]) if M else 0


def mat_mul(A, B):
    m, k = mat_shape(A)
    k2, n = mat_shape(B)
    if k != k2:
        raise ValueError(f"shape mismatch {m}x{k} * {k2}x{n}")
    out = zero_matrix(m, n)
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    Oi[j] += a * Bt[j]
    return out


def mat_vec(A, x):
    if mat_shape(A)[1] != len(x):
        raise ValueError("shape mismatch in mat_vec")
    return [sum(map(operator.mul, row, x)) for row in A]


def columns(M):
    m, n = mat_shape(M)
    return [[M[i][j] for i in range(m)] for j in range(n)]


def from_columns(cols, nrows=None):
    if not cols:
        if nrows is None:
            raise ValueError("need nrows for an empty column list")
        return [[] for _ in range(nrows)]
    m = len(cols[0])
    return [[c[i] for c in cols] for i in range(m)]


@dataclass(frozen=True)
class SNF:
    """Decomposition U*M*V = D with U, V unimodular and D diagonal.

    The diagonal of D is non-negative and satisfies d1 | d2 | ... with zero
    entries last.  U_inv and V_inv are exact inverses, maintained during the
    reduction so no separate inversion step is needed.
    """

    U: list
    D: list
    V: list
    U_inv: list
    V_inv: list

    @cached_property
    def diagonal(self):
        m, n = mat_shape(self.D)
        return [self.D[i][i] for i in range(min(m, n))]

    def solve(self, b):
        """One integer solution x of M x = b for the factored M, or None."""
        ub = mat_vec(self.U, b)
        diag = self.diagonal
        if any(ub[len(diag):]):  # a row of D without a diagonal entry
            return None
        y = [0] * mat_shape(self.D)[1]
        for i, (u, d) in enumerate(zip(ub, diag)):
            if d:
                if u % d:
                    return None
                y[i] = u // d
            elif u:
                return None
        return mat_vec(self.V, y)


def _pivot(A, t, m, n):
    """Smallest-absolute-value nonzero entry of A[t:,t:].

    Rows are scanned before columns; ties break toward the lowest index.
    """
    best = None
    for i in range(t, m):
        Ai = A[i]
        for j in range(t, n):
            v = Ai[j]
            if v != 0 and (best is None or abs(v) < abs(best[0])):
                best = (v, i, j)
                if abs(v) == 1:
                    return best
    return best


def smith_normal_form(M):
    """Smith normal form of an integer matrix, with transforms.

    >>> s = smith_normal_form([[2, 4], [6, 8]])
    >>> s.diagonal
    [2, 4]
    """
    m, n = mat_shape(M)
    A = mat_copy(M)
    U, Ui = identity_matrix(m), identity_matrix(m)
    V, Vi = identity_matrix(n), identity_matrix(n)

    def row_swap(a, b):
        A[a], A[b] = A[b], A[a]
        U[a], U[b] = U[b], U[a]
        for r in Ui:
            r[a], r[b] = r[b], r[a]

    def col_swap(a, b):
        for r in A:
            r[a], r[b] = r[b], r[a]
        for r in V:
            r[a], r[b] = r[b], r[a]
        Vi[a], Vi[b] = Vi[b], Vi[a]

    def row_add(dst, src, q):
        # row[dst] += q * row[src]
        if q == 0:
            return
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        # inverse op on Ui acts on columns: col[src] -= q * col[dst]
        for r in Ui:
            r[src] -= q * r[dst]

    def col_add(dst, src, q):
        if q == 0:
            return
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]
        Vi[src] = [x - q * y for x, y in zip(Vi[src], Vi[dst])]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for r in Ui:
            r[i] = -r[i]

    for t in range(min(m, n)):
        while True:
            p = _pivot(A, t, m, n)
            if p is None:
                break
            _, pi, pj = p
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            piv = A[t][t]
            # clear column t below/above the pivot
            dirty = False
            for r in range(m):
                if r != t and A[r][t] != 0:
                    q = A[r][t] // piv
                    row_add(r, t, -q)
                    if A[r][t] != 0:
                        dirty = True
            if dirty:
                continue
            for c in range(n):
                if c != t and A[t][c] != 0:
                    q = A[t][c] // piv
                    col_add(c, t, -q)
                    if A[t][c] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot cleared; enforce divisibility over the rest
            offender = None
            for r in range(t + 1, m):
                for c in range(t + 1, n):
                    if A[r][c] % piv != 0:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if t < min(m, n) and A[t][t] < 0:
            row_negate(t)
    return SNF(U=U, D=A, V=V, U_inv=Ui, V_inv=Vi)


@lru_cache(maxsize=256)
def _factored(key):
    s = smith_normal_form(key)
    return SNF(*(tuple(map(tuple, X))
                 for X in (s.U, s.D, s.V, s.U_inv, s.V_inv)))


def factored(M):
    """The Smith normal form of M, shared through a bounded cache.

    The result holds tuples of tuples and is read-only: every caller
    factoring a matrix with the same entries gets the same object while
    it stays among the 256 most recently used.

    >>> factored([[2, 4], [6, 8]]).D
    ((2, 0), (0, 4))
    """
    return _factored(tuple(map(tuple, M)))


factored.cache_info = _factored.cache_info
factored.cache_clear = _factored.cache_clear


def invariant_factors_of_diagonal(entries):
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups.

    Zero means an infinite cyclic summand; units are dropped.

    >>> invariant_factors_of_diagonal([4, 2])
    [2, 4]
    >>> invariant_factors_of_diagonal([2, 3])
    [6]
    """
    k = len(entries)
    diag = [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]
    d = factored(diag).diagonal if k else []
    return [x for x in d if x != 1]


def solve(M, b):
    """One integer solution x of M x = b, or None.

    >>> solve([[2, 0], [0, 3]], [4, 9])
    [2, 3]
    >>> solve([[2]], [3]) is None
    True
    """
    return factored(M).solve(b)


def kernel_basis(M):
    """Basis (list of columns) of the integer kernel lattice of M."""
    s = factored(M)
    m, n = mat_shape(M)
    cols = columns(s.V)
    out = []
    for j in range(n):
        d = s.D[j][j] if j < min(m, n) else 0
        if j >= min(m, n) or d == 0:
            out.append(cols[j])
    return out


def lattice_basis(gens, dim):
    """Basis of the column lattice spanned by ``gens`` (columns in Z^dim)."""
    if not gens:
        return []
    M = from_columns(gens, nrows=dim)
    s = factored(M)
    mv = mat_mul(M, s.V)  # equals U_inv * D, so its leading columns are a basis
    cols = columns(mv)
    return [cols[i] for i, d in enumerate(s.diagonal) if d != 0]


def lattice_intersection(gens_a, gens_b, dim):
    """Generators of the intersection of two column lattices in Z^dim."""
    if not gens_a or not gens_b:
        return []
    M = from_columns([list(c) for c in gens_a] + [[-v for v in c] for c in gens_b],
                     nrows=dim)
    out = []
    A = from_columns(gens_a, nrows=dim)
    for k in kernel_basis(M):
        w = k[: len(gens_a)]
        out.append(mat_vec(A, w))
    return [c for c in out if any(c)]


def lattice_preimage(hom_matrix, gens, dom_dim, cod_dim):
    """Generators of { x in Z^dom : hom_matrix*x in lattice(gens) }."""
    if cod_dim == 0:
        return identity_matrix(dom_dim)  # everything maps into Z^0
    cols = columns(hom_matrix) if dom_dim else []
    M = from_columns(cols + [list(g) for g in gens], nrows=cod_dim)
    out = []
    for k in kernel_basis(M):
        out.append(k[:dom_dim])
    return [c for c in out if any(c)]


# ---------------------------------------------------------------------------
# non-negative integer feasibility
# ---------------------------------------------------------------------------

def _feasibility_bound(A, B, c):
    """A-priori bound on some solution of A n + B v = c, n >= 0.

    Splitting each free variable v = v+ - v- yields a purely non-negative
    system; if that system is solvable it has a solution with every entry at
    most nvars * (m * a)^(2m+1) where a bounds the absolute values involved.
    """
    m = len(c)
    nvars = (len(A[0]) if A and A[0] else 0) + 2 * (len(B[0]) if B and B[0] else 0)
    if nvars == 0 or m == 0:
        return 1
    a = 1
    for M in (A, B):
        for row in M:
            for v in row:
                a = max(a, abs(v))
    for v in c:
        a = max(a, abs(v))
    return nvars * (m * a) ** (2 * m + 1)


def _positive_functional(cols, dim):
    """An integer y with y.col > 0 for every column, or None.

    The perceptron rule adds a column to y while y is not positive on it.
    When no nonzero x >= 0 has sum x_j col_j = 0 such a y exists, and then
    the rule stops after finitely many updates (Novikoff); it gives up
    after ``HILBERT_FRONTIER_CAP`` of them.
    """
    y = [0] * dim
    for _ in range(HILBERT_FRONTIER_CAP):
        bad = next((col for col in cols
                    if sum(a * b for a, b in zip(y, col)) <= 0), None)
        if bad is None:
            return y
        y = [a + b for a, b in zip(y, bad)]
    return None


def _periods(eqs, congs, t):
    """Per variable, None when it meets an equality row, else its period:
    the lcm of the congruence moduli it appears in, which the variable can
    be raised by without changing any row."""
    period = [None] * t
    for j in range(t):
        if any(coeffs[j] for coeffs, _ in eqs):
            continue
        period[j] = 1
        for coeffs, _, d in congs:
            if coeffs[j]:
                period[j] = period[j] * d // gcd(period[j], d)
    return period


class NonnegSolver:
    """Decides A n + B v = c with n >= 0 and v free, exactly.

    The free block is eliminated once via Smith normal form (its rows turn
    into congruences); repeated queries against the same (A, B) pair reuse
    the transform.  The search is a depth-first branch and bound over n with
    interval, gcd and congruence pruning, inside the box that equality rows
    of one sign put around n.  A variable that meets only congruences is
    periodic; once only such variables are left, one integer solution
    taken modulo their periods decides them.

    When those rows leave a variable unbounded, the columns are split once,
    on the first query.  The unit columns, the support of the relation
    monoid { n >= 0 : A n + B v = 0 }, generate a group, so they join the
    free block.  The rest is pointed, so an integer combination y of its
    equality rows E n = r is positive on every column (Gordan's
    alternative, Schrijver 1986, section 7.8), and the derived row
    (y E) n = y r bounds each n_j by y r / (y E)_j.  A witness of the split
    system maps back by solving for the unit coefficients and adding a
    multiple of a relation positive exactly on the unit columns.  Only when
    a Hilbert basis that relation needs or the functional passes
    ``HILBERT_FRONTIER_CAP`` does the search fall back on the a-priori
    solution-size bound, which is complete but can be huge.
    """

    def __init__(self, A, B):
        # A: m x t (nonneg vars), B: m x u (free vars); both may have 0 cols
        self.m = len(A)
        self.t = len(A[0]) if A and A[0] else 0
        self.u = len(B[0]) if B and B[0] else 0
        self.A = A
        self.B = B
        if self.u:
            self.snfB = factored(B)
            self.UA = mat_mul(self.snfB.U, A) if self.t else [[] for _ in range(self.m)]
        else:
            self.snfB = None
            self.UA = A

    @cached_property
    def _joint(self):
        """The joint integer pre-check matrix [A | B], fixed per solver."""
        return [list(self.A[i]) + (list(self.B[i]) if self.u else [])
                for i in range(self.m)]

    def _rows(self, c):
        """Equality and congruence rows for a given right-hand side."""
        if self.u:
            uc = mat_vec(self.snfB.U, c)
            diag = self.snfB.diagonal + [0] * (self.m - len(self.snfB.diagonal))
        else:
            uc = list(c)
            diag = [0] * self.m
        eqs, congs = [], []
        for i in range(self.m):
            coeffs = self.UA[i] if self.t else []
            d = diag[i]
            if d == 0:
                eqs.append((coeffs, uc[i]))
            elif d != 1:
                congs.append((coeffs, uc[i] % d, d))
        return eqs, congs

    @cached_property
    def relations(self):
        """Hilbert basis of { n >= 0 : A n + B v = 0 for some v }, or None
        past the cap; see :func:`hilbert_basis`."""
        return _hilbert_basis(self)

    @cached_property
    def unit_columns(self):
        """Indices j in the support of some relation, or None past the
        cap: exactly the columns of A that are units of the cone they
        generate modulo the columns of B."""
        found = self._unit_relation
        return None if found is None else found[0]

    @cached_property
    def _unit_relation(self):
        """(units, relation), or None past the cap: the unit columns, and
        on them a relation n >= 0 (A n + B v = 0 for some v) positive
        exactly on the units.

        Without periodic columns both are read off the Hilbert basis, the
        relation as its sum.  A periodic column, one that meets no
        equality row, has a period p modulo B: p e_j is a relation, so the
        column is a unit and needs no basis.  With those columns moved into
        B, the smaller system gives the other units and a relation on them;
        its coefficients on the periodic columns, taken modulo the period
        and raised by one period, lift it to a relation of this system.
        """
        eqs, congs = self._rows([0] * self.m)
        period = _periods(eqs, congs, self.t)
        periodic = [j for j in range(self.t) if period[j] is not None]
        if not periodic:
            if self.relations is None:
                return None
            units = tuple(j for j in range(self.t)
                          if any(n[j] for n in self.relations))
            return units, [sum(n[j] for n in self.relations) for j in units]
        rest = [j for j in range(self.t) if period[j] is None]
        inner = NonnegSolver(
            [[row[j] for j in rest] for row in self.A],
            [[row[j] for j in periodic] + (list(self.B[i]) if self.u else [])
             for i, row in enumerate(self.A)])
        found = inner._unit_relation
        if found is None:
            return None
        n_rest = [0] * len(rest)
        for k, r in zip(*found):
            n_rest[k] = r
        w = inner.snfB.solve([-sum(a * x for a, x in zip(row, n_rest))
                              for row in inner.A])
        relation = {rest[k]: x for k, x in enumerate(n_rest) if x}
        for j, x in zip(periodic, w):
            relation[j] = x % period[j] + period[j]
        units = tuple(sorted(relation))
        return units, [relation[j] for j in units]

    @cached_property
    def _split(self):
        """(inner, units, rest, relation, y, phi) for a system whose
        sign-definite rows leave some variable unbounded, else None.

        ``inner`` solves over the ``rest`` columns with the ``units``
        columns moved into its free block, ``relation`` is a relation
        positive exactly on ``units`` (``_unit_relation``), and y weighs
        the equality rows of ``inner`` into the row phi, positive on every
        column.
        """
        eqs, _ = self._rows([0] * self.m)
        definite = [coeffs for coeffs, _ in eqs
                    if all(a >= 0 for a in coeffs) or all(a <= 0 for a in coeffs)]
        if not any(any(coeffs[j] for coeffs, _ in eqs)
                   and not any(coeffs[j] for coeffs in definite)
                   for j in range(self.t)):
            return None
        found = self._unit_relation
        if found is None:
            return None
        units, relation = found
        rest = [j for j in range(self.t) if j not in units]
        inner = self
        if units:
            inner = NonnegSolver(
                [[row[j] for j in rest] for row in self.A],
                [[row[j] for j in units] + (list(self.B[i]) if self.u else [])
                 for i, row in enumerate(self.A)])
        inner_eqs, _ = inner._rows([0] * self.m)
        y = _positive_functional(
            [[coeffs[k] for coeffs, _ in inner_eqs] for k in range(inner.t)],
            len(inner_eqs))
        if y is None:
            return None
        phi = [sum(a * coeffs[k] for a, (coeffs, _) in zip(y, inner_eqs))
               for k in range(inner.t)]
        return inner, units, rest, relation, y, phi

    def solve(self, c):
        """A witness n >= 0, or None; None certifies infeasibility."""
        if self.t:
            # no integer solution at all (nonnegativity ignored) kills the
            # search immediately; this catches parity-style obstructions
            # that the per-row gcd tests miss
            if solve(self._joint, list(c)) is None:
                return None
            if self._split is not None:
                return self._solve_split(c)
        eqs, congs = self._rows(c)
        return self._search(c, eqs, congs)

    def _solve_split(self, c):
        inner, units, rest, relation, y, phi = self._split
        eqs, congs = inner._rows(c)
        eqs.append((phi, sum(a * r for a, (_, r) in zip(y, eqs))))
        n_rest = inner._search(c, eqs, congs)
        if n_rest is None:
            return None
        n = [0] * self.t
        for j, x in zip(rest, n_rest):
            n[j] = x
        if units:
            resid = [ci - sum(a * x for a, x in zip(row, n_rest))
                     for ci, row in zip(c, inner.A)]
            w = inner.snfB.solve(resid)
            k = max([0] + [_ceil_div(-x, r) for x, r in zip(w, relation)])
            for j, x, r in zip(units, w, relation):
                n[j] = x + k * r
        return n

    def _search(self, c, eqs, congs):
        """Branch and bound over the rows of c, plus any derived rows."""
        t = self.t
        if t == 0:
            for coeffs, rhs in eqs:
                if rhs != 0:
                    return None
            for coeffs, r, d in congs:
                if r % d != 0:
                    return None
            return []
        if all(rhs == 0 for _, rhs in eqs) and all(r == 0 for _, r, _ in congs):
            return [0] * t  # the search, smallest values first, finds it too
        bound = _feasibility_bound(self.A, self.B, c)
        ub = [bound] * t
        # cheap bound tightening from sign-definite equality rows
        for _ in range(2):
            for coeffs, rhs in eqs:
                if all(a >= 0 for a in coeffs):
                    if rhs < 0:
                        return None
                    for j, a in enumerate(coeffs):
                        if a > 0:
                            ub[j] = min(ub[j], rhs // a)
                elif all(a <= 0 for a in coeffs):
                    if rhs > 0:
                        return None
                    for j, a in enumerate(coeffs):
                        if a < 0:
                            ub[j] = min(ub[j], rhs // a)
        if any(b < 0 for b in ub):
            return None
        # a variable touching no equality row only matters modulo the
        # congruence moduli it appears in: adding their lcm, its period,
        # keeps every row, so its search window is one period
        period = _periods(eqs, congs, t)
        n = [0] * t
        assigned = [False] * t

        def residual_range(coeffs, skip=None):
            lo = hi = 0
            for j in range(t):
                if assigned[j] or j == skip:
                    continue
                a = coeffs[j]
                if a > 0:
                    hi += a * ub[j]
                elif a < 0:
                    lo += a * ub[j]
            return lo, hi

        def acc_of(coeffs):
            return sum(coeffs[j] * n[j] for j in range(t) if assigned[j])

        def prune():
            for coeffs, rhs in eqs:
                need = rhs - acc_of(coeffs)
                lo, hi = residual_range(coeffs)
                if not (lo <= need <= hi):
                    return True
                g = 0
                for j in range(t):
                    if not assigned[j]:
                        g = gcd(g, coeffs[j])
                if g == 0:
                    if need != 0:
                        return True
                elif need % g != 0:
                    return True
            for coeffs, r, d in congs:
                acc = acc_of(coeffs)
                lo, hi = residual_range(coeffs)
                # smallest value >= lo congruent to (r - acc) mod d
                first = lo + ((r - acc - lo) % d)
                if first > hi:
                    return True
            return False

        def window_for(j):
            vlo, vhi = 0, ub[j]
            if period[j] is not None:
                vhi = min(vhi, period[j] - 1)
            for coeffs, rhs in eqs:
                a = coeffs[j]
                if a == 0:
                    continue
                lo_r, hi_r = residual_range(coeffs, skip=j)
                need = rhs - acc_of(coeffs)
                lo_av, hi_av = need - hi_r, need - lo_r
                if a > 0:
                    vlo = max(vlo, _ceil_div(lo_av, a))
                    vhi = min(vhi, hi_av // a)
                else:
                    vlo = max(vlo, _ceil_div(hi_av, a))
                    vhi = min(vhi, lo_av // a)
            return vlo, vhi

        def integer_solution():
            """One integer solution of the remaining subsystem, the
            unassigned variables first, or None.

            Row combinations can be obstructed even when every row passes
            its own interval and gcd tests (an equality can force a fixed
            residue into a congruence), and only a joint integer solve
            sees that; without it a forced-variable loop may crawl over an
            astronomic window.
            """
            rhs = [c[i] - sum(self.A[i][j] * n[j]
                              for j in range(t) if assigned[j])
                   for i in range(self.m)]
            cols = [[self.A[i][j] for i in range(self.m)]
                    for j in range(t) if not assigned[j]]
            cols += [[self.B[i][j] for i in range(self.m)]
                     for j in range(self.u)]
            return solve(from_columns(cols, nrows=self.m), rhs)

        def dfs(remaining):
            if prune():
                return False
            if remaining == 0:
                return True
            free = [j for j in range(t) if not assigned[j]]
            # only periodic variables left: one integer solution, each
            # value taken modulo its period, instead of a crawl over the
            # multiples of a finite-order column
            periodic = all(period[j] is not None for j in free) and \
                any(period[j] > 1 for j in free)
            if remaining < t or periodic:
                z = integer_solution()
                if z is None:
                    return False
                if periodic:
                    for j, v in zip(free, z):
                        n[j] = v % period[j]
                    return True
            best = None
            for j in range(t):
                if assigned[j]:
                    continue
                vlo, vhi = window_for(j)
                if vhi < vlo:
                    return False
                width = vhi - vlo
                if best is None or width < best[0]:
                    best = (width, j, vlo, vhi)
                    if width == 0:
                        break
            _, j, vlo, vhi = best
            assigned[j] = True
            for val in range(vlo, vhi + 1):
                n[j] = val
                if dfs(remaining - 1):
                    return True
            n[j] = 0
            assigned[j] = False
            return False

        if dfs(t):
            return list(n)
        return None


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

HILBERT_FRONTIER_CAP = 20000


def hilbert_basis(A, B):
    """Hilbert basis of the monoid { n >= 0 : A n + B v = 0 for some v }.

    The free block is eliminated as in :class:`NonnegSolver`, leaving
    equalities E n = 0 and congruences c.n = 0 mod d.  With c reduced into
    [0, d), c.n is a non-negative multiple d s of d, so each congruence
    becomes the equality c.n - d s = 0 in one more natural s, which n
    determines.  The completion of Contejean and Devie (Inf. & Comp. 113,
    1994) enumerates the minimal solutions of that homogeneous system: a
    vector that is not yet a solution grows by e_j only when its image
    points away from the image of e_j, and a vector above a known solution
    is dropped.  Projecting the slacks away keeps them minimal.  Returns
    None once more than ``HILBERT_FRONTIER_CAP`` vectors have been
    generated.

    >>> hilbert_basis([[1, 1, -1]], [[]])  # n1 + n2 = n3
    [(1, 0, 1), (0, 1, 1)]
    >>> hilbert_basis([[1, 1]], [[2]])  # n1 + n2 even
    [(2, 0), (1, 1), (0, 2)]
    """
    return NonnegSolver(A, B).relations


def _hilbert_basis(solver):
    eqs, congs = solver._rows([0] * solver.m)
    t = solver.t
    congs = [([a % d for a in coeffs], d) for coeffs, _, d in congs]
    congs = [(coeffs, d) for coeffs, d in congs if any(coeffs)]
    q = t + len(congs)
    rows = [list(coeffs) + [0] * len(congs) for coeffs, _ in eqs if any(coeffs)]
    for k, (coeffs, d) in enumerate(congs):
        slack = [0] * len(congs)
        slack[k] = -d
        rows.append(coeffs + slack)
    cols = [tuple(row[j] for row in rows) for j in range(q)]
    frontier = {}
    for j in range(q):
        unit = [0] * q
        unit[j] = 1
        frontier[tuple(unit)] = cols[j]
    found = []
    generated = q
    while frontier:
        grow = []
        for vec, img in frontier.items():
            if any(img):
                grow.append((vec, img))
            else:
                found.append(vec)
        frontier = {}
        for vec, img in grow:
            for j, col in enumerate(cols):
                if sum(a * b for a, b in zip(img, col)) >= 0:
                    continue
                nxt = vec[:j] + (vec[j] + 1,) + vec[j + 1:]
                if nxt in frontier or any(
                        all(a >= b for a, b in zip(nxt, sol)) for sol in found):
                    continue
                frontier[nxt] = tuple(a + b for a, b in zip(img, col))
        generated += len(frontier)
        if generated > HILBERT_FRONTIER_CAP:
            return None
    return [sol[:t] for sol in found]
