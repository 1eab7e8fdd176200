"""Independent checkers for the benchmark's operations.

Nothing here imports the package under test.  The checkers take plain data
(Cayley tables as lists of index rows, element sets as index sets, integer
matrices, the JSON reports of the CLI) and recompute each answer by a route
of their own: set computations on Cayley tables for finite objects, exact
rational geometry for cones on Z and Z^2, and integer matrix arithmetic for
Smith normal forms.  Each checker returns ``None`` when the answer is right
and a short description of the first discrepancy otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct


# ---------------------------------------------------------------------------
# finite objects: set computations on Cayley tables
# ---------------------------------------------------------------------------

class FiniteFacts:
    """Everything the checks need about a morphism (G, P) -> (H, Q) given as
    tables, cone member sets and an image list."""

    def __init__(self, tG, P, tH, Q, images):
        self.tG, self.tH = tG, tH
        self.P, self.Q = frozenset(P), frozenset(Q)
        self.img = list(images)
        self.eG, self.eH = _identity(tG), _identity(tH)
        self.NG = units_of(tG, self.P)
        self.NH = units_of(tH, self.Q)
        nG = len(tG)
        self.ker = frozenset(x for x in range(nG) if self.img[x] == self.eH)
        self.image = frozenset(self.img)

    def hom_law_error(self):
        tG, tH, img = self.tG, self.tH, self.img
        n = len(tG)
        for a in range(n):
            for b in range(n):
                if img[tG[a][b]] != tH[img[a]][img[b]]:
                    return f"hom law fails at ({a}, {b})"
        bad = [x for x in self.P if self.img[x] not in self.Q]
        if bad:
            return f"cone element {bad[0]} maps outside the codomain cone"
        return None

    @property
    def covering(self):
        """M*: the kernel meets the domain units trivially."""
        return self.ker & self.NG == {self.eG}

    @property
    def in_M(self):
        """The restriction to unit groups is a bijection N_G -> N_H."""
        mapped = [self.img[x] for x in self.NG]
        return len(set(mapped)) == len(mapped) and set(mapped) == self.NH

    @property
    def in_E(self):
        """The three elementary conditions: the units are the full preimage
        of the codomain units, the map is onto up to codomain units, and
        every positive element is a positive image up to codomain units."""
        tH = self.tH
        pre = frozenset(x for x in range(len(self.tG)) if self.img[x] in self.NH)
        onto = {tH[y][n] for y in self.image for n in self.NH} == set(range(len(tH)))
        images_P = {self.img[p] for p in self.P}
        lifts = {tH[y][n] for y in images_P for n in self.NH}
        return pre == self.NG and onto and self.Q <= lifts

    @property
    def in_Eprime(self):
        """Normal epimorphism (onto, cone onto cone) with kernel in the units."""
        return (self.image == set(range(len(self.tH)))
                and {self.img[p] for p in self.P} == self.Q
                and self.ker <= self.NG)

    @property
    def image_normal(self):
        return is_normal_set(self.tH, self.image)

    @property
    def ml_mid_order(self):
        return len(self.tG) // len(self.ker & self.NG)


def _identity(t):
    n = len(t)
    return next(e for e in range(n) if all(t[e][x] == x for x in range(n)))


def _inverse(t, a, e):
    return next(b for b in range(len(t)) if t[a][b] == e)


def units_of(t, P):
    """{x in P : -x in P}."""
    e = _identity(t)
    return frozenset(x for x in P if _inverse(t, x, e) in P)


def is_normal_set(t, S):
    e = _identity(t)
    n = len(t)
    inv = [_inverse(t, g, e) for g in range(n)]
    return all(t[t[g][x]][inv[g]] in S for g in range(n) for x in S)


def finite_flags(t, P):
    """Classification flags of (G, P) from its table and cone members."""
    P = frozenset(P)
    N = units_of(t, P)
    flags = set()
    if len(N) == len(t):
        flags.add("total")
    if len(N) == 1:
        flags.add("partially_ordered")
    if N == P:
        flags.add("protomodular")
        if len(N) == 1:
            flags.add("discrete")
    return flags


def recomposes(first, second, whole):
    """second . first == whole, on image lists."""
    return all(second[first[x]] == whole[x] for x in range(len(whole)))


# ---------------------------------------------------------------------------
# f.g. abelian groups: integer arithmetic modulo torsion
# ---------------------------------------------------------------------------

def reduce_coords(coords, rank, torsion):
    return tuple(list(coords[:rank])
                 + [c % d for c, d in zip(coords[rank:], torsion)])


def apply_matrix(columns, x, rank, torsion):
    """Image of coordinate vector x under the hom whose j-th generator goes
    to columns[j]; the result is reduced in the codomain Z^rank + torsion."""
    n = rank + len(torsion)
    out = [0] * n
    for xj, col in zip(x, columns):
        for i in range(n):
            out[i] += xj * col[i]
    return reduce_coords(out, rank, torsion)


def check_witness(target, generators, witness, rank, torsion):
    """An In verdict's witness must be a non-negative combination of the
    cone generators that recombines to the element."""
    if witness is None or len(witness) != len(generators):
        return f"witness {witness} does not match {len(generators)} generators"
    if any(w < 0 for w in witness):
        return f"witness {witness} has a negative coefficient"
    total = [0] * (rank + len(torsion))
    for w, g in zip(witness, generators):
        for i, c in enumerate(g):
            total[i] += w * c
    got = reduce_coords(total, rank, torsion)
    want = reduce_coords(target, rank, torsion)
    if got != want:
        return f"witness {witness} recombines to {got}, not {want}"
    return None


def _det(M):
    """Determinant by fraction-free expansion (small matrices)."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(n))


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


def check_snf(M, U, D, V, reference_factors):
    """U M V = D with U, V unimodular, D diagonal non-negative with each
    entry dividing the next, and the non-unit non-zero diagonal equal to
    invariant factors computed elsewhere (``reference_factors``)."""
    m = len(M)
    n = len(M[0]) if M else 0
    if m == 0 or n == 0:
        return None
    if _mul(_mul(U, M), V) != D:
        return "U M V differs from D"
    if abs(_det(U)) != 1 or abs(_det(V)) != 1:
        return "a transform is not unimodular"
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j and D[i][j]:
                return f"D has an off-diagonal entry at ({i}, {j})"
    if any(d < 0 for d in diag):
        return f"negative diagonal {diag}"
    nz = [d for d in diag if d]
    if nz != diag[: len(nz)]:
        return f"zero diagonal entries are not last: {diag}"
    for a, b in zip(nz, nz[1:]):
        if b % a:
            return f"diagonal {diag} is not a divisibility chain"
    ref = sorted(abs(d) for d in reference_factors if d)
    if nz != ref:
        return f"invariant factors {nz}, reference {ref}"
    return None


# ---------------------------------------------------------------------------
# cones on Z and Z^2: exact rational geometry
# ---------------------------------------------------------------------------

def _in_rational_cone(v, gens):
    """Is v a non-negative rational combination of gens (dimension <= 2)?
    By Caratheodory two generators always suffice in the plane."""
    if all(c == 0 for c in v):
        return True
    dim = len(v)
    for g in gens:
        if dim == 1:
            if g[0] * v[0] > 0:
                return True
            continue
        cross = g[0] * v[1] - g[1] * v[0]
        dot = g[0] * v[0] + g[1] * v[1]
        if cross == 0 and dot > 0:
            return True
    if dim == 2:
        for g, h in iproduct(gens, gens):
            det = g[0] * h[1] - g[1] * h[0]
            if det == 0:
                continue
            a = Fraction(v[0] * h[1] - v[1] * h[0], det)
            b = Fraction(g[0] * v[1] - g[1] * v[0], det)
            if a >= 0 and b >= 0:
                return True
    return False


def unit_generators(gens):
    """Generators of the unit group of the monoid on Z^r (r <= 2) spanned
    by ``gens``: exactly the generators in the lineality space of its
    rational cone, since a monoid whose cone is a linear space is a group."""
    return [g for g in gens if any(g) and
            _in_rational_cone([-c for c in g], gens)]


def _lattice_index(vectors, rank):
    """Index of the lattice spanned by the vectors in Z^rank, or 0 when
    the lattice has lower rank."""
    from math import gcd
    if rank == 1:
        g = 0
        for v in vectors:
            g = gcd(g, v[0])
        return g
    g = 0
    for u, w in iproduct(vectors, vectors):
        g = gcd(g, u[0] * w[1] - u[1] * w[0])
    return g


def _lattice_rank(vectors, rank):
    nz = [v for v in vectors if any(v)]
    if not nz:
        return 0
    if rank == 1:
        return 1
    return 2 if _lattice_index(nz, 2) else 1


def fgab_flags(rank, gens):
    """Classification flags of (Z^rank, monoid spanned by gens)."""
    gens = [list(g) for g in gens if any(g)]
    ug = unit_generators(gens)
    flags = set()
    if _lattice_index(ug, rank) == 1:
        flags.add("total")
    if not ug:
        flags.add("partially_ordered")
    if len(ug) == len(gens):
        flags.add("protomodular")
        if not ug:
            flags.add("discrete")
    return flags


def fgab_torsion_shape(rank, gens):
    """(rank of the unit group, rank of G/N, torsion of G/N) for
    (Z^rank, monoid spanned by gens)."""
    from math import gcd
    ug = unit_generators([list(g) for g in gens if any(g)])
    k = _lattice_rank(ug, rank)
    if k == 0:
        return 0, rank, []
    if k == rank:
        idx = _lattice_index(ug, rank)
        if rank == 1:
            return 1, 0, [idx] if idx > 1 else []
        d1 = 0
        for v in ug:
            for c in v:
                d1 = gcd(d1, c)
        tors = [d for d in (d1, idx // d1) if d > 1]
        return k, 0, tors
    # rank 2, unit lattice of rank 1: Z^2 / L = Z + Z/d, d the content of L
    d = 0
    for v in ug:
        for c in v:
            d = gcd(d, c)
    return 1, 1, [d] if d > 1 else []


def reduced_by_functional(rank, torsion, gens, search=4):
    """Proof that (Z^rank + torsion, monoid spanned by gens) is reduced:
    no generator is a non-zero torsion element, and some integer functional
    is positive on the free part of every non-zero generator."""
    gens = [g for g in gens if any(reduce_coords(g, rank, torsion))]
    if any(not any(g[:rank]) for g in gens):
        return False
    if not gens:
        return True
    for f in iproduct(range(-search, search + 1), repeat=rank):
        if all(sum(a * b for a, b in zip(f, g[:rank])) > 0 for g in gens):
            return True
    return False


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def check_exit(report, code, holds):
    """Exit code 0 exactly when the report's verdict holds, else 2."""
    want = 0 if holds else 2
    if code != want:
        return f"exit {code} for a verdict that should give {want}"
    return None


def check_classification(report, flags):
    got = set(report["classification"]["flags"])
    if got != set(flags):
        return f"flags {sorted(got)}, expected {sorted(flags)}"
    return None


def check_torsion_finite(report, t, P):
    """torsion on a finite object: |N| and |G/N|, reduced free part."""
    N = units_of(t, frozenset(P))
    if report["torsion_part"]["order"] != len(N):
        return f"torsion part order {report['torsion_part']['order']}, expected {len(N)}"
    free = report["torsion_free"]
    if free["group"]["order"] != len(t) // len(N):
        return f"torsion-free order {free['group']['order']}, expected {len(t) // len(N)}"
    if free["cone_size"] != len(P) // len(N) or not free["reduced"]:
        return "torsion-free cone is not the reduced image of the cone"
    return None


def check_torsion_fgab(report, rank, gens):
    k, free_rank, tors = fgab_torsion_shape(rank, gens)
    tp = report["torsion_part"]["group"]
    if tp != {"kind": "fgab", "rank": k, "torsion": []}:
        return f"torsion part {tp}, expected rank {k}"
    want_order = None if k else 1
    if report["torsion_part"]["order"] != want_order:
        return f"torsion part order {report['torsion_part']['order']}, expected {want_order}"
    fg = report["torsion_free"]["group"]
    if fg != {"kind": "fgab", "rank": free_rank, "torsion": tors}:
        return f"torsion-free group {fg}, expected rank {free_rank} torsion {tors}"
    if not report["torsion_free"]["reduced"]:
        return "torsion-free part is not reduced"
    return None
