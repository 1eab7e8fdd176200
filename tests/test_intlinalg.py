"""Exact linear algebra: Smith normal form, lattices, feasibility."""

import itertools
import random
from math import gcd

import pytest

from preordgrp.intlinalg import (
    NonnegSolver,
    factored,
    from_columns,
    hilbert_basis,
    identity_matrix,
    invariant_factors_of_diagonal,
    kernel_basis,
    lattice_basis,
    lattice_intersection,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve,
)


def check_snf(M):
    s = smith_normal_form(M)
    m, n = len(M), len(M[0]) if M else 0
    assert mat_mul(mat_mul(s.U, M), s.V) == s.D
    assert mat_mul(s.U, s.U_inv) == identity_matrix(m)
    assert mat_mul(s.U_inv, s.U) == identity_matrix(m)
    assert mat_mul(s.V, s.V_inv) == identity_matrix(n)
    nz = [d for d in s.diagonal if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros come last
    tail = s.diagonal[len(nz):]
    assert all(d == 0 for d in tail)
    return s


def test_snf_identity():
    s = check_snf([[1]])
    assert s.D == [[1]]


def test_snf_zero_matrix():
    s = check_snf([[0, 0, 0], [0, 0, 0]])
    assert s.D == [[0, 0, 0], [0, 0, 0]]


def test_snf_2x2_example():
    # first invariant factor is the gcd of the entries, the product of the
    # first two is the gcd of the 2x2 minors: gcd=2, |det|=8, so diag(2, 4)
    M = [[2, 4], [6, 8]]
    entry_gcd = gcd(gcd(2, 4), gcd(6, 8))
    minor = abs(2 * 8 - 4 * 6)
    assert (entry_gcd, minor // entry_gcd) == (2, 4)
    s = check_snf(M)
    assert s.diagonal == [2, 4]


def test_snf_random_exhaustive_properties():
    rng = random.Random(20210)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(M)


def test_snf_matches_sympy():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(6)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        s = smith_normal_form(M)
        ref = [int(d) for d in invariant_factors(Matrix(M), domain=ZZ)]
        assert s.diagonal == ref + [0] * (min(m, n) - len(ref)), M
        assert mat_mul(mat_mul(s.U, M), s.V) == s.D


def test_snf_determinism():
    M = [[3, 1, -2], [0, 4, 5]]
    s1 = smith_normal_form(M)
    s2 = smith_normal_form(M)
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


def test_factored_is_read_only():
    M = [[3, 1, -2], [0, 4, 5]]
    s = factored(M)
    for X in (s.U, s.D, s.V, s.U_inv, s.V_inv):
        assert isinstance(X, tuple) and all(isinstance(r, tuple) for r in X)
    assert factored([list(r) for r in M]) is s
    ref = smith_normal_form(M)
    assert [list(r) for r in s.D] == ref.D and [list(r) for r in s.U] == ref.U


def test_public_snf_returns_fresh_lists():
    M = [[2, 4], [6, 8]]
    s = smith_normal_form(M)
    for X in (s.U, s.D, s.V, s.U_inv, s.V_inv):
        X[0][0] += 7
        X.append([0])
    again = smith_normal_form(M)
    assert again.D == [[2, 0], [0, 4]]
    assert mat_mul(mat_mul(again.U, M), again.V) == again.D
    assert M == [[2, 4], [6, 8]]


def test_subgroup_membership_factors_once():
    # every query against one subgroup solves over one lattice matrix
    from preordgrp.groups import make_fgab_group, subgroup
    G = make_fgab_group(2, [4])
    S = subgroup(G, [G.elem([2, 1, 1]), G.elem([0, 3, 2])])
    rng = random.Random(5)
    queries = [G.elem([rng.randint(-6, 6), rng.randint(-6, 6),
                       rng.randrange(4)]) for _ in range(50)]
    queries[0] = G.elem([2, 1, 1])
    factored.cache_clear()
    verdicts = [S.contains(x) for x in queries]
    assert factored.cache_info().misses == 1
    assert True in verdicts and False in verdicts


def test_invariant_factor_normalization():
    # Z/4 + Z/2 has exponent lcm(4,2) = 4 and order 8, so factors (2, 4)
    assert invariant_factors_of_diagonal([4, 2]) == [2, 4]
    assert invariant_factors_of_diagonal([2, 3]) == [6]
    assert invariant_factors_of_diagonal([1, 1]) == []
    assert invariant_factors_of_diagonal([0, 2]) == [2, 0]


def test_mat_vec_matches_the_definition():
    rng = random.Random(39)
    for _ in range(200):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-9, 9) for _ in range(n if m else 0)]
        assert mat_vec(A, x) == [sum(A[i][j] * x[j] for j in range(n))
                                 for i in range(m)]
        assert mat_vec(A, tuple(x)) == mat_vec(A, x)
        with pytest.raises(ValueError, match="shape mismatch"):
            mat_vec(A, x + [1])


def test_solve():
    assert solve([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve([[2]], [3]) is None
    x = solve([[2, 4], [6, 8]], [6, 14])
    assert mat_vec([[2, 4], [6, 8]], x) == [6, 14]
    assert solve([[0, 1]], [5]) is not None


def test_kernel_basis():
    kb = kernel_basis([[0, 1]])
    assert len(kb) == 1
    assert kb[0][1] == 0 and abs(kb[0][0]) == 1
    assert kernel_basis([[1, 0], [0, 1]]) == []
    kb2 = kernel_basis([[2, -1]])
    assert len(kb2) == 1
    a, b = kb2[0]
    assert 2 * a - b == 0 and (a, b) != (0, 0)


def test_lattice_operations():
    def member(gens, x):
        return solve(from_columns(gens, nrows=2), x) is not None

    # lattice spanned by (2,0) and (0,3) in Z^2
    gens = [[2, 0], [0, 3]]
    assert member(gens, [4, 3])
    assert not member(gens, [1, 0])
    basis = lattice_basis(gens, 2)
    assert len(basis) == 2
    meet = lattice_intersection([[2, 0]], [[3, 0]], 2)
    assert member(meet, [6, 0])
    assert not member(meet, [2, 0])


@pytest.mark.parametrize("target,expected", [
    ([5], True), ([0], True), ([-1], False),
])
def test_nonneg_natural_numbers(target, expected):
    solver = NonnegSolver([[1]], [[]])
    assert (solver.solve(target) is not None) == expected


def test_nonneg_witness_is_solution():
    A = [[2, -1, 0], [0, 0, 1]]
    solver = NonnegSolver(A, [[], []])
    w = solver.solve([1, 0])
    assert w is not None and all(x >= 0 for x in w)
    assert [2 * w[0] - w[1], w[2]] == [1, 0]
    assert solver.solve([0, -1]) is None


def test_nonneg_with_torsion_slack():
    # generator 2 in Z/4: reaches 0 and 2, misses odds
    solver = NonnegSolver([[2]], [[4]])
    assert solver.solve([2]) is not None
    assert solver.solve([0]) is not None
    assert solver.solve([1]) is None
    assert solver.solve([3]) is None


def test_nonneg_parity_obstruction():
    solver = NonnegSolver([[1, -1], [1, 1]], [[0], [2]])
    assert solver.solve([5, 0]) is None
    assert solver.solve([5, 1]) is not None


def test_nonneg_brute_force_agreement():
    # against brute force on a small cone with mixed signs
    A = [[1, 1, -1], [0, 2, -1]]
    solver = NonnegSolver(A, [[], []])
    reachable = set()
    for a in range(7):
        for b in range(7):
            for c in range(7):
                reachable.add((a + b - c, 2 * b - c))
    for x in range(-4, 5):
        for y in range(-4, 5):
            w = solver.solve([x, y])
            if (x, y) in reachable:
                assert w is not None, (x, y)
            if w is not None:
                assert [w[0] + w[1] - w[2], 2 * w[1] - w[2]] == [x, y]


def test_nonneg_falls_back_past_the_cap():
    # the only relation (40000, 1) lies past the Hilbert frontier cap, so
    # the columns are not split and the box search answers
    solver = NonnegSolver([[1, -40000]], [[]])
    assert solver.solve([-1]) == [39999, 1]
    assert solver.unit_columns is None and solver._split is None


def test_unit_columns_of_finite_order_need_no_basis():
    # (Z + Z/10^30, <(0, 1)>): the only relation, 10^30 times (0, 1), lies
    # past the cap, yet a column of finite order is a unit
    solver = NonnegSolver([[0], [1]], [[0], [10 ** 30]])
    assert solver.unit_columns == (0,)
    assert solver.relations is None
    # on Z + Z/4 the periodic (0, 1) is a unit and (1, 0), (1, 1) are not,
    # as the support of the Hilbert basis says
    A, B = [[1, 0, 1], [0, 1, 1]], [[0], [4]]
    assert NonnegSolver(A, B).unit_columns == (1,)
    assert hilbert_basis(A, B) == [(0, 4, 0)]


def test_split_relation_needs_no_basis_past_the_cap():
    # Z^2 + Z/10^30 with generators (1, 0, 0), (-1, 0, 0), (0, 1, 0) and
    # (0, 0, 1): the sum of the whole Hilbert basis lies past the cap, but
    # the period of the last column and the basis (1, 1) of the first two
    # give a relation positive on the units, so the columns still split
    A = [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    solver = NonnegSolver(A, [[0], [0], [10 ** 30]])
    assert solver.unit_columns == (0, 1, 3)
    assert solver._split is not None
    assert "relations" not in vars(solver)  # the full basis was never built
    for c in ([3, 2, 5], [-4, 0, -1], [0, 7, 10 ** 31 + 3]):
        n = solver.solve(c)
        assert min(n) >= 0
        assert mat_vec(A, n)[:2] == c[:2]
        assert (n[3] - c[2]) % 10 ** 30 == 0
    assert solver.solve([3, -1, 5]) is None


def test_nonneg_randomized_cross_validation():
    """Randomized agreement with brute force, congruence slots included.

    Brute force only certifies feasibility (its box is truncated), so the
    checks are: brute-feasible implies solver-feasible, and every solver
    witness actually solves the system.
    """
    from preordgrp.intlinalg import solve as zsolve
    rng = random.Random(977)
    for trial in range(60):
        m = rng.randint(1, 3)
        t = rng.randint(1, 2)
        u = rng.randint(0, 1)
        A = [[rng.randint(-3, 3) for _ in range(t)] for _ in range(m)]
        B = [[rng.choice([0, 2, 3, 4]) for _ in range(u)] for _ in range(m)]
        solver = NonnegSolver(A, B)

        def feasible_residual(resid):
            if u:
                return zsolve(B, resid) is not None
            return all(r == 0 for r in resid)

        for _ in range(3):
            c = [rng.randint(-5, 5) for _ in range(m)]
            w = solver.solve(c)
            if w is not None:
                assert all(x >= 0 for x in w)
                resid = [c[i] - sum(A[i][j] * w[j] for j in range(t))
                         for i in range(m)]
                assert feasible_residual(resid)
            else:
                for n in itertools.product(range(6), repeat=t):
                    resid = [c[i] - sum(A[i][j] * n[j] for j in range(t))
                             for i in range(m)]
                    assert not feasible_residual(resid), (A, B, c, n)


def _minimal_members_in_box(E, congs, t, box):
    """Minimal nonzero n in [0, box]^t with E n = 0 and c.n = 0 mod d; a
    member below one in the box is in the box, so these are exactly the
    Hilbert basis elements inside it."""
    members = [n for n in itertools.product(range(box + 1), repeat=t)
               if any(n)
               and all(sum(a * x for a, x in zip(row, n)) == 0 for row in E)
               and all(sum(a * x for a, x in zip(row, n)) % d == 0
                       for row, d in congs)]
    return {n for n in members
            if not any(m != n and all(a <= b for a, b in zip(m, n))
                       for m in members)}


def test_hilbert_basis_matches_brute_force():
    rng = random.Random(20)
    for trial in range(40):
        t = rng.randint(1, 5)
        E = [[rng.randint(-3, 3) for _ in range(t)]
             for _ in range(rng.randint(0, 1))]
        congs = [([rng.randint(-3, 3) for _ in range(t)], rng.choice([2, 3, 4]))
                 for _ in range(rng.randint(1, 2))]
        # congruence rows carry a free column d, equality rows none
        A = E + [row for row, _ in congs]
        B = [[0] * len(congs) for _ in E]
        B += [[d if j == i else 0 for j in range(len(congs))]
              for i, (_, d) in enumerate(congs)]
        basis = hilbert_basis(A, B)
        box = 6 if t <= 4 else 4
        assert {n for n in basis if max(n) <= box} == \
            _minimal_members_in_box(E, congs, t, box), (E, congs)
        for n in basis:
            assert len(n) == t and any(n)
            assert all(sum(a * x for a, x in zip(row, n)) == 0 for row in E)
            assert all(sum(a * x for a, x in zip(row, n)) % d == 0
                       for row, d in congs)


def test_hilbert_basis_without_rows_is_the_unit_vectors():
    assert hilbert_basis([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == [(1, 0), (0, 1)]


def test_hilbert_basis_cap():
    # the only basis element (40000, 1) lies past the frontier cap
    assert hilbert_basis([[1, -40000]], [[]]) is None


def _lineality_system(rng):
    """Generators on Z^r, maybe plus Z/d, with entries in [-2, 2] and a
    lineality part: one or two generators come with their negatives."""
    from preordgrp.groups import make_fgab_group
    G = make_fgab_group(rng.randint(1, 2),
                        [rng.choice([2, 3, 4])] if rng.random() < 0.5 else [])
    gens = []
    for _ in range(rng.randint(1, 2)):
        g = G.elem([rng.randint(-2, 2) for _ in range(G.ncoords)])
        gens += [g, -g]
    gens += [G.elem([rng.randint(-2, 2) for _ in range(G.ncoords)])
             for _ in range(rng.randint(0, 4 - len(gens)))]
    return G, gens


def test_split_solver_against_brute_force():
    """Systems with unit generators, against a box of multiplicities.

    Every point that some n in [0, 6]^t reaches must be found, and every
    witness must solve the system.  A generator is a unit when some
    vanishing combination in the box uses it; on a width-3 window the
    subgroup of those must be the units of the generated cone.
    """
    from conftest import group_window

    from preordgrp.cones import generator_cone, units
    from preordgrp.groups import subgroup
    from preordgrp.intlinalg import from_columns
    rng = random.Random(4242)
    split = 0
    for trial in range(25):
        G, gens = _lineality_system(rng)
        t, k = len(gens), G.ncoords
        rels = G.relation_columns()
        A = from_columns([list(g.coords) for g in gens], nrows=k)
        B = from_columns(rels, nrows=k) if rels else [[] for _ in range(k)]
        solver = NonnegSolver(A, B)
        reached = {}
        for n in itertools.product(range(7), repeat=t):
            x = sum((G.scale(g, v) for g, v in zip(gens, n)), G.zero)
            reached.setdefault(x, []).append(n)
        for x in set(reached) | set(group_window(G, 2)):
            w = solver.solve(list(x.coords))
            if x in reached:
                assert w is not None, (gens, x)
            if w is not None:
                assert all(v >= 0 for v in w)
                assert sum((G.scale(g, v) for g, v in zip(gens, w)),
                           G.zero) == x, (gens, x, w)
        split += solver._split is not None
        brute = subgroup(G, [g for j, g in enumerate(gens)
                             if any(n[j] for n in reached[G.zero])])
        U = units(generator_cone(G, gens))
        for x in group_window(G, 3):
            assert U.contains(x) == brute.contains(x), (gens, x)
    assert split >= 20


def _small_system(seed):
    """A n + B v = c with m <= 2 rows, t <= 4 non-negative and at most one
    free column, entries in [-3, 3]."""
    rng = random.Random(seed)
    m, t, u = rng.randint(1, 2), rng.randint(1, 4), rng.randint(0, 1)
    A = [[rng.randint(-3, 3) for _ in range(t)] for _ in range(m)]
    B = [[rng.randint(-3, 3) for _ in range(u)] for _ in range(m)]
    return A, B, [rng.randint(-3, 3) for _ in range(m)]


def _search_lines_run(solver, c):
    """Which of the two dead-end lines of ``NonnegSolver._search`` solving
    c runs: ``empty`` (a variable's window is empty) and ``backtrack``
    (every value of a variable failed)."""
    import inspect
    import sys
    src, first = inspect.getsourcelines(NonnegSolver._search)
    lines = {}
    for k, text in enumerate(src):
        if "if vhi < vlo:" in text:
            lines[first + k + 1] = "empty"
        if "assigned[j] = False" in text:
            lines[first + k] = "backtrack"
    assert len(lines) == 2
    run = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_name != "dfs":
            return None
        if event == "line" and frame.f_lineno in lines:
            run.add(lines[frame.f_lineno])
        return tracer

    outer = sys.gettrace()  # a coverage or line trace of the whole run
    sys.settrace(tracer)
    try:
        w = solver.solve(c)
    finally:
        sys.settrace(outer)
    return w, run


def test_search_dead_ends_against_brute_force():
    """The seeds below are the systems among seeds 0..3999 of
    ``_small_system`` whose search reaches an empty window or backtracks.
    Any (n, v) in [0, 6]^t x [-6, 6]^u solving one must make the solver
    find a witness, and every witness must solve it."""
    seeds = (264, 406, 476, 618, 693, 1048, 1106, 1611, 1682, 1703, 2053,
             2445, 2525, 2775, 2873, 2942, 3068, 3191, 3679, 3738, 3961)
    run = set()
    for seed in seeds:
        A, B, c = _small_system(seed)
        t, u = len(A[0]), len(B[0])
        w, lines = _search_lines_run(NonnegSolver(A, B), c)
        run |= lines
        in_box = any(
            mat_vec(A, list(n)) == [ci - sum(b * x for b, x in zip(row, v))
                                    for ci, row in zip(c, B)]
            for n in itertools.product(range(7), repeat=t)
            for v in itertools.product(range(-6, 7), repeat=u))
        if in_box:
            assert w is not None, seed
        if w is not None:
            assert all(x >= 0 for x in w)
            resid = [ci - a for ci, a in zip(c, mat_vec(A, w))]
            assert solve(B, resid) is not None if u else not any(resid), seed
    assert run == {"empty", "backtrack"}
