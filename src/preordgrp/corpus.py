"""The bundled test corpus: a fixed, reproducible set of preordered groups.

Finite side: the groups Z/2, Z/3, Z/4, Z/2 x Z/2, S3, D4, Q8, Z/6, each
paired with every one of its positive cones (its normal subgroups).
Infinite side: eight f.g. abelian objects over Z and Z^2 covering the
total, discrete, reduced and mixed cone shapes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cones import generator_cone, total_cone
from .groups import cyclic_group, make_fgab_group, make_finite_group
from .pog import PreorderedGroup


def klein_four_group():
    """Z/2 x Z/2 with elements named by coordinate pairs."""
    pairs = [(a, b) for a in range(2) for b in range(2)]
    idx = {p: i for i, p in enumerate(pairs)}
    table = [[idx[((a1 + a2) % 2, (b1 + b2) % 2)] for (a2, b2) in pairs]
             for (a1, b1) in pairs]
    return make_finite_group([f"{a}{b}" for a, b in pairs], table)


def symmetric_group_3():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = [[idx[mul(p, q)] for q in perms] for p in perms]
    return make_finite_group(["".join(map(str, p)) for p in perms], table)


def dihedral_group_4():
    """Symmetries of the square: r^i s^j with r^4 = s^2 = e, s r s = r^-1."""
    els = [(i, j) for j in range(2) for i in range(4)]
    idx = {e: i for i, e in enumerate(els)}

    def mul(a, b):
        i, j = a
        k, l = b
        # (r^i s^j)(r^k s^l) = r^(i + k*(-1)^j) s^(j+l)
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    table = [[idx[mul(a, b)] for b in els] for a in els]
    names = [f"r{i}" if j == 0 else f"r{i}s" for i, j in els]
    return make_finite_group(names, table)


def quaternion_group():
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {n: (-1 if n.startswith("-") else 1) for n in names}
    unit = {n: n.lstrip("-") for n in names}
    mul_table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def mul(a, b):
        s, u = mul_table[(unit[a], unit[b])]
        s *= sign[a] * sign[b]
        return ("-" if s < 0 else "") + u

    idx = {n: i for i, n in enumerate(names)}
    table = [[idx[mul(a, b)] for b in names] for a in names]
    return make_finite_group(names, table)


@lru_cache(maxsize=1)
def finite_corpus_groups():
    return {
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "V4": klein_four_group(),
        "S3": symmetric_group_3(),
        "D4": dihedral_group_4(),
        "Q8": quaternion_group(),
        "Z6": cyclic_group(6),
    }


@lru_cache(maxsize=1)
def finite_corpus_objects():
    """Every finite corpus group with each of its cones, named."""
    from .oracle import enumerate_cones
    out = {}
    for gname, G in finite_corpus_groups().items():
        for i, cone in enumerate(enumerate_cones(G)):
            out[f"{gname}/cone{i}"] = PreorderedGroup(G, cone)
    return out


@lru_cache(maxsize=1)
def fgab_corpus_objects():
    Z = make_fgab_group(1, [])
    Z2 = make_fgab_group(2, [])
    e = Z2.elem
    return {
        "Z_nat": PreorderedGroup(Z, generator_cone(Z, [Z.elem([1])])),
        "Z_total": PreorderedGroup(Z, total_cone(Z)),
        "Z_discrete": PreorderedGroup(Z, generator_cone(Z, [])),
        "Z2_nat2": PreorderedGroup(Z2, generator_cone(Z2, [e([1, 0]), e([0, 1])])),
        "Z2_skew": PreorderedGroup(Z2, generator_cone(Z2, [e([1, 0]), e([1, 1])])),
        "Z2_allunits": PreorderedGroup(
            Z2, generator_cone(Z2, [e([1, 0]), e([0, 1]), e([-1, -1])])),
        "Z2_halfplane_units": PreorderedGroup(
            Z2, generator_cone(Z2, [e([2, 0]), e([-1, 0]), e([0, 1])])),
        "Z2_ZxN": PreorderedGroup(
            Z2, generator_cone(Z2, [e([1, 0]), e([-1, 0]), e([0, 1])])),
    }


@lru_cache(maxsize=1)
def corpus_objects():
    out = dict(finite_corpus_objects())
    out.update(fgab_corpus_objects())
    return out


def finite_corpus_objects_up_to(order):
    return {name: P for name, P in finite_corpus_objects().items()
            if P.group.order() <= order}
