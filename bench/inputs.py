"""Seeded inputs for the benchmark, built without the package under test.

Finite groups come from permutations and direct products; their cones are
their normal subgroups (on a finite group a submonoid is a subgroup, so the
positive cones are exactly the normal subgroups).  The seed relabels the
elements of every finite group, names every entity and picks the cones of
the finite morphisms, so two seeds give isomorphic workspaces with the same
amount of work.

Regenerate the CLI workspaces of a seed into a directory:

    python3 bench/inputs.py --seed 7 --out /tmp/ws7
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# finite groups as Cayley tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableGroup:
    """A finite group as a Cayley table over element indices 0..n-1."""

    names: tuple
    table: tuple

    @property
    def order(self):
        return len(self.names)

    @property
    def identity(self):
        n = self.order
        return next(e for e in range(n)
                    if all(self.table[e][x] == x for x in range(n)))

    def inverse(self, a):
        e = self.identity
        return next(b for b in range(self.order) if self.table[a][b] == e)


def perm_group(generators):
    """The permutation group generated by the given permutations, with
    elements in breadth-first order from the identity."""
    degree = len(generators[0])
    identity = tuple(range(degree))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(degree))]
                        for q in elements) for p in elements)
    return TableGroup(tuple(f"x{i}" for i in range(len(elements))), table), elements


def cyclic(n):
    return perm_group([tuple((i + 1) % n for i in range(n))])


def dihedral(n):
    """Symmetries of the regular n-gon, acting on its vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return perm_group([rot, ref])


def product(A, B):
    """Direct product; element (a, b) has index a * |B| + b."""
    nb = B.order
    table = tuple(tuple(A.table[a1][a2] * nb + B.table[b1][b2]
                        for a2 in range(A.order) for b2 in range(nb))
                  for a1 in range(A.order) for b1 in range(nb))
    return TableGroup(tuple(f"x{i}" for i in range(A.order * nb)), table)


def closure(G, gens):
    """Subgroup generated by the given indices (finite: closure under +)."""
    sub = {G.identity} | set(gens)
    while True:
        new = {G.table[a][b] for a in sub for b in sub} | sub
        if new == sub:
            return frozenset(sub)
        sub = new


def is_normal(G, S):
    inv = [G.inverse(g) for g in range(G.order)]
    return all(G.table[G.table[g][x]][inv[g]] in S
               for g in range(G.order) for x in S)


def normal_subgroups(G):
    """Every normal subgroup, sorted by size then by sorted members."""
    subs = {closure(G, [g]) for g in range(G.order)}
    while True:
        joins = {closure(G, a | b) for a in subs for b in subs} | subs
        if joins == subs:
            break
        subs = joins
    normal = [S for S in subs if is_normal(G, S)]
    return sorted(normal, key=lambda S: (len(S), sorted(S)))


def relabel(G, rng):
    """An isomorphic copy with shuffled element indices and fixed-width
    names; returns the copy and the old -> new index map."""
    n = G.order
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    table = tuple(tuple(perm[G.table[inv[a]][inv[b]]] for b in range(n))
                  for a in range(n))
    return TableGroup(tuple(f"e{i:02d}" for i in range(n)), table), perm


# ---------------------------------------------------------------------------
# the CLI workspaces
# ---------------------------------------------------------------------------

def _vertex_pairs_map(big, small, fold):
    """Hom between permutation groups induced on the classes i -> i mod fold."""
    index = {p: i for i, p in enumerate(small)}
    return [index[tuple(p[i] % fold for i in range(fold))] for p in big]


def _quaternion_perms():
    """Left multiplication by i and by j on the eight units +-1, +-i, +-j,
    +-k; unit (sign, b) with b in 1, i, j, k has index 2 * b + sign."""
    # b1 * b2 = sign * basis, for basis indices 0 = 1, 1 = i, 2 = j, 3 = k
    mul = {(0, b): (0, b) for b in range(4)}
    mul.update({(b, 0): (0, b) for b in range(4)})
    mul.update({(b, b): (1, 0) for b in range(1, 4)})
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        mul[(a, b)] = (0, c)
        mul[(b, a)] = (1, c)

    def left(q):
        perm = []
        for x in range(8):
            s, b = mul[(q, x // 2)]
            perm.append(2 * b + (s ^ (x % 2)))
        return tuple(perm)

    return [left(1), left(2)]


def _finite_catalogue():
    """Groups of order 4 to 16 plus structural homs between them.

    Returns {name: TableGroup} and a list of (name, dom, cod, images) with
    images in the unrelabeled element order.
    """
    D4, d4_perms = dihedral(4)
    D8, d8_perms = dihedral(8)
    Z4, z4_perms = cyclic(4)
    Z2, _ = cyclic(2)
    A4, _ = perm_group([(1, 2, 0, 3), (1, 0, 3, 2)])
    # Z/3 x| Z/4: a = (0 1 2), x = (1 2)(3 4 5 6) with x a x^-1 = a^-1
    Dic12, dic_perms = perm_group([(1, 2, 0, 3, 4, 5, 6),
                                   (0, 2, 1, 4, 5, 6, 3)])
    Q8, _ = perm_group(_quaternion_perms())
    Z2D4 = product(Z2, D4)
    Z4Z2 = product(Z4, Z2)
    groups = {"D4": D4, "D8": D8, "Z4": Z4, "A4": A4, "Dic12": Dic12,
              "Q8": Q8, "Z2D4": Z2D4, "Z4Z2": Z4Z2}
    homs = [
        # D8 -> D4: the action on the four pairs of opposite vertices
        ("fold", "D8", "D4", _vertex_pairs_map(d8_perms, d4_perms, 4)),
        # Dic12 -> Z4: the action on the points 3..6
        ("top", "Dic12", "Z4",
         [{p: i for i, p in enumerate(z4_perms)}[
             tuple(q[3 + i] - 3 for i in range(4))] for q in dic_perms]),
        ("proj", "Z2D4", "D4", [i % D4.order for i in range(Z2D4.order)]),
        ("incl", "D4", "Z2D4", [i for i in range(D4.order)]),
        ("proj", "Z4Z2", "Z4", [i // 2 for i in range(Z4Z2.order)]),
        ("ident", "Q8", "Q8", list(range(Q8.order))),
        ("zero", "A4", "D4", [0] * A4.order),
    ]
    return groups, homs


# f.g. abelian shapes: (rank, generators) as in the package's own corpus
FGAB_SHAPES = {
    "Z_nat": (1, [[1]]),
    "Z_total": (1, [[1], [-1]]),
    "Z_discrete": (1, []),
    "Z2_nat2": (2, [[1, 0], [0, 1]]),
    "Z2_skew": (2, [[1, 0], [1, 1]]),
    "Z2_allunits": (2, [[1, 0], [0, 1], [-1, -1]]),
    "Z2_halfplane_units": (2, [[2, 0], [-1, 0], [0, 1]]),
    "Z2_ZxN": (2, [[1, 0], [-1, 0], [0, 1]]),
}

# fgab morphisms: (dom shape, cod shape, "free" block rows)
FGAB_MORPHISMS = [
    ("Z_nat", "Z_nat", [[2]]),
    ("Z2_nat2", "Z_nat", [[1, 1]]),
    ("Z2_skew", "Z2_nat2", [[1, 0], [0, 1]]),
    ("Z2_ZxN", "Z_nat", [[0, 1]]),
    ("Z2_allunits", "Z_total", [[1, -1]]),
    ("Z2_halfplane_units", "Z2_ZxN", [[1, 0], [0, 1]]),
]

# The two objects whose commands do not finish (kept as failures)
CRAWL_CLASSIFY = [[-1, 1], [1, -1], [2, -2], [-1, 0]]
CRAWL_COVER = [[1, 2], [-2, -1]]


@dataclass
class FiniteObject:
    group: str
    members: frozenset


@dataclass
class FiniteMorphism:
    dom: str          # object name
    cod: str
    images: list      # relabeled codomain index per relabeled domain index


@dataclass
class FgabObject:
    rank: int
    generators: list


@dataclass
class FgabMorphism:
    dom: str
    cod: str
    free: list


@dataclass
class Workspace:
    """One generated workspace: the JSON document and the benchmark's own
    view of every entity, used by the checks."""

    document: dict
    groups: dict            # name -> TableGroup (finite) or rank (fgab)
    objects: dict           # name -> FiniteObject | FgabObject
    morphisms: dict         # name -> FiniteMorphism | FgabMorphism
    # seed-independent views, in catalogue order (main workspace only)
    cones_of: dict = None   # catalogue group -> object names, by cone size
    shapes: dict = None     # fgab shape -> object name


def _name(rng, prefix, taken):
    while True:
        name = f"{prefix}{rng.randrange(1000):03d}"
        if name not in taken:
            taken.add(name)
            return name


def _map_preserves(images, dom_members, cod_members):
    return all(images[x] in cod_members for x in dom_members)


def main_workspace(seed):
    """The seeded workspace for every CLI command except ``oracle``."""
    rng = random.Random(seed)
    base, homs = _finite_catalogue()
    taken = set()
    groups, objects, morphisms, relabels = {}, {}, {}, {}
    group_names = {}
    cones_of = {}
    for gname in sorted(base):
        G, perm = relabel(base[gname], rng)
        name = _name(rng, "G", taken)
        group_names[gname] = name
        groups[name] = G
        relabels[gname] = perm
        cones_of[gname] = []
        # ordered on the unrelabeled group, so the order is seed-independent
        for S in normal_subgroups(base[gname]):
            oname = _name(rng, "P", taken)
            objects[oname] = FiniteObject(name, frozenset(perm[x] for x in S))
            cones_of[gname].append(oname)
    # one codomain object per codomain group, so that morphisms into the
    # same group share it and can be pulled back
    cod_object = {cod: rng.choice(cones_of[cod]) for cod in
                  sorted({h[2] for h in homs})}
    for hname, dom, cod, images in homs:
        pd, pc = relabels[dom], relabels[cod]
        mapped = [0] * len(images)
        for x, y in enumerate(images):
            mapped[pd[x]] = pc[y]
        b = cod_object[cod]
        a = rng.choice([a for a in cones_of[dom] if _map_preserves(
            mapped, objects[a].members, objects[b].members)])
        morphisms[_name(rng, f"m_{hname}_", taken)] = FiniteMorphism(a, b, mapped)
    fg_names = {}
    for shape in sorted(FGAB_SHAPES):
        rank, gens = FGAB_SHAPES[shape]
        oname = _name(rng, "F", taken)
        fg_names[shape] = oname
        objects[oname] = FgabObject(rank, gens)
    for dom, cod, free in FGAB_MORPHISMS:
        morphisms[_name(rng, "f", taken)] = FgabMorphism(
            fg_names[dom], fg_names[cod], free)
    ws = _assemble(groups, objects, morphisms)
    ws.cones_of = cones_of
    ws.shapes = fg_names
    return ws


def small_workspace(seed):
    """A workspace of groups of order <= 6 for the ``oracle`` command, whose
    test objects are every object of the workspace."""
    rng = random.Random(seed + 1)
    taken = set()
    Z2, _ = cyclic(2)
    Z4, _ = cyclic(4)
    S3, s3_perms = perm_group([(1, 2, 0), (1, 0, 2)])
    base = {"Z2": Z2, "Z4": Z4, "S3": S3}
    groups, objects, names, cones_of = {}, {}, {}, {}
    for gname in sorted(base):
        G = base[gname]
        names[gname] = _name(rng, "G", taken)
        groups[names[gname]] = G
        cones_of[gname] = []
        for S in normal_subgroups(G):
            oname = _name(rng, "P", taken)
            objects[oname] = FiniteObject(names[gname], S)
            cones_of[gname].append(oname)
    # reduction Z4 -> Z2 and the sign map S3 -> Z2
    z4_z2 = [i % 2 for i in range(4)]
    sign = [_parity(p) for p in s3_perms]
    morphisms = {}
    for hname, dom, cod, images in (("red", "Z4", "Z2", z4_z2),
                                    ("sign", "S3", "Z2", sign)):
        choices = [(a, b) for a in cones_of[dom] for b in cones_of[cod]
                   if _map_preserves(images, objects[a].members,
                                     objects[b].members)]
        a, b = rng.choice(choices)
        morphisms[_name(rng, f"m_{hname}_", taken)] = FiniteMorphism(a, b, images)
    return _assemble(groups, objects, morphisms)


def _parity(p):
    seen, parity = set(), 0
    for i in range(len(p)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def faults_workspace():
    """The two Z^2 objects whose commands crawl; independent of the seed."""
    groups = {"Z2": 2}
    objects = {"crawl_classify": FgabObject(2, CRAWL_CLASSIFY),
               "crawl_cover": FgabObject(2, CRAWL_COVER)}
    return _assemble(groups, objects, {})


def _assemble(groups, objects, morphisms):
    doc = {"groups": {}, "cones": {}, "objects": {}, "morphisms": {}}
    fgab_group = {}
    for name, G in groups.items():
        if isinstance(G, TableGroup):
            doc["groups"][name] = {"kind": "finite",
                                   "elements": list(G.names),
                                   "table": [list(r) for r in G.table]}
    for oname, obj in objects.items():
        if isinstance(obj, FiniteObject):
            G = groups[obj.group]
            doc["cones"][f"c_{oname}"] = {
                "group": obj.group,
                "elements": [G.names[i] for i in sorted(obj.members)]}
            gname = obj.group
        else:
            gname = fgab_group.get(obj.rank)
            if gname is None:
                gname = fgab_group[obj.rank] = f"Zr{obj.rank}"
                doc["groups"][gname] = {"kind": "fgab", "rank": obj.rank,
                                        "torsion": []}
                groups[gname] = obj.rank
            doc["cones"][f"c_{oname}"] = {"group": gname,
                                          "generators": obj.generators}
        doc["objects"][oname] = {"group": gname, "cone": f"c_{oname}"}
    for mname, m in morphisms.items():
        spec = {"from": m.dom, "to": m.cod}
        if isinstance(m, FiniteMorphism):
            spec["map"] = list(m.images)
        else:
            spec["matrix"] = {"free": m.free, "mixed": [], "torsion": []}
        doc["morphisms"][mname] = spec
    return Workspace(doc, groups, objects, morphisms)


# Malformed documents the CLI must reject with "error:" and exit 1
MALFORMED = {
    "groups_list": {"groups": []},
    "rank_string": {"groups": {"Z": {"kind": "fgab", "rank": "1",
                                     "torsion": []}}},
}


def write_workspaces(seed, out_dir):
    """Write every CLI input of a seed; returns {label: (path, Workspace)}."""
    os.makedirs(out_dir, exist_ok=True)
    made = {"main": main_workspace(seed), "small": small_workspace(seed),
            "faults": faults_workspace()}
    out = {}
    for label, ws in made.items():
        path = os.path.join(out_dir, f"ws_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ws.document, fh, sort_keys=True)
        out[label] = (path, ws)
    for label, doc in MALFORMED.items():
        path = os.path.join(out_dir, f"bad_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out[label] = (path, None)
    return out


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args()
    for label, (path, _) in sorted(write_workspaces(args.seed, args.out).items()):
        print(label, path)


if __name__ == "__main__":
    _main()
