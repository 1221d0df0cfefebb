"""Connected components of the cube vertices together with the level-one images.

Two placed cubes are connected when their closed convex hulls intersect,
decided by feasibility of the combined half-space systems (a phase-1 linear
program over 4n inequalities).  Touching boundaries count as connected.  An
original cube vertex joins a cube when it is contained in it; vertices in no
cube form singleton components.  Vertex parity counts are taken over the
original cube vertices only.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .cube import vertex_bits
from .ifs import IfsSystem, compose

INTERSECT_TOL = 1e-9


def cube_halfspaces(placed):
    """Inequalities A x <= b cutting out a placed cube (2n rows)."""
    t = placed.transform
    b0 = placed.offset
    n = placed.n
    rows = []
    rhs = []
    for i in range(n):
        axis = t[:, i]  # i-th column: direction of the cube's i-th edge
        level = float(axis @ b0)
        rows.append(-axis)
        rhs.append(-level)
        rows.append(axis)
        rhs.append(level + placed.e_w)
    return np.array(rows), np.array(rhs)


def cubes_intersect(c1, c2) -> bool:
    """Closed-hull intersection test via phase-1 feasibility of the joint system."""
    a1, b1 = cube_halfspaces(c1)
    a2, b2 = cube_halfspaces(c2)
    a = np.vstack([a1, a2])
    b = np.concatenate([b1, b2]) + INTERSECT_TOL
    res = linprog(
        c=np.zeros(a.shape[1]),
        A_ub=a,
        b_ub=b,
        bounds=[(None, None)] * a.shape[1],
        method="highs",
    )
    return res.status == 0


def point_in_cube(placed, x) -> bool:
    """Membership of a point in the closed placed cube."""
    y = placed.transform.T @ (np.asarray(x, dtype=float) - placed.offset)
    return bool(np.all(y >= -INTERSECT_TOL) and np.all(y <= placed.e_w + INTERSECT_TOL))


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@dataclass(frozen=True)
class Component:
    """One connected piece: member cubes (by symbol) and original vertices (by index)."""

    cubes: tuple
    vertices: tuple
    d0: int  # even original vertices in the component
    d1: int  # odd original vertices in the component


@dataclass(frozen=True)
class ComponentReport:
    n: int
    components: tuple

    @property
    def count(self) -> int:
        return len(self.components)

    def parity_totals(self):
        return (
            sum(c.d0 for c in self.components),
            sum(c.d1 for c in self.components),
        )


def level_one_components(ifs: IfsSystem) -> ComponentReport:
    """Components of the original vertices united with the level-one cube images."""
    n = ifs.n
    cubes = [compose(ifs, (s,)) for s in range(1, ifs.num_maps + 1)]
    corners = vertex_bits(n).astype(float)
    num_cubes = len(cubes)
    num_vertices = corners.shape[0]
    uf = _UnionFind(num_cubes + num_vertices)
    for i in range(num_cubes):
        for j in range(i + 1, num_cubes):
            if cubes_intersect(cubes[i], cubes[j]):
                uf.union(i, j)
    for v in range(num_vertices):
        for i in range(num_cubes):
            if point_in_cube(cubes[i], corners[v]):
                uf.union(i, num_cubes + v)
    groups = {}
    for item in range(num_cubes + num_vertices):
        groups.setdefault(uf.find(item), []).append(item)
    components = []
    for root in sorted(groups):
        members = groups[root]
        cube_syms = tuple(i + 1 for i in members if i < num_cubes)
        verts = tuple(i - num_cubes for i in members if i >= num_cubes)
        d0 = sum(1 for v in verts if v % 2 == 0)
        d1 = sum(1 for v in verts if v % 2 == 1)
        components.append(Component(cubes=cube_syms, vertices=verts, d0=d0, d1=d1))
    return ComponentReport(n=n, components=tuple(components))
