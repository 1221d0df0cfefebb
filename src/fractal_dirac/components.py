"""Connected components of the cube vertices together with the level-one images.

Two placed cubes are connected when their closed convex hulls intersect, that
is when 0 lies in their Minkowski difference: a zonotope spanned by the edges
of both cubes, which a separating-axis test over its facet normals decides
exactly (Ziegler, Lectures on Polytopes, Lecture 7).  Touching boundaries
count as connected.  An original cube vertex joins a cube when it is contained
in it; vertices in no cube form singleton components.  Vertex parity counts
are taken over the original cube vertices only.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cube import vertex_bits
from .errors import CapacityError
from .ifs import IfsSystem, _children, _root

INTERSECT_TOL = 1e-9
PARALLEL_TOL = 1e-12  # edges this close up to sign give one direction for the normals
MAX_NORMALS = math.comb(16, 7)  # every candidate normal of a fully rotated pair at n = 8


def cubes_intersect(c1, c2) -> bool:
    """Closed-hull intersection test: no facet normal of c1 - c2 separates 0 from it.

    The difference has centre z0 = centre(c1) - centre(c2) and half-generators
    (e_w / 2) t over the edge directions t of both cubes.  Its facet normals are
    the normals u of n - 1 distinct directions, and 0 lies in it iff
    |u . z0| <= sum (e_w / 2 + INTERSECT_TOL) |u . t| for every u: each slab of
    both cubes widened by INTERSECT_TOL.  Axis-aligned cubes share their n
    directions, so the test is n interval overlaps.
    """
    n = c1.n
    edges = np.vstack([c1.transform.T, c2.transform.T])
    half = np.repeat([c1.e_w / 2 + INTERSECT_TOL, c2.e_w / 2 + INTERSECT_TOL], n)
    gap = np.minimum(abs(edges[:, None] - edges).max(2), abs(edges[:, None] + edges).max(2))
    dirs = edges[~np.any(np.triu(gap <= PARALLEL_TOL, 1), axis=0)]
    count = math.comb(len(dirs), n - 1)
    if count > MAX_NORMALS:
        raise CapacityError(f"{count} separating-axis normals of two n={n} cubes exceed "
                            f"the {MAX_NORMALS} of a fully rotated pair at n=8")
    subsets = np.array(list(itertools.combinations(range(len(dirs)), n - 1)), dtype=np.intp)
    # last column of a complete QR of each n x (n-1) edge block: orthogonal to all its columns
    normals = np.linalg.qr(np.swapaxes(dirs[subsets], 1, 2), mode="complete")[0][:, :, -1]
    reach = np.abs(normals @ edges.T) @ half
    return bool(np.all(np.abs(normals @ (c1.centers() - c2.centers())) <= reach))


def point_in_cube(placed, x):
    """Membership of points x (..., n) in closed placed cubes: a truth value for one
    cube and one point, else an array, a block giving one row of memberships per cube."""
    x = np.asarray(x, dtype=float)
    y = (x - placed.offset[..., None, :]) @ placed.transform  # pulled back to [0, e_w]^n
    e_w = np.asarray(placed.e_w)[..., None, None]
    inside = np.all((y >= -INTERSECT_TOL) & (y <= e_w + INTERSECT_TOL), axis=-1)
    return bool(inside[0]) if x.ndim == placed.offset.ndim == 1 else inside


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


def level_one_components(ifs: IfsSystem) -> ComponentReport:
    """Components of the original vertices united with the level-one cube images."""
    cubes = _children(ifs, _root(ifs))  # row s - 1 for symbol s
    corners = vertex_bits(ifs.n).astype(float)
    m = ifs.num_maps
    parent = list(range(m + len(corners)))  # cubes, then vertices; a root is its least item

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    links = [(i, j) for i, j in np.transpose(np.triu_indices(m, 1)).tolist()
             if cubes_intersect(cubes.rows(i), cubes.rows(j))]
    vertex, cube = np.nonzero(point_in_cube(cubes, corners).T)
    links += zip(cube.tolist(), (m + vertex).tolist())
    for i, j in links:
        low, high = sorted((root(i), root(j)))
        parent[high] = low
    groups = {}
    for item in range(len(parent)):
        groups.setdefault(root(item), []).append(item)
    components = []
    for members in groups.values():
        verts = tuple(i - m for i in members if i >= m)
        d1 = sum(v % 2 for v in verts)
        components.append(Component(cubes=tuple(i + 1 for i in members if i < m),
                                    vertices=verts, d0=len(verts) - d1, d1=d1))
    return ComponentReport(n=ifs.n, components=tuple(components))
