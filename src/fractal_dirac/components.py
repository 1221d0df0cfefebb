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
from .ifs import CONTAINMENT_TOL, LEVEL_CHUNK, IfsSystem, _box, _children, _root

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


def _near_boxes(a, b, pad):
    """Index arrays (i, j) of the boxes a = (lo, hi), each (A, n), and b, each (B, n), that come
    within pad on every axis, as rounded differences of bounds; LEVEL_CHUNK pairs (or a row) at a time."""
    (lo, hi), (lo2, hi2) = a, b
    step = max(1, LEVEL_CHUNK // len(lo2))
    near = [np.argwhere(np.all((lo[k: k + step, None] - hi2 <= pad)
                               & (lo2 - hi[k: k + step, None] <= pad), axis=2)) + [k, 0]
            for k in range(0, len(lo), step)]
    return np.concatenate(near).T


def level_one_components(ifs: IfsSystem) -> ComponentReport:
    """Components of the original vertices united with the level-one cube images."""
    cubes = _children(ifs, _root(ifs))  # row s - 1 for symbol s
    boxes, corners, m = _box(*cubes[2:]), vertex_bits(ifs.n).astype(float), ifs.num_maps
    # Both exact tests widen a cube by INTERSECT_TOL along its own axes, so its box by at most
    # sqrt(n) INTERSECT_TOL a side (a row of T has 1-norm <= sqrt(n)): a pad above 2 sqrt(n)
    # INTERSECT_TOL keeps every pair they accept (n = 1 accepts exactly 2 INTERSECT_TOL apart)
    pad = 3 * math.sqrt(ifs.n) * INTERSECT_TOL  # the excess over 2 covers float rounding
    i, j = _near_boxes(boxes, boxes, pad)
    meet = [a < b and cubes_intersect(cubes.rows(a), cubes.rows(b))
            for a, b in zip(i.tolist(), j.tolist())]
    cube, vertex = _near_boxes(boxes, (corners, corners), pad)
    inside = point_in_cube(cubes.rows(cube), corners[vertex, None])[:, 0]
    links = np.r_[np.c_[i, j][meet], np.c_[cube, m + vertex][inside]]  # items: cubes, then vertices
    label, old = np.arange(m + len(corners)), None
    while old is None or (label != old).any():  # till each item holds its component's least item
        old = label.copy()
        np.minimum.at(label, links.ravel(), old[links[:, ::-1].ravel()])
        label = label[label]
    order = np.argsort(label, kind="stable")
    components = []
    for members in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        verts = tuple(i - m for i in members.tolist() if i >= m)
        d1 = sum(v % 2 for v in verts)
        components.append(Component(cubes=tuple(i + 1 for i in members.tolist() if i < m),
                                    vertices=verts, d0=len(verts) - d1, d1=d1))
    return ComponentReport(n=ifs.n, components=tuple(components))


def vertex_closure_check(ifs: IfsSystem) -> bool:
    """True iff every unit-cube vertex is the image of a vertex under some map: scanned against the
    vertices of the cubes whose box holds it within CONTAINMENT_TOL (a box holds its cube's vertices),
    formed for at most LEVEL_CHUNK >> n candidate cubes at once."""
    cubes, corners = _children(ifs, _root(ifs)), vertex_bits(ifs.n).astype(float)
    cube, corner = _near_boxes(_box(*cubes[2:]), (corners, corners), CONTAINMENT_TOL)
    closed, step = np.zeros(len(corners), dtype=bool), max(1, LEVEL_CHUNK >> ifs.n)
    for k in range(0, len(cube), step):
        dist = np.abs(cubes.rows(cube[k: k + step]).vertices - corners[corner[k: k + step], None])
        closed[corner[k: k + step][dist.max(axis=2).min(axis=1) <= CONTAINMENT_TOL]] = True
    return bool(closed.all())
