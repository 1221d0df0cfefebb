"""Integer index pairings between the graded module and box projections.

A projection supported on a union of axis-aligned boxes pairs with the module
by summing, over all words, the number of even placed-cube vertices inside
the support minus the number of odd ones.  Cubes guaranteed entirely inside a
single region's interior, or entirely outside the closed union, are balanced
along with all their descendants and are pruned.  Boundary membership is
decided exactly through per-face open/closed flags.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .components import ComponentReport, _near_boxes, level_one_components
from .cube import vertex_bits
from .errors import BudgetExceededError
from .ifs import LEVEL_CHUNK, IfsSystem, _box, _children, _json_text, _root, _shown, _sweep, default_budget

MEMBERSHIP_TOL = 1e-12
STABILITY_WINDOW = 3  # final depths whose increments must all vanish
CERTIFICATE_DEPTH = 4  # pairing depth of a nonvanishing certificate


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-face open/closed flags."""

    lo: np.ndarray
    hi: np.ndarray
    lo_closed: np.ndarray
    hi_closed: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        lc = np.asarray(self.lo_closed, dtype=bool)
        hc = np.asarray(self.hi_closed, dtype=bool)
        if not (lo.shape == hi.shape == lc.shape == hc.shape) or lo.ndim != 1:
            raise ValueError("box fields must be flat arrays of one common length")
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
            raise ValueError("box bounds must be finite, lower bounds at most upper bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_closed", lc)
        object.__setattr__(self, "hi_closed", hc)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership of row points, honoring the face flags."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = MEMBERSHIP_TOL
        above = np.where(self.lo_closed, pts >= self.lo - tol, pts > self.lo + tol)
        below = np.where(self.hi_closed, pts <= self.hi + tol, pts < self.hi - tol)
        return np.all(above & below, axis=1)


def closed_box(lo, hi) -> Box:
    lo = np.asarray(lo, dtype=float)
    return Box(lo=lo, hi=np.asarray(hi, dtype=float),
               lo_closed=np.ones(lo.shape, dtype=bool), hi_closed=np.ones(lo.shape, dtype=bool))


@dataclass(frozen=True)
class ProjectionSpec:
    """Indicator of a finite union of boxes."""

    regions: tuple

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ValueError("a projection needs at least one region")
        if len({box.lo.shape for box in self.regions}) != 1:
            raise ValueError("all regions of a projection must have one dimension")
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n(self) -> int:
        return self.regions[0].lo.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for box in self.regions:
            inside |= box.contains(pts)
        return inside

    def to_json_dict(self) -> dict:
        return {
            "regions": [
                {
                    "lo": [float(x) for x in b.lo],
                    "hi": [float(x) for x in b.hi],
                    "lo_closed": [bool(x) for x in b.lo_closed],
                    "hi_closed": [bool(x) for x in b.hi_closed],
                }
                for b in self.regions
            ]
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ProjectionSpec":
        try:
            regions = tuple(
                Box(
                    lo=np.asarray(r["lo"], dtype=float),
                    hi=np.asarray(r["hi"], dtype=float),
                    lo_closed=np.asarray(r["lo_closed"], dtype=bool),
                    hi_closed=np.asarray(r["hi_closed"], dtype=bool),
                )
                for r in doc["regions"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed projection document: {exc}") from exc
        return ProjectionSpec(regions=regions)


def save_projection(proj: ProjectionSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(proj.to_json_dict()))


def load_projection(path) -> ProjectionSpec:
    with open(path) as fh:
        return ProjectionSpec.from_json_dict(json.load(fh))


def interval_projection(k: int) -> ProjectionSpec:
    """Closed box [0, 3^-k] on the line, the standard pairing test projection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # 3.0**-k is 0.0 from k = 679 on, a width index_pairing refuses; a k past 10^308 is no float
    return ProjectionSpec(regions=(closed_box([0.0], [3.0 ** -min(k, 1024)]),))


@dataclass(frozen=True)
class IndexReport:
    """Integer pairing value with its stabilization history."""

    value: int
    depth_used: int
    stabilized: bool
    per_depth: tuple  # partial sums by depth


def _prunable(lo, hi, regions):
    """Cubes (rows of their exact vertex bounds lo, hi) whose subtrees stay balanced: inside one
    region's interior with a margin, or with a box apart from every region (sound, not sharp)."""
    tol = MEMBERSHIP_TOL
    swallowed = np.zeros(len(lo), dtype=bool)
    separated = np.ones(len(lo), dtype=bool)
    for box in regions:
        swallowed |= np.all((lo > box.lo + tol) & (hi < box.hi - tol), axis=1)
        separated &= np.any(hi < box.lo - tol, axis=1) | np.any(lo > box.hi + tol, axis=1)
    return swallowed | separated


def index_pairing(
    ifs: IfsSystem,
    proj: ProjectionSpec,
    depth: int,
    budget: int | None = None,
) -> IndexReport:
    """Pairing of the module with a box projection, summed to the cutoff depth.

    Each word contributes (even placed vertices in the support) minus (odd
    ones); balanced cubes that are geometrically guaranteed to stay balanced
    are pruned with their descendants, level by level.  budget bounds the
    visited cubes.  stabilized records whether the partial sums were constant
    over the final STABILITY_WINDOW depths; a non-stabilized result is still
    returned, never silently truncated.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if proj.n != ifs.n:
        raise ValueError("projection dimension does not match the system")
    if budget is None:
        budget = default_budget()
    if depth + 1 > budget:  # before the per-depth table below
        raise BudgetExceededError(f"index pairing to depth {_shown(depth)} exceeds the budget of {budget}")
    scale, name = min((float(np.min(ifs.ratios)) ** depth, f"the smallest edge at depth {depth}"),
                      (min(float(np.min(box.hi - box.lo)) for box in proj.regions), "the narrowest region"))
    if scale <= 2 * MEMBERSHIP_TOL:  # one face's band would reach the next vertex
        raise ValueError(f"membership is not decided at scale {scale:.3g} ({name}), at most 2 MEMBERSHIP_TOL")
    increments = [0] * (depth + 1)
    visited = 0
    # no word budget for the engine: pruning visits fewer cubes, counted here
    sweep = _sweep(ifs, _root(ifs), depth)
    block = next(sweep)
    while True:
        visited += block.e_w.size
        if visited > budget:
            raise BudgetExceededError(f"index pairing visited more than {budget} cubes")
        cut = ~_prunable(*_box(*block[2:]), proj.regions)  # a pruned cube's count is 0
        verts = block.rows(cut).vertices
        inside = proj.contains(verts.reshape(-1, ifs.n)).reshape(verts.shape[:2])
        increments[block.level] += int(inside[:, 0::2].sum()) - int(inside[:, 1::2].sum())
        try:
            block = sweep.send(cut)
        except StopIteration:
            break
    partial = list(accumulate(increments))
    tail = increments[max(0, depth - STABILITY_WINDOW + 1): depth + 1]
    stabilized = len(tail) == STABILITY_WINDOW and all(t == 0 for t in tail)
    return IndexReport(
        value=partial[-1],
        depth_used=depth,
        stabilized=stabilized,
        per_depth=tuple(partial),
    )


@dataclass(frozen=True)
class NonvanishCertificate:
    """A parity-unbalanced component with its induced projection and pairing."""

    component_index: int
    d0: int
    d1: int
    projection: ProjectionSpec
    pairing: int
    pairing_matches: bool


def nonvanish_certificate(
    ifs: IfsSystem, budget: int | None = None
) -> NonvanishCertificate | None:
    """First level-one component with unequal vertex parity counts, if any.

    The induced projection is a padded box neighborhood of the component; the
    pairing on it is computed and compared against d0 - d1.
    """
    return component_certificate(ifs, level_one_components(ifs), budget=budget)


def component_certificate(
    ifs: IfsSystem, report: ComponentReport, budget: int | None = None
) -> NonvanishCertificate | None:
    """nonvanish_certificate from the level-one components already computed in report."""
    target = next((k for k, comp in enumerate(report.components) if comp.d0 != comp.d1), None)
    if target is None:
        return None
    comp = report.components[target]
    proj = component_projection(ifs, report, target)
    pairing = index_pairing(ifs, proj, CERTIFICATE_DEPTH, budget=budget)
    return NonvanishCertificate(
        component_index=target,
        d0=comp.d0,
        d1=comp.d1,
        projection=proj,
        pairing=pairing.value,
        pairing_matches=(pairing.value == comp.d0 - comp.d1),
    )


def component_projection(ifs: IfsSystem, report, index: int) -> ProjectionSpec:
    """Box neighborhood of one component, padded by a margin below the
    point-set separation from every other component."""
    corners = vertex_bits(ifs.n).astype(float)
    cubes = _children(ifs, _root(ifs))  # row s - 1: the cube of symbol s
    comp, m = report.components[index], len(cubes.e_w)
    own = [s - 1 for s in comp.cubes] + [m + v for v in comp.vertices]  # item rows
    mine = np.vstack([cubes.rows(np.array(comp.cubes, dtype=int) - 1).vertices.reshape(-1, ifs.n),
                      corners[list(comp.vertices)]])
    lo, hi = (np.vstack([side, corners]) for side in _box(*cubes[2:]))
    box = lo[own].min(0)[None], hi[own].max(0)[None]  # the component's bounding box
    # the other items, nearest box first: a box gap bounds point distances below, so the first gap
    # past pad ends the scan; a pair within pad is so on every axis: only points near the other box count
    gap = np.linalg.norm(np.maximum(np.maximum(lo - box[1], box[0] - hi), 0.0), axis=1)
    gap[own] = np.inf  # the component's own items sort last and are left out
    min_dist, step = np.inf, max(1, LEVEL_CHUNK >> ifs.n)
    for k in np.argsort(gap, kind="stable")[: len(gap) - len(own)]:
        if gap[k] > (pad := min_dist + 1e-12):  # past the rounding of both, coordinates in [0, 1], n <= 12
            break
        pts = cubes.rows(slice(k, k + 1)).vertices[0] if k < m else corners[k - m, None]
        near = _near_boxes((lo[k, None], hi[k, None]), (mine, mine), pad)[1]
        pts = pts[_near_boxes(box, (pts, pts), pad)[1]]
        for a in range(0, len(near), step):  # at most step of the own points at once
            dists = np.linalg.norm(mine[near[a: a + step], None, :] - pts[None, :, :], axis=2)
            min_dist = min(min_dist, float(dists.min(initial=np.inf)))
    margin = 0.01 if not np.isfinite(min_dist) else min_dist / 4.0
    return ProjectionSpec(regions=tuple(closed_box(lo[k] - margin, hi[k] + margin) for k in own))


def connes_gap_pairing(k: int, depth: int) -> int:
    """Pairing of the gap-interval module with the closed box [0, 3^-k].

    Gap endpoints are exact triadic rationals, so boundary membership is
    decided exactly.  The left endpoint of each gap carries the even grading.
    A kept interval not straddling 3^-k adds 1 - 1 or 0 - 0 for each gap it
    and its descendants hold, so it is dropped: the sweep is O(depth).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > depth:
        raise ValueError(f"k={k} exceeds the enumeration depth {depth}")
    cutoff = Fraction(1, 3**k)
    kept = [(Fraction(0), Fraction(1))]
    total = 0
    for _ in range(depth):
        next_kept = []
        for a, b in kept:
            third = (b - a) / 3
            total += int(a + third <= cutoff) - int(b - third <= cutoff)
            halves = ((a, a + third), (b - third, b))
            next_kept += [(lo, hi) for lo, hi in halves if lo < cutoff < hi]
        kept = next_kept
    return total
