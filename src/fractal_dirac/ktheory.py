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

from .components import ComponentReport, level_one_components
from .cube import vertex_bits
from .errors import BudgetExceededError
from .ifs import IfsSystem, compose, default_budget, iter_levels

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
        json.dump(proj.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_projection(path) -> ProjectionSpec:
    with open(path) as fh:
        return ProjectionSpec.from_json_dict(json.load(fh))


def interval_projection(k: int) -> ProjectionSpec:
    """Closed box [0, 3^-k] on the line, the standard pairing test projection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return ProjectionSpec(regions=(closed_box([0.0], [3.0**-k]),))


@dataclass(frozen=True)
class IndexReport:
    """Integer pairing value with its stabilization history."""

    value: int
    depth_used: int
    stabilized: bool
    per_depth: tuple  # partial sums by depth


def _prunable(verts, regions):
    """Cubes (rows of verts) whose subtrees stay balanced: inside one region's interior
    with a margin, or with a bounding box apart from every region (sound, not sharp)."""
    tol = MEMBERSHIP_TOL
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    swallowed = np.zeros(len(verts), dtype=bool)
    separated = np.ones(len(verts), dtype=bool)
    for box in regions:
        swallowed |= np.all((verts > box.lo + tol) & (verts < box.hi - tol), axis=(1, 2))
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
        raise BudgetExceededError(f"index pairing to depth {depth} exceeds the budget of {budget}")
    edge = float(np.min(ifs.ratios)) ** depth
    width = min(float(np.min(box.hi - box.lo)) for box in proj.regions)
    if min(edge, width) <= 2 * MEMBERSHIP_TOL:  # one face's band would reach the next vertex
        raise ValueError(f"membership is not decided at scale {min(edge, width):.3g} (smallest "
                         f"edge at depth {depth} or narrowest region), at most 2 MEMBERSHIP_TOL")
    increments = [0] * (depth + 1)
    visited = 0
    # no word budget for the engine: pruning visits fewer cubes, counted here
    sweep = iter_levels(ifs, depth, budget=float("inf"))
    block = next(sweep)
    while True:
        visited += block.e_w.size
        if visited > budget:
            raise BudgetExceededError(f"index pairing visited more than {budget} cubes")
        verts = block.vertices
        inside = proj.contains(verts.reshape(-1, ifs.n)).reshape(verts.shape[:2])
        increments[block.level] += int(inside[:, 0::2].sum()) - int(inside[:, 1::2].sum())
        try:
            block = sweep.send(~_prunable(verts, proj.regions))
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
    target = None
    for idx, comp in enumerate(report.components):
        if comp.d0 != comp.d1:
            target = idx
            break
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
    cubes = {s: compose(ifs, (s,)) for s in range(1, ifs.num_maps + 1)}

    def points_of(comp):
        pts = [cubes[s].vertices for s in comp.cubes]
        pts += [corners[v][None, :] for v in comp.vertices]
        return np.vstack(pts)

    mine = points_of(report.components[index])
    min_dist = np.inf
    for other_idx, other in enumerate(report.components):
        if other_idx == index:
            continue
        pts = points_of(other)
        dists = np.linalg.norm(mine[:, None, :] - pts[None, :, :], axis=2)
        min_dist = min(min_dist, float(dists.min()))
    margin = 0.01 if not np.isfinite(min_dist) else min_dist / 4.0
    comp = report.components[index]
    boxes = []
    for s in comp.cubes:
        verts = cubes[s].vertices
        boxes.append(closed_box(verts.min(axis=0) - margin, verts.max(axis=0) + margin))
    for v in comp.vertices:
        boxes.append(closed_box(corners[v] - margin, corners[v] + margin))
    return ProjectionSpec(regions=tuple(boxes))


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
