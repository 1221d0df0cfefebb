"""Iterated function systems of contracting similitudes on the unit n-cube.

Words over the symbol alphabet 1..N compose similitudes left to right (first
symbol outermost) into placed cubes carrying the product ratio, the composed
orthogonal part, and the composed translation.  iter_levels streams them as
arrays, at most LEVEL_CHUNK words of one length a block, so deep sums run in
bounded memory; a configurable budget bounds the number of placed cubes visited.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .calculus import _check_orthogonal
from .cube import vertex_bits
from .errors import BudgetExceededError

CONTAINMENT_TOL = 1e-9
DIMENSION_TOL = 1e-12  # bracket width at which the dimension bisection stops
DEFAULT_BUDGET = 10**7
LEVEL_CHUNK = 1 << 14  # most rows in one block of placed cubes, for n <= 3
BUDGET_ENV_VAR = "FRACTAL_DIRAC_BUDGET"


def default_budget() -> int:
    """Word budget, overridable through the environment."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Similitude:
    """Contraction x -> ratio * matrix @ x + translation mapping the cube into itself."""

    ratio: float
    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"similarity ratio must lie in (0, 1), got {self.ratio}")
        t = _check_orthogonal(self.matrix)
        b = np.asarray(self.translation, dtype=float)
        n = t.shape[-1]
        if t.shape != (n, n) or b.shape != (n,):
            raise ValueError("expected an n x n matrix and a translation of length n")
        image = b + self.ratio * (vertex_bits(n) @ t.T)
        if not (image.min() >= -CONTAINMENT_TOL and image.max() <= 1.0 + CONTAINMENT_TOL):
            raise ValueError("similitude image is not contained in the unit cube")
        object.__setattr__(self, "matrix", t)
        object.__setattr__(self, "translation", b)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.ratio * (np.asarray(x, dtype=float) @ self.matrix.T) + self.translation


@dataclass(frozen=True)
class IfsSystem:
    """Ordered family of similitudes on [0,1]^n."""

    n: int
    maps: tuple
    label: str = "custom"
    osc: bool = False  # trusted open-set-condition flag, set by the preset catalog

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("an IFS needs at least one map")
        for m in self.maps:
            if m.n != self.n:
                raise ValueError("all maps must act on the same dimension")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def num_maps(self) -> int:
        return len(self.maps)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([m.ratio for m in self.maps])


@dataclass(frozen=True)
class PlacedCube:
    """Placed n-cubes x -> e_w * transform @ x + offset of words of one length.

    A block from iter_levels has a leading row axis, row i the cube of the word
    words[i] (symbols 1..N, in the smallest unsigned type that holds N); a single
    cube (compose, iter_placed, rows(i)) has none.  The word's maps had their
    orthogonal parts checked once; placed_coordinate_form checks a hand-built cube.
    """

    level: int
    words: np.ndarray
    e_w: np.ndarray
    transform: np.ndarray
    offset: np.ndarray

    @property
    def n(self) -> int:
        return self.offset.shape[-1]

    @property
    def vertices(self) -> np.ndarray:
        """Placed vertex coordinates, shape (..., 2^n, n), cube numbering preserved."""
        corners = vertex_bits(self.n) @ np.swapaxes(self.transform, -1, -2)
        corners *= np.asarray(self.e_w)[..., None, None]
        corners += self.offset[..., None, :]
        return corners

    def rows(self, index) -> "PlacedCube":
        """One cube for an integer index, a block for a slice or a mask."""
        return PlacedCube(self.level, self.words[index], self.e_w[index],
                          self.transform[index], self.offset[index])

    def centers(self) -> np.ndarray:
        half = np.full(self.n, 0.5)
        return self.offset + np.asarray(self.e_w)[..., None] * (self.transform @ half)


def _children(ifs: IfsSystem, block: PlacedCube) -> PlacedCube:
    """Child step: every map appended (innermost) to every row, symbol fastest."""
    # composite g, appended map f: (g o f)(x) = e_g T_g (r T x + b) + b_g
    mats = np.stack([m.matrix for m in ifs.maps])
    trans = np.stack([m.translation for m in ifs.maps])[:, :, None]
    e, t, big_n, n = block.e_w, block.transform[:, None], ifs.num_maps, ifs.n
    symbols = np.tile(np.arange(1, big_n + 1, dtype=block.words.dtype), e.size)
    words = np.column_stack([np.repeat(block.words, big_n, axis=0), symbols])
    offset = e[:, None, None] * np.matmul(t, trans)[..., 0] + block.offset[:, None]
    return PlacedCube(block.level + 1, words, np.multiply.outer(e, ifs.ratios).reshape(-1),
                      np.matmul(t, mats).reshape(-1, n, n), offset.reshape(-1, n))


def _root(ifs: IfsSystem) -> PlacedCube:
    n, symbol = ifs.n, np.min_scalar_type(ifs.num_maps)
    return PlacedCube(0, np.zeros((1, 0), symbol), np.ones(1), np.eye(n)[None], np.zeros((1, n)))


def compose(ifs: IfsSystem, word) -> PlacedCube:
    """Compose the similitudes named by a word, first symbol outermost."""
    cube = _root(ifs)
    for s in word:
        if not 1 <= s <= ifs.num_maps:
            raise ValueError(f"symbol {s} out of range 1..{ifs.num_maps}")
        cube = _children(ifs, cube).rows(slice(s - 1, s))
    return cube.rows(0)


def word_count(num_symbols: int, depth: int) -> int:
    """Number of words of length 0..depth over num_symbols symbols."""
    if num_symbols == 1:
        return depth + 1
    return (num_symbols ** (depth + 1) - 1) // (num_symbols - 1)


def _check_budget(ifs, depth, budget):
    """Refuse more than budget words of length <= depth.  There are at least
    2^depth of them when N >= 2, so the exact count is formed only for a depth
    below the bit length of the budget."""
    if budget is None:
        budget = default_budget()
    if budget == float("inf"):  # the caller counts its own visits
        return
    if ifs.num_maps == 1 or depth < int(budget).bit_length():
        total = word_count(ifs.num_maps, depth)
        if total <= budget:
            return
    else:
        total = f"at least 2^{depth}"
    raise BudgetExceededError(
        f"enumerating {total} words of depth <= {depth} exceeds the budget of {budget}"
    )


def _sweep(ifs: IfsSystem, block: PlacedCube, depth: int):
    """Yield block, then its descendants to depth, as iter_levels describes."""
    keep = yield block
    if block.level == depth:
        return
    rows = np.arange(block.e_w.size) if keep is None else np.flatnonzero(keep)
    chunk = max(1, LEVEL_CHUNK >> 2 * max(0, ifs.n - 3))
    group = max(1, chunk // ifs.num_maps)  # parents whose children are built at once
    for first in range(0, rows.size, group):
        children = _children(ifs, block.rows(rows[first: first + group]))
        for start in range(0, children.e_w.size, chunk):
            yield from _sweep(ifs, children.rows(slice(start, start + chunk)), depth)


def iter_levels(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Stream the placed cubes of all words of length 0..depth as PlacedCube blocks.

    Every word appears once, after its prefix, and the words of each length
    appear in lexicographic order.  A block holds at most LEVEL_CHUNK rows, a
    quarter as many per dimension above 3 (at least one), so its per-cube
    2^(n-1) x 2^(n-1) arrays hold at most 16 LEVEL_CHUNK entries to n = 10.  A
    row mask sent back for a block visits only the subtrees of the rows it
    marks (a for loop sends None: all).  depth and budget are checked at the call.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_budget(ifs, depth, budget)
    return _sweep(ifs, _root(ifs), depth)


def iter_placed(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Stream the rows of iter_levels one cube at a time, in its order:
    each word once, after its prefix, the words of each length lexicographic."""
    for block in iter_levels(ifs, depth, budget=budget):
        for i in range(block.e_w.size):
            yield block.rows(i)


def similarity_dimension(ifs: IfsSystem) -> float:
    """Unique root of sum(ratio^p) = 1, found by bisection with doubling bracket.

    The bisection stops at DIMENSION_TOL, or earlier once the midpoint is no
    longer strictly inside the bracket (above p = 8192 adjacent floats lie
    farther apart than DIMENSION_TOL).
    """
    ratios = ifs.ratios

    def residual(p):
        return float(np.sum(ratios**p)) - 1.0

    if ifs.num_maps == 1:
        return 0.0  # a single contraction: the series sum r^p = 1 has root p = 0
    lo = 0.0
    hi = 1.0
    while residual(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("the similarity dimension exceeds 10^6: ratios too close to 1")
    while hi - lo > DIMENSION_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vertex_closure_check(ifs: IfsSystem) -> bool:
    """True iff every unit-cube vertex is the image of a vertex under some map."""
    corners = vertex_bits(ifs.n).astype(float)
    images = np.vstack([m.apply(corners) for m in ifs.maps])
    for v in corners:
        if np.min(np.max(np.abs(images - v), axis=1)) > CONTAINMENT_TOL:
            return False
    return True


def to_json_dict(ifs: IfsSystem) -> dict:
    return {
        "n": ifs.n,
        "maps": [
            {
                "ratio": m.ratio,
                "matrix": [float(x) for x in m.matrix.ravel()],
                "translation": [float(x) for x in m.translation],
            }
            for m in ifs.maps
        ],
        "label": ifs.label,
    }


def from_json_dict(doc: dict) -> IfsSystem:
    """Build and validate an IFS from its JSON document form."""
    try:
        n = int(doc["n"])
        label = str(doc.get("label", "custom"))
        if n < 1:
            raise ValueError(f"IFS dimension must be >= 1, got {n}")
        maps = tuple(
            Similitude(
                ratio=float(entry["ratio"]),
                matrix=np.asarray(entry["matrix"], dtype=float).reshape(n, n),
                translation=np.asarray(entry["translation"], dtype=float),
            )
            for entry in doc["maps"]
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed IFS document: {exc}") from exc
    return IfsSystem(n=n, maps=maps, label=label)


def save_ifs(ifs: IfsSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(ifs), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ifs(path) -> IfsSystem:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
