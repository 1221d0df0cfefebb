"""Iterated function systems of contracting similitudes on the unit n-cube.

Words over the symbol alphabet 1..N compose similitudes left to right (first
symbol outermost) into placed cubes carrying the product ratio, the composed
orthogonal part, and the composed translation.  iter_levels streams them as
arrays, at most LEVEL_CHUNK words of one length a block, so deep sums run in
bounded memory; a configurable budget bounds the number of placed cubes visited.
"""

import json
import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .calculus import _check_orthogonal
from .cube import _check_dim, _frozen
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


def _once(transform):
    """A transform stack whose rows all share one matrix (stride 0) as its first row, else itself:
    what is formed from it is then formed once and broadcast over the rows."""
    return transform[:1] if transform.ndim == 3 and not transform.strides[0] else transform


def _box(e_w, transform, offset):
    """Axis boxes (lo, hi), each (..., n), of placed cubes x -> e_w * transform @ x + offset: row i of
    transform summed over its negative (lo) or positive (hi) entries in axis order, as `vertices` sums
    a subset of it; rounding is monotone, so lo and hi are bit for bit the min and max of `vertices`
    (a shared transform is summed once)."""
    e_w, transform = np.asarray(e_w)[..., None], _once(transform)
    # cumsum adds each row in axis order, as `vertices` does; np.sum's pairwise order rounds otherwise
    sums = (bound(transform, 0.0).cumsum(axis=-1)[..., -1] for bound in (np.minimum, np.maximum))
    return tuple(offset + e_w * s for s in sums)


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
        _check_dim(n)
        lo, hi = _box(self.ratio, t, b)
        if not (lo.min() >= -CONTAINMENT_TOL and hi.max() <= 1.0 + CONTAINMENT_TOL):
            raise ValueError("similitude image is not contained in the unit cube")
        object.__setattr__(self, "matrix", t)
        object.__setattr__(self, "translation", b)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class IfsSystem:
    """Ordered family of similitudes on [0,1]^n; its map table, row s - 1 for symbol s,
    is stacked once, read-only: ratios (N,), matrices (N, n, n), translations (N, n).
    homothety is True when every matrix == the identity (maps x -> r x + b)."""

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
        columns = zip(*((m.ratio, m.matrix, m.translation) for m in self.maps))
        for table, rows in zip(("ratios", "matrices", "translations"), columns):
            object.__setattr__(self, table, _frozen(np.array(rows)))
        object.__setattr__(self, "homothety", bool((self.matrices == np.eye(self.n)).all()))

    @property
    def num_maps(self) -> int:
        return len(self.maps)


class PlacedCube(NamedTuple):
    """Placed n-cubes x -> e_w * transform @ x + offset of words of one length.

    A block from iter_levels has a leading row axis, row i the cube of the word
    words[i] (symbols 1..N, in the smallest unsigned type that holds N); a single
    cube (iter_placed, rows(i)) has none.  The word's maps had their
    orthogonal parts checked once; placed_coordinate_form checks a hand-built cube.
    In a homothety system every row shares one read-only identity transform, a
    stride-0 broadcast that rows() keeps and vertices, centers and _box read once.
    A named 5-tuple, so a row costs one tuple and its fields cannot be reassigned.
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
        """Placed vertex coordinates, shape (..., 2^n, n), cube numbering preserved.  By mirror
        doubling, vertex 2^j + i is vertex 2^j - 1 - i plus column j of transform, so each vertex
        sums its columns in axis order, bit for bit vertex_bits(n) @ transform^T."""
        t, n = _once(self.transform), self.n
        corners = np.zeros(t.shape[:-2] + (2**n, n))
        for j in range(n):  # the first 2^j vertices mirrored, column j added
            np.add(corners[..., (1 << j) - 1::-1, :], t[..., None, :, j], out=corners[..., 1 << j: 2 << j, :])
        e_w = np.asarray(self.e_w)[..., None, None]
        corners = np.multiply(corners, e_w, out=corners if t is self.transform else None)
        corners += self.offset[..., None, :]
        return corners

    def rows(self, index) -> "PlacedCube":
        """One cube for an integer index, a block for a slice or a mask (a shared transform kept shared)."""
        e_w, t = self.e_w[index], self.transform
        t = np.broadcast_to(t[:1], e_w.shape + t.shape[1:]) if e_w.ndim and _once(t) is not t else t[index]
        return PlacedCube(self.level, self.words[index], e_w, t, self.offset[index])

    def centers(self) -> np.ndarray:
        half = np.full(self.n, 0.5)
        return self.offset + np.asarray(self.e_w)[..., None] * (_once(self.transform) @ half)


def _children(ifs: IfsSystem, block: PlacedCube) -> PlacedCube:
    """Child step: every map appended (innermost) to every row, symbol fastest."""
    # composite g, appended map f: (g o f)(x) = e_g T_g (r T x + b) + b_g
    e, big_n, n = block.e_w, ifs.num_maps, ifs.n
    symbols = np.tile(np.arange(1, big_n + 1, dtype=block.words.dtype), e.size)
    words = np.column_stack([np.repeat(block.words, big_n, axis=0), symbols])
    if ifs.homothety:  # T = I exactly, so T M = T and T b = b bit for bit
        transform = np.broadcast_to(np.eye(n), (e.size * big_n, n, n))
        offset = e[:, None, None] * ifs.translations + block.offset[:, None]
    else:  # @ keeps the rounding, fused or not, that the rotated systems' pins record
        t = block.transform[:, None]
        transform = (t @ ifs.matrices).reshape(-1, n, n)
        offset = e[:, None, None] * (t @ ifs.translations[..., None])[..., 0] + block.offset[:, None]
    return PlacedCube(block.level + 1, words, np.multiply.outer(e, ifs.ratios).reshape(-1),
                      transform, offset.reshape(-1, n))


def _root(ifs: IfsSystem) -> PlacedCube:
    n, symbol = ifs.n, np.min_scalar_type(ifs.num_maps)
    return PlacedCube(0, np.zeros((1, 0), symbol), np.ones(1), _frozen(np.eye(n)[None]), np.zeros((1, n)))


def word_count(num_symbols: int, depth: int) -> int:
    """Number of words of length 0..depth over num_symbols symbols."""
    if num_symbols == 1:
        return depth + 1
    return (num_symbols ** (depth + 1) - 1) // (num_symbols - 1)


def _shown(k: int) -> str:
    """An integer for a message: in full below 10^15, else by its order of magnitude."""
    return str(k) if k < 10**15 else f"~10^{math.log10(k):.0f}"


def _check_budget(ifs, depth, budget):
    """Refuse more than budget words of length <= depth.  There are at least
    2^depth of them when N >= 2, so the exact count is formed only for a depth
    below the bit length of the budget."""
    if budget is None:
        budget = default_budget()
    if ifs.num_maps == 1 or depth < int(budget).bit_length():
        total = word_count(ifs.num_maps, depth)
        if total <= budget:
            return
    else:
        total = f"at least 2^{_shown(depth)}"
    raise BudgetExceededError(
        f"enumerating {total} words of depth <= {_shown(depth)} exceeds the budget of {budget}"
    )


def _child_blocks(ifs: IfsSystem, block: PlacedCube, keep):
    """The child blocks of the rows of block that keep marks (None: all), in sweep order."""
    rows = np.arange(block.e_w.size) if keep is None else np.flatnonzero(keep)
    chunk = max(1, LEVEL_CHUNK >> 2 * max(0, ifs.n - 3))
    group = max(1, chunk // ifs.num_maps)  # parents whose children are built at once
    for first in range(0, rows.size, group):
        children = _children(ifs, block.rows(rows[first: first + group]))
        for start in range(0, children.e_w.size, chunk):
            yield children.rows(slice(start, start + chunk))


def _sweep(ifs: IfsSystem, block: PlacedCube, depth: int):
    """Yield block, then its descendants to depth, as iter_levels describes, without recursion."""
    stack = [iter((block,))]  # one pending iterator of child blocks per open level
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        else:
            keep = yield block
            if block.level < depth:
                stack.append(_child_blocks(ifs, block, keep))


def iter_levels(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Stream the placed cubes of all words of length 0..depth as PlacedCube blocks.

    Every word appears once, after its prefix, and the words of each length
    appear in lexicographic order.  A block holds at most LEVEL_CHUNK rows, a
    quarter as many per dimension above 3 (at least one), so its per-cube
    2^(n-1) x 2^(n-1) arrays hold at most 16 LEVEL_CHUNK entries to n = 10.  A
    row mask sent back for a block visits only the subtrees of the rows it
    marks (a for loop sends None: all).  depth and budget are checked at the call.
    In a homothety system a block's transform is one shared read-only identity.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_budget(ifs, depth, budget)
    return _sweep(ifs, _root(ifs), depth)


def iter_placed(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Stream the rows of iter_levels one cube at a time, in its order:
    each word once, after its prefix, the words of each length lexicographic.
    Row i holds the views and scalars of block.rows(i), a shared transform as one view per block."""
    for level, words, e_w, t, offset in iter_levels(ifs, depth, budget=budget):  # _make's call, frameless
        t = repeat(t[0]) if _once(t) is not t else t  # a sweep's blocks are never empty
        yield from map(tuple.__new__, repeat(PlacedCube), zip(repeat(level), words, e_w, t, offset))


def similarity_dimension(ifs: IfsSystem) -> float:
    """Unique root of sum(ratio^p) = 1, found by bisection with doubling bracket.

    The bisection stops at DIMENSION_TOL, or earlier once the midpoint is no
    longer strictly inside the bracket (above p = 8192 adjacent floats lie
    farther apart than DIMENSION_TOL).
    """
    def residual(p):
        return float(np.sum(ifs.ratios**p)) - 1.0

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
        n = doc["n"]
        if type(n) is not int:  # a JSON integer: no float, string or bool
            raise TypeError(f"n must be an integer, got {n!r}")
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


def _json_text(doc) -> str:
    """The bytes of every JSON document written: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_ifs(ifs: IfsSystem, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(to_json_dict(ifs)))


def load_ifs(path) -> IfsSystem:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
