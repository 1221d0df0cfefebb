"""Iterated function systems of contracting similitudes on the unit n-cube.

Words over the symbol alphabet 1..N compose similitudes left to right (first
symbol outermost) into placed cubes carrying the product ratio, the composed
orthogonal part, and the composed translation.  Enumeration is depth-first
and streaming so deep sums run in constant memory; a configurable budget
bounds the number of placed cubes visited.
"""

import json
import os
from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from .calculus import _check_orthogonal
from .cube import vertex_bits
from .errors import BudgetExceededError

CONTAINMENT_TOL = 1e-9
DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "FRACTAL_DIRAC_BUDGET"

Word = tuple  # sequence of 1-based symbols; the empty tuple is the identity


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
        n = t.shape[0]
        if b.shape != (n,):
            raise ValueError("translation length does not match matrix dimension")
        image = b + self.ratio * (vertex_bits(n) @ t.T)
        if image.min() < -CONTAINMENT_TOL or image.max() > 1.0 + CONTAINMENT_TOL:
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
    """An n-cube of edge e_w placed by x -> e_w * transform @ x + offset.

    Enumeration builds it as the image of the unit cube under a composed word
    of similitudes, whose orthogonal parts are checked once on the maps;
    placed_coordinate_form checks a hand-built cube's transform.
    """

    word: Word
    e_w: float
    transform: np.ndarray
    offset: np.ndarray
    n: int

    @property
    def vertices(self) -> np.ndarray:
        """Placed vertex coordinates, cube numbering preserved."""
        return self.offset + self.e_w * (vertex_bits(self.n) @ self.transform.T)

    def center(self) -> np.ndarray:
        return self.offset + self.e_w * (self.transform @ np.full(self.n, 0.5))

    def child(self, s: int, m: Similitude) -> "PlacedCube":
        """Extend the word by one more (innermost) symbol s naming the similitude m."""
        # composite g, appended map f: (g o f)(x) = e_g T_g (r T x + b) + b_g
        return PlacedCube(
            word=self.word + (s,),
            e_w=self.e_w * m.ratio,
            transform=self.transform @ m.matrix,
            offset=self.e_w * (self.transform @ m.translation) + self.offset,
            n=self.n,
        )


def compose(ifs: IfsSystem, word) -> PlacedCube:
    """Compose the similitudes named by a word, first symbol outermost."""
    cube = PlacedCube(word=(), e_w=1.0, transform=np.eye(ifs.n), offset=np.zeros(ifs.n), n=ifs.n)
    for s in word:
        if not 1 <= s <= ifs.num_maps:
            raise ValueError(f"symbol {s} out of range 1..{ifs.num_maps}")
        cube = cube.child(s, ifs.maps[s - 1])
    return cube


def word_count(num_symbols: int, depth: int) -> int:
    """Number of words of length 0..depth over num_symbols symbols."""
    if num_symbols == 1:
        return depth + 1
    return (num_symbols ** (depth + 1) - 1) // (num_symbols - 1)


def _check_budget(ifs, depth, budget):
    if budget is None:
        budget = default_budget()
    total = word_count(ifs.num_maps, depth)
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} words of depth <= {depth} exceeds the budget of {budget}"
        )
    return total


def enumerate_words(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Yield all words of length 0..depth, shorter first, lexicographic within a length."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_budget(ifs, depth, budget)
    symbols = range(1, ifs.num_maps + 1)
    for j in range(depth + 1):
        yield from _iter_product(symbols, repeat=j)


def iter_placed(ifs: IfsSystem, depth: int, budget: int | None = None):
    """Stream placed cubes for all words of length 0..depth in depth-first preorder.

    Compositions are reused along the search path, so each cube costs one map
    application.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_budget(ifs, depth, budget)
    stack = [compose(ifs, ())]
    while stack:
        cube = stack.pop()
        yield cube
        if len(cube.word) < depth:
            for s in range(ifs.num_maps, 0, -1):
                stack.append(cube.child(s, ifs.maps[s - 1]))


def similarity_dimension(ifs: IfsSystem, tol: float = 1e-12) -> float:
    """Unique root of sum(ratio^p) = 1, found by bisection with doubling bracket."""
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
            raise RuntimeError("failed to bracket the similarity dimension")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vertex_closure_check(ifs: IfsSystem, tol: float = CONTAINMENT_TOL) -> bool:
    """True iff every unit-cube vertex is the image of a vertex under some map."""
    corners = vertex_bits(ifs.n).astype(float)
    images = np.vstack([m.apply(corners) for m in ifs.maps])
    for v in corners:
        if np.min(np.max(np.abs(images - v), axis=1)) > tol:
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


def from_json_dict(doc: dict, osc: bool = False) -> IfsSystem:
    """Build and validate an IFS from its JSON document form."""
    try:
        n = int(doc["n"])
        raw_maps = doc["maps"]
        label = str(doc.get("label", "custom"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed IFS document: {exc}") from exc
    if n < 1:
        raise ValueError(f"IFS dimension must be >= 1, got {n}")
    maps = []
    for entry in raw_maps:
        matrix = np.asarray(entry["matrix"], dtype=float).reshape(n, n)
        maps.append(
            Similitude(
                ratio=float(entry["ratio"]),
                matrix=matrix,
                translation=np.asarray(entry["translation"], dtype=float),
            )
        )
    return IfsSystem(n=n, maps=tuple(maps), label=label, osc=osc)


def save_ifs(ifs: IfsSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(ifs), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ifs(path, osc: bool = False) -> IfsSystem:
    with open(path) as fh:
        return from_json_dict(json.load(fh), osc=osc)
