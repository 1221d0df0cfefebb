import numpy as np
import pytest

from fractal_dirac import IfsSystem, Similitude, presets, similarity_dimension
from fractal_dirac.components import INTERSECT_TOL
from fractal_dirac.cube import vertex_bits
from fractal_dirac.ifs import LEVEL_CHUNK, PlacedCube, _children, _root, iter_levels

# registry filled by the acceptance module; one line per criterion at session end
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_orthogonal(rng, n):
    """Deterministic random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def matrix_abs(a):
    """Operator absolute value sqrt(A* A) of a matrix or of each matrix of a stack (..., m, m), by
    a symmetric eigendecomposition: the dense oracle for the library's closed-form |P|."""
    a = np.asarray(a)
    w, vecs = np.linalg.eigh(np.swapaxes(a.conj(), -1, -2) @ a)
    return (vecs * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def compose(ifs, word):
    """The placed cube of one word, first symbol outermost, by the engine's child step
    taken one symbol at a time: the one-cube oracle for the level blocks."""
    cube = _root(ifs)
    for s in word:
        cube = _children(ifs, cube).rows(slice(s - 1, s))
    return cube.rows(0)


def bits(a):
    """The float64 array as int64 words: == on them tells -0.0 from 0.0 and compares NaN payloads."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def vertices_oracle(cube):
    """Placed vertices as one BLAS product of the 0/1 vertex table with the transform, then
    scaled and shifted: the reference for PlacedCube.vertices' mirror doubling, bit for bit."""
    corners = vertex_bits(cube.n) @ np.swapaxes(cube.transform, -1, -2)
    corners *= np.asarray(cube.e_w)[..., None, None]
    corners += cube.offset[..., None, :]
    return corners


def children_oracle(ifs, block):
    """The child step with every product through @, for any system (T M and T b formed even when
    T = I): the reference for the engine's shared identity transforms, bit for bit."""
    e, t, big_n, n = block.e_w, block.transform[:, None], ifs.num_maps, ifs.n
    symbols = np.tile(np.arange(1, big_n + 1, dtype=block.words.dtype), e.size)
    words = np.column_stack([np.repeat(block.words, big_n, axis=0), symbols])
    offset = e[:, None, None] * (t @ ifs.translations[..., None])[..., 0] + block.offset[:, None]
    return PlacedCube(block.level + 1, words, np.multiply.outer(e, ifs.ratios).reshape(-1),
                      (t @ ifs.matrices).reshape(-1, n, n), offset.reshape(-1, n))


def levels_oracle(ifs, depth):
    """Every word of each length 0..depth as one block, lexicographic, by children_oracle from a
    root whose identity transform is a plain array."""
    n = ifs.n
    level = PlacedCube(0, np.zeros((1, 0), np.min_scalar_type(ifs.num_maps)), np.ones(1),
                       np.eye(n)[None].copy(), np.zeros((1, n)))
    levels = [level]
    for _ in range(depth):
        levels.append(level := children_oracle(ifs, level))
    return levels


def chaos_game_oracle(ifs, f, spec):
    """The chaos game with one searchsorted per draw and every sample stepped through all its
    symbols, innermost first, LEVEL_CHUNK samples at a time: the reference for
    integrate_hausdorff's bucketed draws and innermost-symbol table, which must equal it bit for bit."""
    rng = np.random.default_rng(spec.seed)
    weights = ifs.ratios**similarity_dimension(ifs)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    ratios, mats, trans = ifs.ratios, ifs.matrices, ifs.translations
    values = np.empty(spec.sample_count)
    for start in range(0, spec.sample_count, LEVEL_CHUNK):
        k = min(LEVEL_CHUNK, spec.sample_count - start)
        draws = cdf.searchsorted(rng.random((k, spec.depth)), side="right")
        pts = np.full((k, ifs.n), 0.5)
        for col in range(spec.depth - 1, -1, -1):
            s = draws[:, col]
            pts = ratios[s, None] * np.einsum("kij,kj->ki", mats[s], pts) + trans[s]
        values[start: start + k] = np.broadcast_to(np.asarray(f(pts.T), dtype=float), (k,))
    return float(values.mean())


def centre_sum_oracle(ifs, f, depth):
    """The deterministic quadrature one centre at a time: Python's e**dim_s times f at the
    centre, added to a running total in word order; integrate_hausdorff must equal it bit for bit."""
    dim = similarity_dimension(ifs)
    total = 0.0
    for block in iter_levels(ifs, depth):
        if block.level == depth:
            values = np.broadcast_to(np.asarray(f(block.centers().T), dtype=float), block.e_w.shape)
            for e, value in zip(block.e_w.tolist(), values.tolist()):
                total += e**dim * value
    return total


def grading(n):
    """Diagonal +1/-1 grading of the 2^n-dimensional space in block order (even block first)."""
    return np.diag(np.repeat([1.0, -1.0], 2 ** (n - 1)))


OSC_PRESETS = [
    "cantor_set",
    "cantor_dust2",
    "cantor_dust3",
    "lifted_cantor",
    "sierpinski_carpet",
    "menger_sponge",
    "lifted_carpet",
    "rotation",
]

ALL_PRESETS = OSC_PRESETS + ["non_osc"]

# systems on which the level-one layer meets its per-cube oracles: the fixed
# presets, four rotation angles, the carpet family and the dusts to n = 7
LEVEL_ONE_SYSTEMS = (
    ["cantor_set", "lifted_cantor", "sierpinski_carpet", "menger_sponge", "lifted_carpet",
     "rotation", "non_osc", "rotation:0", "rotation:0.5", "rotation:0.7", "rotation:1.3"]
    + [f"sc{n}" for n in range(2, 5)]
    + [f"cantor_dust{n}" for n in range(1, 8)]
)

# gaps, in INTERSECT_TOL, at and around the 2 INTERSECT_TOL at which two widened cubes touch
NEAR_GAPS = (0, 0.5, -0.5, 1, -1, 1.9, 2, 2.1, 3)


def near_touching_pair(n, gap, rotated, seed=11):
    """Two cubes of ratio 0.3 about the centre of the unit cube, gap INTERSECT_TOL apart
    along their first edge; rotated: a seeded rotation near the identity (a reflection at n = 1)."""
    t = np.eye(n)
    if rotated:
        q, r = np.linalg.qr(np.eye(n) + 0.1 * np.random.default_rng(seed).standard_normal((n, n)))
        t = -t if n == 1 else q * np.sign(np.diag(r))
    centres = [0.5 + side * (0.3 + gap * INTERSECT_TOL) / 2 * t[:, 0] for side in (-1, 1)]
    maps = [Similitude(0.3, t, c - 0.3 * t @ np.full(n, 0.5)) for c in centres]
    return IfsSystem(n, tuple(maps), label=f"pair{n}{'r' if rotated else 'a'}{gap}")


def shifted_tiling(n, gap):
    """The 2^n half cubes tiling the unit cube, the one at the origin moved gap INTERSECT_TOL
    along the first axis: its vertex at the origin corner is then gap INTERSECT_TOL from it."""
    shift = np.eye(n)[0] * gap * INTERSECT_TOL
    maps = [Similitude(0.5, np.eye(n), 0.5 * np.array(b, float) + (shift if k == 0 else 0))
            for k, b in enumerate(np.ndindex(*(2,) * n))]
    return IfsSystem(n, tuple(maps), label=f"tiling{n}:{gap}")


# seeded near-touching systems for n = 1, 2, 3: axis-aligned and rotated pairs, and
# tilings whose origin vertex nears the corner within the containment tolerance
NEAR_TOUCHING = (
    [near_touching_pair(n, gap, rotated) for n in (1, 2, 3) for rotated in (False, True)
     for gap in NEAR_GAPS]
    + [shifted_tiling(n, gap) for n in (1, 2, 3) for gap in NEAR_GAPS if gap >= -1]
)


@pytest.fixture(params=ALL_PRESETS)
def any_preset(request):
    return presets.preset(request.param)
