import numpy as np
import pytest

from fractal_dirac import presets

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
# presets, four rotation angles, the carpet family and the dusts to n = 6
LEVEL_ONE_SYSTEMS = (
    ["cantor_set", "lifted_cantor", "sierpinski_carpet", "menger_sponge", "lifted_carpet",
     "rotation", "non_osc", "rotation:0", "rotation:0.5", "rotation:0.7", "rotation:1.3"]
    + [f"sc{n}" for n in range(2, 5)]
    + [f"cantor_dust{n}" for n in range(1, 7)]
)


@pytest.fixture(params=ALL_PRESETS)
def any_preset(request):
    return presets.preset(request.param)
