"""Catalog of the built-in iterated function systems.

Every preset acts on the unit cube.  The ratio-1/3 presets are one digit
construction (_digit_maps), their translations triadic rationals in floating
point; the osc flag records the trusted open-set status used by the quadrature.
"""

from itertools import product

import numpy as np

from .cube import _check_dim
from .ifs import IfsSystem, Similitude


def _digit_vectors(axes):
    """Every digit vector with d_i from axes[i], the first axis varying fastest."""
    return (d[::-1] for d in product(*axes[::-1]))


def _carpet(d):  # the carpet family's rule: at most one digit equal to 1
    return d.count(1) <= 1


def _digit_maps(axes, label, keep=None):
    """Copies of the cube at ratio 1/3, one at each digit position d / 3 that keep accepts."""
    eye = np.eye(len(axes))
    maps = tuple(Similitude(1.0 / 3.0, eye, [di / 3.0 for di in d])
                 for d in _digit_vectors(axes) if keep is None or keep(d))
    return IfsSystem(n=len(axes), maps=maps, label=label, osc=True)


def cantor_set() -> IfsSystem:
    """Middle-third construction on the interval."""
    return _digit_maps([(0, 2)], "cantor_set")


def cantor_dust(n: int) -> IfsSystem:
    """2^n corner copies of ratio 1/3; binary digits of the map index pick the corner."""
    if n < 1:
        raise ValueError("cantor_dust needs n >= 1")
    _check_dim(n)
    return _digit_maps([(0, 2)] * n, f"cantor_dust{n}")


def lifted_cantor() -> IfsSystem:
    """Middle-third maps embedded in the plane; the attractor is the interval construction at height 0."""
    return _digit_maps([(0, 2), (0,)], "lifted_cantor")


def sc(n: int) -> IfsSystem:
    """Carpet-family construction: ratio-1/3 copies at the ternary digit vectors with at most one 1."""
    if n < 2:
        raise ValueError("the carpet family needs n >= 2")
    _check_dim(n)
    return _digit_maps([(0, 1, 2)] * n, f"sc{n}", _carpet)


def sierpinski_carpet() -> IfsSystem:
    return _digit_maps([(0, 1, 2)] * 2, "sierpinski_carpet", _carpet)


def menger_sponge() -> IfsSystem:
    return _digit_maps([(0, 1, 2)] * 3, "menger_sponge", _carpet)


def lifted_carpet() -> IfsSystem:
    """Planar carpet maps paired with a one-third contraction of the extra axis."""
    return _digit_maps([(0, 1, 2), (0, 1, 2), (0,)], "lifted_carpet", _carpet)


def rotation(theta: float = np.pi / 4.0) -> IfsSystem:
    """Four copies of ratio 1/(2 sqrt 2) rotated by theta about their centers."""
    ratio = 1.0 / (2.0 * np.sqrt(2.0))
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    centers = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0]]) / 4.0
    maps = tuple(
        Similitude(
            ratio=ratio,
            matrix=rot,
            translation=c - ratio * (rot @ np.array([0.5, 0.5])),
        )
        for c in centers
    )
    return IfsSystem(n=2, maps=maps, label="rotation", osc=True)


def non_osc() -> IfsSystem:
    """Four ratio-1/3 corner maps plus one ratio-2/3 centered map; images overlap."""
    eye = np.eye(2)
    corners = [[0.0, 0.0], [2.0 / 3.0, 0.0], [0.0, 2.0 / 3.0], [2.0 / 3.0, 2.0 / 3.0]]
    maps = [
        Similitude(ratio=1.0 / 3.0, matrix=eye, translation=np.asarray(b))
        for b in corners
    ]
    maps.append(
        Similitude(ratio=2.0 / 3.0, matrix=eye, translation=np.array([1.0 / 6.0, 1.0 / 6.0]))
    )
    return IfsSystem(n=2, maps=tuple(maps), label="non_osc", osc=False)


_FIXED = {
    "cantor_set": cantor_set,
    "lifted_cantor": lifted_cantor,
    "sierpinski_carpet": sierpinski_carpet,
    "carpet": sierpinski_carpet,
    "menger_sponge": menger_sponge,
    "menger": menger_sponge,
    "lifted_carpet": lifted_carpet,
    "rotation": rotation,
    "non_osc": non_osc,
}


def preset_names():
    """Names accepted by preset(), parametrized families shown schematically."""
    fixed = sorted(set(_FIXED) - {"carpet", "menger"})
    return fixed + ["cantor_dust<n>", "sc<n>", "rotation:<theta>"]


def preset(name: str) -> IfsSystem:
    """Look up a preset by name, e.g. 'cantor_dust2', 'sc3', 'rotation:0.5'."""
    key = name.strip().lower()
    if key in _FIXED:
        return _FIXED[key]()
    if key.startswith("cantor_dust"):
        return cantor_dust(_parse_int(key, "cantor_dust"))
    if key.startswith("rotation:"):
        try:
            theta = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad rotation angle in preset name {name!r}") from exc
        if not np.isfinite(theta):
            raise ValueError(f"rotation angle must be finite, got {name!r}")
        return rotation(theta)
    if key.startswith("sc"):
        return sc(_parse_int(key, "sc"))
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")


def _parse_int(key, prefix):
    suffix = key[len(prefix):]
    if not suffix.isdigit():
        raise ValueError(f"bad preset name {key!r}: expected {prefix}<integer>")
    return int(suffix)
