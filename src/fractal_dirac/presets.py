"""Catalog of the built-in iterated function systems.

Every preset acts on the unit cube.  Translations are dyadic or triadic
rationals stored in floating point; the osc flag records the trusted
open-set-condition status used by the Hausdorff-measure quadrature.
"""

import numpy as np

from .ifs import IfsSystem, Similitude


def _axis_aligned(n, ratio, translations, label, osc=True):
    eye = np.eye(n)
    maps = tuple(
        Similitude(ratio=ratio, matrix=eye, translation=np.asarray(b, dtype=float))
        for b in translations
    )
    return IfsSystem(n=n, maps=maps, label=label, osc=osc)


def cantor_set() -> IfsSystem:
    """Middle-third construction on the interval."""
    return _axis_aligned(1, 1.0 / 3.0, [[0.0], [2.0 / 3.0]], "cantor_set")


def cantor_dust(n: int) -> IfsSystem:
    """2^n corner copies of ratio 1/3; binary digits of the map index pick the corner."""
    if n < 1:
        raise ValueError("cantor_dust needs n >= 1")
    translations = []
    for s in range(2**n):
        translations.append([(2.0 / 3.0) * ((s >> a) & 1) for a in range(n)])
    return _axis_aligned(n, 1.0 / 3.0, translations, f"cantor_dust{n}")


def lifted_cantor() -> IfsSystem:
    """Middle-third maps embedded in the plane; the attractor is the interval construction at height 0."""
    return _axis_aligned(2, 1.0 / 3.0, [[0.0, 0.0], [2.0 / 3.0, 0.0]], "lifted_cantor")


def carpet_index_set(n: int):
    """Map indices 0..3^n-1 whose ternary expansion has at most one digit equal to 1."""
    keep = []
    for s in range(3**n):
        digits = []
        t = s
        for _ in range(n):
            digits.append(t % 3)
            t //= 3
        if sum(1 for d in digits if d == 1) <= 1:
            keep.append(s)
    return keep


def sc(n: int) -> IfsSystem:
    """Carpet-family construction: ratio 1/3 with the hole pattern of the index set."""
    if n < 2:
        raise ValueError("the carpet family needs n >= 2")
    translations = []
    for s in carpet_index_set(n):
        digits = []
        t = s
        for _ in range(n):
            digits.append(t % 3)
            t //= 3
        translations.append([d / 3.0 for d in digits])
    return _axis_aligned(n, 1.0 / 3.0, translations, f"sc{n}")


def sierpinski_carpet() -> IfsSystem:
    ifs = sc(2)
    return IfsSystem(n=2, maps=ifs.maps, label="sierpinski_carpet", osc=True)


def menger_sponge() -> IfsSystem:
    ifs = sc(3)
    return IfsSystem(n=3, maps=ifs.maps, label="menger_sponge", osc=True)


def lifted_carpet() -> IfsSystem:
    """Planar carpet maps paired with a one-third contraction of the extra axis."""
    translations = []
    for s in carpet_index_set(2):
        translations.append([(s % 3) / 3.0, (s // 3) / 3.0, 0.0])
    return _axis_aligned(3, 1.0 / 3.0, translations, "lifted_carpet")


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
