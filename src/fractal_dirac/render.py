"""Static SVG figures of the construction steps.

Draws the placed cubes of every word up to the requested depth as nested
outlines, marks even vertices with filled dots and odd vertices with hollow
ones, and decorates the level-zero cube with its oriented edges.  Systems in
dimensions other than 2 are projected onto the first two axes.
"""

import numpy as np

from .cube import oriented_edges, vertex_bits
from .ifs import IfsSystem, iter_levels, word_count

SIZE = 640  # width and height of the figure in pixels
DOT_STYLE = ('fill="#c23" />', 'fill="white" stroke="#c23" stroke-width="0.8"/>')  # even, odd


def _face_cycle(n):
    """Vertex indices tracing the first-two-axes face boundary, other bits zero."""
    if n == 1:
        return [0, 1]
    bits = vertex_bits(n)
    lookup = {tuple(row): i for i, row in enumerate(bits)}
    cycle = []
    for bx, by in ((0, 0), (1, 0), (1, 1), (0, 1)):
        cycle.append(lookup[(bx, by) + (0,) * (n - 2)])
    return cycle


def _project(points, n):
    pts = np.atleast_2d(points)
    if n == 1:
        return np.hstack([pts, np.zeros((pts.shape[0], 1))])
    return pts[:, :2]


def render_svg(ifs: IfsSystem, depth: int, budget: int | None = None) -> str:
    """SVG document of the first depth+1 construction steps."""
    pad = 0.08
    scale = SIZE / (1.0 + 2.0 * pad)

    def to_px(xy):
        x, y = xy
        return (x + pad) * scale, (1.0 + pad - y) * scale

    cycle = _face_cycle(ifs.n)
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    out.append(
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#444"/></marker></defs>'
    )
    out.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')

    blocks = iter_levels(ifs, depth, budget=budget)  # checks the budget before the lists below
    # each cube's outline and dots go to its depth-first slot: the word skips
    # (w_i - 1) sibling subtrees of word_count(N, depth - i) cubes at step i
    subtree = np.array([word_count(ifs.num_maps, depth - i) for i in range(1, depth + 1)], int)
    polygons = [None] * word_count(ifs.num_maps, depth)
    dots = [None] * len(polygons)
    circles = "\n".join(f'<circle cx="%.3f" cy="%.3f" r="%.2f" {DOT_STYLE[i % 2]}'
                         for i in range(2**ifs.n))
    for block in blocks:
        slots = (block.words - 1) @ subtree[: block.level] + block.level
        width = max(0.25, 1.6 * 0.7**block.level)
        outline = (f'<polygon points="{" ".join(["%.3f,%.3f"] * len(cycle))}" fill="none" '
                   f'stroke="#1a1a8c" stroke-width="{width:.2f}"/>')
        # to_px's two float operations on whole blocks, beside each vertex's dot radius
        verts = block.vertices
        ys = verts[..., 1] if ifs.n > 1 else np.zeros_like(verts[..., 0])
        radius = np.broadcast_to(np.maximum(1.0, 4.0 * block.e_w)[:, None], ys.shape)
        pixels = np.stack([(verts[..., 0] + pad) * scale, (1.0 + pad - ys) * scale, radius], -1)
        corners = pixels[:, cycle, :2].reshape(len(pixels), -1)
        for slot, corner, vertex in zip(slots.tolist(), corners, pixels.reshape(len(pixels), -1)):
            polygons[slot] = outline % tuple(corner.tolist())
            dots[slot] = circles % tuple(vertex.tolist())
    out.extend(polygons)
    out.extend(dots)

    root = _project(vertex_bits(ifs.n).astype(float), ifs.n)
    signs = oriented_edges(ifs.n)
    for i in range(signs.shape[0]):
        for j in range(signs.shape[1]):
            if signs[i, j] == 0:
                continue
            odd, even = 2 * i + 1, 2 * j
            tail, head = (even, odd) if signs[i, j] > 0 else (odd, even)
            (x1, y1), (x2, y2) = to_px(root[tail]), to_px(root[head])
            # shorten toward the head so the arrowhead stays visible
            x2s, y2s = x1 + 0.92 * (x2 - x1), y1 + 0.92 * (y2 - y1)
            out.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2s:.3f}" y2="{y2s:.3f}" '
                'stroke="#444" stroke-width="1.2" marker-end="url(#arrow)"/>'
            )
    out += ["</svg>", ""]  # the final newline comes from the one join, not a second copy
    return "\n".join(out)


def write_svg(ifs: IfsSystem, depth: int, path, budget: int | None = None):
    doc = render_svg(ifs, depth, budget=budget)
    with open(path, "w") as fh:
        fh.write(doc)
    return path
