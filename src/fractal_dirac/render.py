"""Static SVG figures of the construction steps.

Draws the placed cubes of every word up to the requested depth as nested
outlines, marks even vertices with filled dots and odd vertices with hollow
ones, and decorates the level-zero cube with its oriented edges.  Systems in
dimensions other than 2 are projected onto the first two axes.
"""

import numpy as np

from .cube import _edge_table
from .ifs import IfsSystem, iter_levels, word_count

SIZE = 640  # width and height of the figure in pixels
DOT_STYLE = ('fill="#c23" />', 'fill="white" stroke="#c23" stroke-width="0.8"/>')  # even, odd


def render_svg(ifs: IfsSystem, depth: int, budget: int | None = None) -> str:
    """SVG document of the first depth+1 construction steps."""
    pad = 0.08
    scale = SIZE / (1.0 + 2.0 * pad)
    cycle = range(min(2**ifs.n, 4))  # the first-two-axes face, in the mirror numbering
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
        # pixel coordinates of the projection onto the first two axes, beside each dot's radius
        verts = block.vertices
        ys = verts[..., 1] if ifs.n > 1 else np.zeros_like(verts[..., 0])
        radius = np.broadcast_to(np.maximum(1.0, 4.0 * block.e_w)[:, None], ys.shape)
        pixels = np.stack([(verts[..., 0] + pad) * scale, (1.0 + pad - ys) * scale, radius], -1)
        corners = pixels[:, cycle, :2].reshape(len(pixels), -1)
        if block.level == 0:
            root = pixels[0, :, :2]
        for slot, corner, vertex in zip(slots.tolist(), corners, pixels.reshape(len(pixels), -1)):
            polygons[slot] = outline % tuple(corner.tolist())
            dots[slot] = circles % tuple(vertex.tolist())
    out.extend(polygons)
    out.extend(dots)

    # the oriented edges of the level-zero cube in the row-major order of oriented_edges(n), read
    # off the signed permutations of g, each shortened toward its head so the arrowhead stays visible
    perm, sign = (a.T.ravel() for a in _edge_table(ifs.n))  # row i: odd vertex 2i+1's n edges
    rows = np.arange(len(perm)) // ifs.n
    order = np.lexsort((perm, rows))
    odd, even = 2 * rows[order] + 1, 2 * perm[order]
    outward = sign[order] > 0  # even -> odd
    tail = root[np.where(outward, even, odd)]
    head = root[np.where(outward, odd, even)]
    arrow = ('<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
             'stroke="#444" stroke-width="1.2" marker-end="url(#arrow)"/>')
    ends = np.hstack([tail, tail + 0.92 * (head - tail)])
    out += [arrow % tuple(row) for row in ends.tolist()]
    out += ["</svg>", ""]  # the final newline comes from the one join, not a second copy
    return "\n".join(out)


def write_svg(ifs: IfsSystem, depth: int, path, budget: int | None = None):
    doc = render_svg(ifs, depth, budget=budget)
    with open(path, "w") as fh:
        fh.write(doc)
    return path
