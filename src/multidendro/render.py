"""Text and SVG views of a tree.

Both renderers are deterministic: the same tree gives byte-identical
output. The SVG puts heights on the horizontal axis; every node whose
interval is non-degenerate gets a shaded band from its lower to its upper
height, spanning the rows of the leaves it covers, so tied merges are
visible as rectangles instead of a single join line.
"""

from __future__ import annotations

from .tree import postorder

# SVG layout, in pixels
WIDTH = 720
ROW_HEIGHT = 24
MARGIN = 16


def _fmt_height(h):
    return "%g" % (h,)


def render_text(tree):
    """ASCII outline of the tree, intervals shown as [low..high]."""
    lines = []
    # preorder; each entry carries its own line's prefix and its children's
    stack = [(tree.root, "", "")]
    while stack:
        node, head, cont = stack.pop()
        if node.is_leaf:
            lines.append(head + node.label)
            continue
        title = "[%s..%s]" % (_fmt_height(node.h_lower), _fmt_height(node.h_upper))
        if node.fusion is not None and node.fusion != node.h_lower:
            title += " @%s" % _fmt_height(node.fusion)
        lines.append(head + title)
        last = len(node.children) - 1
        stack.append((node.children[last], cont + "\\-- ", cont + "    "))
        for child in reversed(node.children[:last]):
            stack.append((child, cont + "+-- ", cont + "|   "))
    return "\n".join(lines) + "\n"


def render_svg(tree):
    """Standalone SVG dendrogram with height along the horizontal axis."""
    leaves = list(tree.root.leaves())
    plot_left = MARGIN + 8 * max(len(leaf.label) for leaf in leaves) + 16
    plot_right = WIDTH - MARGIN
    axis_y = MARGIN + len(leaves) * ROW_HEIGHT + 12

    max_h = max([nd.h_upper for nd in tree.internal_nodes()] or [0.0])
    span = max_h if max_h > 0 else 1.0

    def x_of(h):
        return plot_left + (h / span) * (plot_right - plot_left)

    def f(v):
        return "%.2f" % (v,)

    def draw_x(node):
        # a leaf has no fusion value and sits at height 0.0
        return x_of(node.fusion if node.fusion is not None else node.h_lower)

    texts = []
    joins = []
    bands = []

    # the rows a node spans, from its first leaf's to its last leaf's
    span_of = {}
    for k, leaf in enumerate(leaves):
        y = MARGIN + (k + 0.5) * ROW_HEIGHT
        span_of[id(leaf)] = (y, y)
        texts.append(
            '<text x="%s" y="%s" font-family="monospace" font-size="12" '
            'dominant-baseline="middle">%s</text>'
            % (f(MARGIN), f(y), _escape(leaf.label))
        )
    for node in postorder(tree.root):
        if not node.is_leaf:
            span_of[id(node)] = (span_of[id(node.children[0])][0],
                                 span_of[id(node.children[-1])][1])

    def line(x1, y1, x2, y2):
        return ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" '
                'stroke-width="1.5"/>' % (f(x1), f(y1), f(x2), f(y2)))

    # preorder; a node's band comes before its children's, each child's
    # join line before that child's subtree, and the node's upright line
    # after all of them, so lines wait on the stack as finished text
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            joins.append(node)
            continue
        if node.is_leaf:
            continue
        x = draw_x(node)
        if node.h_upper > node.h_lower:
            lo, hi = span_of[id(node)]
            bands.append(
                '<rect class="band" x="%s" y="%s" width="%s" height="%s" '
                'fill="#888888" fill-opacity="0.35"/>'
                % (f(x_of(node.h_lower)), f(lo - ROW_HEIGHT * 0.3),
                   f(x_of(node.h_upper) - x_of(node.h_lower)),
                   f(hi - lo + ROW_HEIGHT * 0.6))
            )
        child_ys = [sum(span_of[id(child)]) / 2.0 for child in node.children]
        stack.append(line(x, min(child_ys), x, max(child_ys)))
        for child, cy in zip(reversed(node.children), reversed(child_ys)):
            stack.append(child)
            stack.append(line(draw_x(child), cy, x, cy))

    axis = [
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999999" '
        'stroke-width="1"/>' % (f(plot_left), f(axis_y), f(plot_right), f(axis_y)),
        '<text x="%s" y="%s" font-family="monospace" font-size="10">0</text>'
        % (f(plot_left), f(axis_y + 12)),
        '<text x="%s" y="%s" font-family="monospace" font-size="10" '
        'text-anchor="end">%s</text>'
        % (f(plot_right), f(axis_y + 12), _fmt_height(span if max_h > 0 else 0.0)),
    ]

    height = axis_y + 24
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, height, WIDTH, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>'
        % (WIDTH, height),
    ]
    parts.extend(bands)
    parts.extend(joins)
    parts.extend(texts)
    parts.extend(axis)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
