"""Text and SVG views of a tree.

Both renderers are deterministic: the same tree gives byte-identical
output. The SVG puts heights on the horizontal axis; every node whose
interval is non-degenerate gets a shaded band from its lower to its upper
height, spanning the rows of the leaves it covers, so tied merges are
visible as rectangles instead of a single join line.
"""

from __future__ import annotations


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


def render_svg(tree, width=720, row_height=24, margin=16, label_gutter=None):
    """Standalone SVG dendrogram with height along the horizontal axis."""
    leaves = list(tree.root.leaves())
    n = len(leaves)
    if label_gutter is None:
        label_gutter = 8 * max(len(leaf.label) for leaf in leaves) + 16
    top = margin
    plot_left = margin + label_gutter
    plot_right = width - margin
    axis_y = top + n * row_height + 12

    max_h = max([nd.h_upper for nd in tree.internal_nodes()] or [0.0])
    span = max_h if max_h > 0 else 1.0

    def x_of(h):
        return plot_left + (h / span) * (plot_right - plot_left)

    def f(v):
        return "%.2f" % (v,)

    rows = {leaf.index: top + (k + 0.5) * row_height
            for k, leaf in enumerate(leaves)}

    texts = []
    joins = []
    bands = []

    for k, leaf in enumerate(leaves):
        y = rows[leaf.index]
        texts.append(
            '<text x="%s" y="%s" font-family="monospace" font-size="12" '
            'dominant-baseline="middle">%s</text>'
            % (f(margin), f(y), _escape(leaf.label))
        )

    def draw_x(node):
        if node.is_leaf:
            return x_of(0.0)
        return x_of(node.fusion if node.fusion is not None else node.h_lower)

    def node_y(node):
        ys = [rows[leaf.index] for leaf in node.leaves()]
        return (min(ys) + max(ys)) / 2.0

    def walk(node):
        if node.is_leaf:
            return
        x = draw_x(node)
        if node.h_upper > node.h_lower:
            ys = [rows[leaf.index] for leaf in node.leaves()]
            bands.append(
                '<rect class="band" x="%s" y="%s" width="%s" height="%s" '
                'fill="#888888" fill-opacity="0.35"/>'
                % (f(x_of(node.h_lower)), f(min(ys) - row_height * 0.3),
                   f(x_of(node.h_upper) - x_of(node.h_lower)),
                   f(max(ys) - min(ys) + row_height * 0.6))
            )
        child_ys = []
        for child in node.children:
            cy = node_y(child)
            child_ys.append(cy)
            joins.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" '
                'stroke-width="1.5"/>'
                % (f(draw_x(child)), f(cy), f(x), f(cy))
            )
            walk(child)
        joins.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" '
            'stroke-width="1.5"/>'
            % (f(x), f(min(child_ys)), f(x), f(max(child_ys)))
        )

    walk(tree.root)

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
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>'
        % (width, height),
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
