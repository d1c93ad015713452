"""Standalone SVG scatter plot of a 2-D embedding.

Category-colored circles for influencers, a gold star for the target brand,
a username label beside every point, and a legend. Output is a pure function
of the inputs: the same inputs give a byte-identical SVG.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

from .errors import BrandMatchError, UnknownTargetError

# 10 distinguishable category colors, assigned in order of each category's first row.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
TARGET_COLOR = "#ffd700"
UNCATEGORIZED_COLOR = "#999999"
# characters XML 1.0 forbids (NUL and lone surrogates too), which no label, category or
# title may hold; a lone surrogate cannot be written as UTF-8 either. A pattern, not a
# set: a set of the 2048 surrogates would hold a string object for each.
_NOT_IN_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_POINT_RADIUS = 6.0
_STAR_OUTER = 10.0
_LABEL_DX = 8.0
_LABEL_DY = 4.0
_PAD_FRACTION = 0.05
_WIDTH_PX = 900
_HEIGHT_PX = 900
_MARGIN_PX = 60


def _escape(text: str) -> str:
    # XML character data; & first so the entities added after are kept
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite_points(coordinates) -> list[tuple[float, float]]:
    """The rows of m x 2 ``coordinates`` as (x, y) pairs of finite floats, else BrandMatchError."""
    from numbers import Real  # here, so match and validate, which draw no plot, never load it
    try:
        points = [(x, y) for x, y in coordinates]
        numeric = all(isinstance(x, Real) and isinstance(y, Real) for x, y in points)
        finite = numeric and all(math.isfinite(x) and math.isfinite(y) for x, y in points)
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if not numeric:
        raise BrandMatchError("expected m x 2 coordinates of numbers")
    if not finite:
        raise BrandMatchError("coordinate array has a NaN or infinite entry")
    return [(float(x), float(y)) for x, y in points]


def _viewport_transform(points: list[tuple[float, float]]):
    xs, ys = zip(*points)
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    pad_x = _PAD_FRACTION * (x_max - x_min)
    pad_y = _PAD_FRACTION * (y_max - y_min)
    x0, x1 = x_min - pad_x, x_max + pad_x
    y0, y1 = y_min - pad_y, y_max + pad_y
    span_x, span_y = x1 - x0, y1 - y0
    avail_w = _WIDTH_PX - 2 * _MARGIN_PX
    avail_h = _HEIGHT_PX - 2 * _MARGIN_PX
    scales = []
    if span_x > 0.0:
        scales.append(avail_w / span_x)
    if span_y > 0.0:
        scales.append(avail_h / span_y)
    scale = min(scales) if scales else 1.0
    offset_x = _MARGIN_PX + (avail_w - scale * span_x) / 2.0
    offset_y = _MARGIN_PX + (avail_h - scale * span_y) / 2.0

    def to_pixel(x: float, y: float) -> tuple[float, float]:
        # SVG y grows downward; plot y grows upward
        return offset_x + (x - x0) * scale, offset_y + (y1 - y) * scale

    return to_pixel


def _star_path(cx: float, cy: float, outer: float = _STAR_OUTER) -> str:
    inner = outer * 0.4
    points = []
    for k in range(10):
        radius = outer if k % 2 == 0 else inner
        angle = math.radians(-90.0 + 36.0 * k)
        points.append(f"{cx + radius * math.cos(angle):.2f},{cy + radius * math.sin(angle):.2f}")
    return "M " + " L ".join(points) + " Z"


def emit_scatter_svg(coordinates: Sequence[Sequence[float]], labels: Sequence[str],
                     categories: Sequence[Optional[str]], title: str,
                     target_index: Optional[int] = None) -> str:
    """Render m x 2 coordinates, one label and category per row, as an SVG 1.1 string.

    Categories take palette colors in order of first appearance, skipping the
    target row; the legend lists them in that order, then the target. When the
    star is drawn, other rows of category ``target`` share its gold and its legend row.
    No rows, coordinates other than finite m x 2 numbers, or a text holding a
    character XML 1.0 forbids raise BrandMatchError (the latter naming its row).
    """
    points = _finite_points(coordinates)
    m = len(points)
    if m < 1:
        raise BrandMatchError("embedding has no rows")
    if len(labels) != m or len(categories) != m:
        raise BrandMatchError(f"{len(labels)} labels, {len(categories)} categories for {m} rows")
    if _NOT_IN_XML.search(title):
        raise BrandMatchError(f"title {title!r} holds a character XML 1.0 forbids")
    for i, (label, category) in enumerate(zip(labels, categories)):
        if _NOT_IN_XML.search(label + (category or "")):
            raise BrandMatchError(f"row {i}: label {label!r} or category {category!r} "
                                  "holds a character XML 1.0 forbids")
    if target_index is not None and not 0 <= target_index < m:
        raise UnknownTargetError(f"target index {target_index} outside 0..{m - 1}")
    colors: dict[str, str] = {}
    star = target_index is not None
    for i, category in enumerate(categories):
        if i != target_index and category is not None and not (star and category == "target"):
            colors.setdefault(category, PALETTE[len(colors) % len(PALETTE)])
    if star:
        colors["target"] = TARGET_COLOR
    to_pixel = _viewport_transform(points)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH_PX}" height="{_HEIGHT_PX}" '
        f'viewBox="0 0 {_WIDTH_PX} {_HEIGHT_PX}">',
        f'<rect x="0" y="0" width="{_WIDTH_PX}" height="{_HEIGHT_PX}" fill="#ffffff"/>',
        f'<text class="title" x="{_WIDTH_PX / 2:.2f}" y="{_MARGIN_PX / 2:.2f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="16">'
        f'{_escape(title)}</text>',
    ]

    pixels = [to_pixel(x, y) for x, y in points]
    for i, (px, py) in enumerate(pixels):
        if i == target_index:
            parts.append(f'<path class="target" d="{_star_path(px, py)}" '
                         f'fill="{TARGET_COLOR}" stroke="#806600" stroke-width="1"/>')
        else:
            color = colors.get(categories[i], UNCATEGORIZED_COLOR)
            parts.append(f'<circle class="point" cx="{px:.2f}" cy="{py:.2f}" '
                         f'r="{_POINT_RADIUS:.2f}" fill="{color}"/>')
    for label, (px, py) in zip(labels, pixels):
        parts.append(f'<text class="label" x="{px + _LABEL_DX:.2f}" y="{py + _LABEL_DY:.2f}" '
                     f'font-family="sans-serif" font-size="11">{_escape(label)}</text>')

    legend_x = _WIDTH_PX - _MARGIN_PX - 130
    legend_y = _MARGIN_PX + 10
    for row, (name, color) in enumerate(colors.items()):
        y = legend_y + 18 * row
        parts.append(f'<rect class="legend-swatch" x="{legend_x}" y="{y}" '
                     f'width="12" height="12" fill="{color}"/>')
        parts.append(f'<text class="legend" x="{legend_x + 18}" y="{y + 10}" '
                     f'font-family="sans-serif" font-size="12">{_escape(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
