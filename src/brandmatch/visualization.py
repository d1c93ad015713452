"""Standalone SVG scatter plot of a 2-D embedding.

Category-colored circles for influencers, a gold star for the target brand,
a username label beside every point, and a legend. Output is a pure function
of the inputs: same embedding and spec, byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .embedding import Embedding2D
from .errors import TargetOutOfRangeError, UnknownCategoryError

# 10 distinguishable category colors (assigned by category_order position).
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
TARGET_COLOR = "#ffd700"
UNCATEGORIZED_COLOR = "#999999"

_POINT_RADIUS = 6.0
_STAR_OUTER = 10.0
_LABEL_DX = 8.0
_LABEL_DY = 4.0
_PAD_FRACTION = 0.05


@dataclass(frozen=True)
class PlotSpec:
    title: str
    width_px: int = 900
    height_px: int = 900
    margin_px: int = 60
    category_order: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        minimum = 2 * self.margin_px + 10
        if self.width_px < minimum or self.height_px < minimum:
            raise ValueError(
                f"viewport {self.width_px}x{self.height_px} too small for margin {self.margin_px}")


def _escape(text: str) -> str:
    # XML character data; & first so the entities added after are kept
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _color_for(category: Optional[str], order: tuple[str, ...]) -> str:
    if category is None:
        return UNCATEGORIZED_COLOR
    try:
        return PALETTE[order.index(category) % len(PALETTE)]
    except ValueError:
        raise UnknownCategoryError(f"category {category!r} not in plot category order") from None


def _viewport_transform(coordinates, spec: PlotSpec):
    xs = coordinates[:, 0]
    ys = coordinates[:, 1]
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(ys.min()), float(ys.max())
    pad_x = _PAD_FRACTION * (x_max - x_min)
    pad_y = _PAD_FRACTION * (y_max - y_min)
    x0, x1 = x_min - pad_x, x_max + pad_x
    y0, y1 = y_min - pad_y, y_max + pad_y
    span_x, span_y = x1 - x0, y1 - y0
    avail_w = spec.width_px - 2 * spec.margin_px
    avail_h = spec.height_px - 2 * spec.margin_px
    scales = []
    if span_x > 0.0:
        scales.append(avail_w / span_x)
    if span_y > 0.0:
        scales.append(avail_h / span_y)
    scale = min(scales) if scales else 1.0
    offset_x = spec.margin_px + (avail_w - scale * span_x) / 2.0
    offset_y = spec.margin_px + (avail_h - scale * span_y) / 2.0

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


def emit_scatter_svg(embedding: Embedding2D, spec: PlotSpec,
                     target_index: Optional[int] = None) -> str:
    """Render the embedding as a self-contained SVG 1.1 document string."""
    m = embedding.coordinates.shape[0]
    if m < 1:
        raise ValueError("embedding has no rows")
    if target_index is not None and not 0 <= target_index < m:
        raise TargetOutOfRangeError(f"target index {target_index} outside 0..{m - 1}")
    categories = embedding.categories or (None,) * m
    to_pixel = _viewport_transform(embedding.coordinates, spec)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
        f'<rect x="0" y="0" width="{spec.width_px}" height="{spec.height_px}" fill="#ffffff"/>',
        f'<text class="title" x="{spec.width_px / 2:.2f}" y="{spec.margin_px / 2:.2f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="16">'
        f'{_escape(spec.title)}</text>',
    ]

    pixels = [to_pixel(float(x), float(y)) for x, y in embedding.coordinates]
    for i, (px, py) in enumerate(pixels):
        if i == target_index:
            parts.append(f'<path class="target" d="{_star_path(px, py)}" '
                         f'fill="{TARGET_COLOR}" stroke="#806600" stroke-width="1"/>')
        else:
            color = _color_for(categories[i], spec.category_order)
            parts.append(f'<circle class="point" cx="{px:.2f}" cy="{py:.2f}" '
                         f'r="{_POINT_RADIUS:.2f}" fill="{color}"/>')
    for i, (px, py) in enumerate(pixels):
        parts.append(f'<text class="label" x="{px + _LABEL_DX:.2f}" y="{py + _LABEL_DY:.2f}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_escape(embedding.row_labels[i])}</text>')

    legend_entries = [(name, PALETTE[i % len(PALETTE)])
                      for i, name in enumerate(spec.category_order)]
    if target_index is not None:
        legend_entries.append(("target", TARGET_COLOR))
    legend_x = spec.width_px - spec.margin_px - 130
    legend_y = spec.margin_px + 10
    for row, (name, color) in enumerate(legend_entries):
        y = legend_y + 18 * row
        parts.append(f'<rect class="legend-swatch" x="{legend_x}" y="{y}" '
                     f'width="12" height="12" fill="{color}"/>')
        parts.append(f'<text class="legend" x="{legend_x + 18}" y="{y + 10}" '
                     f'font-family="sans-serif" font-size="12">{_escape(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
