from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from brandmatch import (
    Embedding2D,
    PlotSpec,
    UnknownCategoryError,
    UnknownTargetError,
    emit_scatter_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _embedding(coords, labels=None, categories=None):
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    labels = tuple(labels) if labels else tuple(f"u{i}" for i in range(m))
    return Embedding2D(coordinates=coords, row_labels=labels,
                       categories=tuple(categories) if categories else None,
                       stress=0.0)


def _elements(svg, tag, cls=None):
    root = ET.fromstring(svg)
    found = root.iter(f"{SVG_NS}{tag}")
    if cls is None:
        return list(found)
    return [e for e in found if e.get("class") == cls]


def test_single_point_no_target():
    svg = emit_scatter_svg(_embedding([[0.0, 0.0]]), PlotSpec(title="one"))
    assert len(_elements(svg, "circle")) == 1
    assert len(_elements(svg, "text", "label")) == 1
    assert len(_elements(svg, "path")) == 0


def test_full_figure_structure():
    rng = np.random.RandomState(5)
    coords = rng.rand(26, 2)
    categories = [c for c in ("dogs", "cats", "mountains", "cars", "pizza")
                  for _ in range(5)] + ["target"]
    labels = [f"user{i:02d}" for i in range(25)] + ["brand"]
    spec = PlotSpec(title="Target brand profile: brand",
                    category_order=("dogs", "cats", "mountains", "cars", "pizza"))
    svg = emit_scatter_svg(_embedding(coords, labels, categories), spec,
                           target_index=25)
    assert len(_elements(svg, "circle")) == 25
    assert len(_elements(svg, "path", "target")) == 1
    assert len(_elements(svg, "text", "label")) == 26
    assert len(_elements(svg, "text", "legend")) == 6
    legend_names = [e.text for e in _elements(svg, "text", "legend")]
    assert legend_names == ["dogs", "cats", "mountains", "cars", "pizza", "target"]


def test_every_row_once_with_matching_label():
    labels = ("alice", "bob", "carol")
    svg = emit_scatter_svg(_embedding([[0, 0], [1, 0], [0, 1]], labels),
                           PlotSpec(title="t"), target_index=1)
    assert len(_elements(svg, "circle")) == 2
    assert len(_elements(svg, "path", "target")) == 1
    assert sorted(e.text for e in _elements(svg, "text", "label")) == sorted(labels)


def test_translation_yields_identical_svg():
    # dyadic coordinates and shift keep the float arithmetic exact
    coords = np.array([[0.0, 0.25], [1.5, -2.75], [-0.5, 0.5]])
    shifted = coords + np.array([3.25, -1.5])
    spec = PlotSpec(title="t")
    assert emit_scatter_svg(_embedding(coords), spec) == \
        emit_scatter_svg(_embedding(shifted), spec)


def test_byte_identical_across_calls():
    rng = np.random.RandomState(11)
    embedding = _embedding(rng.rand(7, 2), categories=["a"] * 7)
    spec = PlotSpec(title="repeat", category_order=("a",))
    assert emit_scatter_svg(embedding, spec) == emit_scatter_svg(embedding, spec)


def test_output_is_well_formed_xml():
    svg = emit_scatter_svg(_embedding([[0, 0], [1, 1]], labels=("a<b&c", 'd"e')),
                           PlotSpec(title="<&>"))
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"


def test_colors_follow_category_order():
    spec = PlotSpec(title="t", category_order=("zz", "aa"))
    svg = emit_scatter_svg(
        _embedding([[0, 0], [1, 1]], categories=("zz", "aa")), spec)
    circles = _elements(svg, "circle")
    assert circles[0].get("fill") == "#1f77b4"
    assert circles[1].get("fill") == "#ff7f0e"


def test_uncategorized_rows_drawn_neutral():
    svg = emit_scatter_svg(_embedding([[0, 0], [1, 1]]), PlotSpec(title="t"))
    assert all(c.get("fill") == "#999999" for c in _elements(svg, "circle"))


def test_unknown_category_rejected():
    spec = PlotSpec(title="t", category_order=("dogs",))
    with pytest.raises(UnknownCategoryError):
        emit_scatter_svg(_embedding([[0, 0]], categories=("pizza",)), spec)


def test_target_index_out_of_range():
    with pytest.raises(UnknownTargetError, match="^target index 4 outside 0..0$"):
        emit_scatter_svg(_embedding([[0, 0]]), PlotSpec(title="t"), target_index=4)


def test_plot_spec_rejects_tiny_viewport():
    # the viewport is fixed at 900x900 px with a 60 px margin: none can be asked for
    with pytest.raises(TypeError):
        PlotSpec(title="t", width_px=100, height_px=100, margin_px=60)


def test_aspect_ratio_preserved():
    # x range 10 units, y range 1 unit: the same scale applies to both axes
    svg = emit_scatter_svg(_embedding([[0, 0], [10, 0], [0, 1]]), PlotSpec(title="t"))
    circles = _elements(svg, "circle")
    xs = [float(c.get("cx")) for c in circles]
    ys = [float(c.get("cy")) for c in circles]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    assert span_x / span_y == pytest.approx(10.0, rel=0.01)


def test_markup_characters_escaped():
    spec = PlotSpec(title="R&D <pizza> &amp;", category_order=("a<b",))
    svg = emit_scatter_svg(_embedding([[0.0, 0.0], [1.0, 1.0]], labels=["x&y", "z>w"],
                                      categories=["a<b", "a<b"]), spec)
    assert ">R&amp;D &lt;pizza&gt; &amp;amp;</text>" in svg
    assert ">x&amp;y</text>" in svg and ">z&gt;w</text>" in svg
    assert ">a&lt;b</text>" in svg
    assert [e.text for e in _elements(svg, "text", "label")] == ["x&y", "z>w"]
    assert _elements(svg, "text", "title")[0].text == "R&D <pizza> &amp;"
    assert 'fill="#1f77b4"/>' in svg
