from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandmatch import (
    BrandMatchError,
    MalformedFileError,
    UnknownTargetError,
    emit_scatter_svg,
    parse_user_list,
)
from brandmatch.visualization import PALETTE

SVG_NS = "{http://www.w3.org/2000/svg}"


def _embedding(coords, labels=None, categories=None):
    """The coordinates, labels and categories arguments of ``emit_scatter_svg``."""
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    labels = tuple(labels) if labels else tuple(f"u{i}" for i in range(m))
    return coords, labels, tuple(categories) if categories else (None,) * m


def _elements(svg, tag, cls=None):
    root = ET.fromstring(svg)
    found = root.iter(f"{SVG_NS}{tag}")
    if cls is None:
        return list(found)
    return [e for e in found if e.get("class") == cls]


def test_single_point_no_target():
    svg = emit_scatter_svg(*_embedding([[0.0, 0.0]]), "one")
    assert len(_elements(svg, "circle")) == 1
    assert len(_elements(svg, "text", "label")) == 1
    assert len(_elements(svg, "path")) == 0


def test_full_figure_structure():
    rng = np.random.RandomState(5)
    coords = rng.rand(26, 2)
    categories = [c for c in ("dogs", "cats", "mountains", "cars", "pizza")
                  for _ in range(5)] + ["target"]
    labels = [f"user{i:02d}" for i in range(25)] + ["brand"]
    svg = emit_scatter_svg(*_embedding(coords, labels, categories),
                           "Target brand profile: brand", target_index=25)
    assert len(_elements(svg, "circle")) == 25
    assert len(_elements(svg, "path", "target")) == 1
    assert len(_elements(svg, "text", "label")) == 26
    assert len(_elements(svg, "text", "legend")) == 6
    legend_names = [e.text for e in _elements(svg, "text", "legend")]
    assert legend_names == ["dogs", "cats", "mountains", "cars", "pizza", "target"]


def test_every_row_once_with_matching_label():
    labels = ("alice", "bob", "carol")
    svg = emit_scatter_svg(*_embedding([[0, 0], [1, 0], [0, 1]], labels),
                           "t", target_index=1)
    assert len(_elements(svg, "circle")) == 2
    assert len(_elements(svg, "path", "target")) == 1
    assert sorted(e.text for e in _elements(svg, "text", "label")) == sorted(labels)


def test_translation_yields_identical_svg():
    # dyadic coordinates and shift keep the float arithmetic exact
    coords = np.array([[0.0, 0.25], [1.5, -2.75], [-0.5, 0.5]])
    shifted = coords + np.array([3.25, -1.5])
    assert emit_scatter_svg(*_embedding(coords), "t") == \
        emit_scatter_svg(*_embedding(shifted), "t")


def test_byte_identical_across_calls():
    rng = np.random.RandomState(11)
    embedding = _embedding(rng.rand(7, 2), categories=["a"] * 7)
    assert emit_scatter_svg(*embedding, "repeat") == emit_scatter_svg(*embedding, "repeat")


def test_output_is_well_formed_xml():
    svg = emit_scatter_svg(*_embedding([[0, 0], [1, 1]], labels=("a<b&c", 'd"e')),
                           "<&>")
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    # tab, LF, CR and the line breaks XML allows are not among the characters it forbids
    svg = emit_scatter_svg(np.zeros((2, 2)), ("a\tb", "c\n\r"), ("d\x85", "\u2028"), "\u2029")
    assert [e.text for e in _elements(svg, "text", "legend")] == ["d\x85", "\u2028"]


# control characters and U+FFFE/U+FFFF often, so the XML 1.0 rule is exercised
_user_list_text = st.text(st.characters(blacklist_categories=("Cs",))
                          | st.sampled_from([chr(c) for c in range(32)] + ["\ufffe", "\uffff"]),
                          max_size=6)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(_user_list_text, _user_list_text), min_size=1, max_size=4))
def test_every_accepted_user_list_plots_as_well_formed_xml(lines, tmp_path_factory):
    users = tmp_path_factory.mktemp("list") / "users.txt"
    users.write_text("".join(f"{name},{category}\n" for name, category in lines),
                     encoding="utf-8")
    try:
        entries = parse_user_list(users)
    except MalformedFileError:
        return
    if not entries:
        return
    names = [name for name, _ in entries]
    svg = emit_scatter_svg(*_embedding([[i, i % 3] for i in range(len(entries))], names,
                                       [category for _, category in entries]),
                           f"Target brand profile: {names[0]}", target_index=0)
    root = ET.fromstring(svg.encode("utf-8"))
    assert [e.text for e in root.iter(f"{SVG_NS}text") if e.get("class") == "label"] == names


def test_colors_follow_category_order():
    # first appearance, not name order; the target row's category takes no color
    categories = ("brand", "zz", None, "aa", "zz", "brand")
    svg = emit_scatter_svg(
        *_embedding([[i, i % 2] for i in range(6)], categories=categories), "t",
        target_index=0)
    assert [c.get("fill") for c in _elements(svg, "circle")] == \
        ["#1f77b4", "#999999", "#ff7f0e", "#1f77b4", "#2ca02c"]
    assert [e.text for e in _elements(svg, "text", "legend")] == \
        ["zz", "aa", "brand", "target"]
    assert [e.get("fill") for e in _elements(svg, "rect", "legend-swatch")] == \
        ["#1f77b4", "#ff7f0e", "#2ca02c", "#ffd700"]


def test_target_category_rows_share_the_star_only_when_it_is_drawn():
    categories = ("target", "aa", "bb", "target")
    coordinates = [[0, 0], [1, 2], [2, 1], [3, 3]]
    starred = emit_scatter_svg(*_embedding(coordinates, categories=categories), "t",
                               target_index=1)
    assert [c.get("fill") for c in _elements(starred, "circle")] == \
        ["#ffd700", "#1f77b4", "#ffd700"]
    assert [e.text for e in _elements(starred, "text", "legend")] == ["bb", "target"]
    plain = emit_scatter_svg(*_embedding(coordinates, categories=categories), "t")
    assert [c.get("fill") for c in _elements(plain, "circle")] == \
        ["#1f77b4", "#ff7f0e", "#2ca02c", "#1f77b4"]
    assert [e.text for e in _elements(plain, "text", "legend")] == ["target", "aa", "bb"]


def test_palette_wraps_after_ten_categories():
    categories = [f"c{i:02d}" for i in range(12)]
    svg = emit_scatter_svg(*_embedding([[i, i * i] for i in range(12)],
                                       categories=categories), "t")
    fills = [c.get("fill") for c in _elements(svg, "circle")]
    assert fills[:10] == list(PALETTE) and fills[10:] == list(PALETTE[:2])
    assert [e.text for e in _elements(svg, "text", "legend")] == categories


def test_uncategorized_rows_drawn_neutral():
    svg = emit_scatter_svg(*_embedding([[0, 0], [1, 1]]), "t")
    assert all(c.get("fill") == "#999999" for c in _elements(svg, "circle"))


def test_target_index_out_of_range():
    with pytest.raises(UnknownTargetError, match="^target index 4 outside 0..0$"):
        emit_scatter_svg(*_embedding([[0, 0]]), "t", target_index=4)


@pytest.mark.parametrize("labels, categories", [
    (("a",), ("x", "y")),
    (("a", "b", "c"), ("x", "y")),
    (("a", "b"), ("x",)),
    (("a", "b"), (None, None, None)),
], ids=["fewer-labels", "more-labels", "fewer-categories", "more-categories"])
def test_label_and_category_counts_must_match_the_rows(labels, categories):
    message = f"^{len(labels)} labels, {len(categories)} categories for 2 rows$"
    with pytest.raises(BrandMatchError, match=message):
        emit_scatter_svg(np.zeros((2, 2)), labels, categories, "t")


@pytest.mark.parametrize("labels, categories, title, message", [
    (("a\x01b", "c"), ("dogs\x0c", None), "title\x02",
     r"^title 'title\\x02' holds"),
    (("a\x01b", "c"), ("dogs\x0c", None), "t",
     r"^row 0: label 'a\\x01b' or category 'dogs\\x0c' holds"),
    (("a", "c"), (None, "dogs\ufffe"), "t", r"^row 1: label 'c' or category 'dogs\\ufffe' holds"),
    (("a", "c\x00"), (None, None), "t", r"^row 1: label 'c\\x00' or category None holds"),
    (("a", "c"), (None, None), "t\udcff", r"^title 't\\udcff' holds"),
    (("a\ud800", "c"), (None, None), "t", r"^row 0: label 'a\\ud800' or category None holds"),
    (("a", "c"), (None, "dogs\udfff"), "t",
     r"^row 1: label 'c' or category 'dogs\\udfff' holds"),
], ids=["title", "label", "category", "nul", "surrogate-title", "surrogate-label",
        "surrogate-category"])
def test_texts_xml_forbids_are_rejected_naming_the_row(labels, categories, title, message):
    with pytest.raises(BrandMatchError, match=message + " a character XML 1.0 forbids$"):
        emit_scatter_svg(np.zeros((2, 2)), labels, categories, title)


@pytest.mark.parametrize("coordinates, message", [
    (np.array([[0.0, 1.0], [np.nan, 2.0]]), "^coordinate array has a NaN or infinite entry$"),
    (np.array([[0.0, np.inf], [1.0, 2.0]]), "^coordinate array has a NaN or infinite entry$"),
    ([[0.0, 1.0], [-math.inf, 2.0]], "^coordinate array has a NaN or infinite entry$"),
    (np.zeros((2, 3)), "^expected m x 2 coordinates of numbers$"),
    (np.zeros(2), "^expected m x 2 coordinates of numbers$"),
    (np.zeros((2, 2, 1)), "^expected m x 2 coordinates of numbers$"),
    ([[0.0, 1.0], [2.0]], "^expected m x 2 coordinates of numbers$"),
    ([["0", "1"], ["2", "3"]], "^expected m x 2 coordinates of numbers$"),
    ([[0.0, None], [2.0, 3.0]], "^expected m x 2 coordinates of numbers$"),
    ([[0.0, 10 ** 400], [2.0, 3.0]], "^expected m x 2 coordinates of numbers$"),
    (3.0, "^expected m x 2 coordinates of numbers$"),
], ids=["nan", "inf", "list_-inf", "three_columns", "1-D", "3-D", "ragged_list", "strings",
        "none", "beyond_float", "scalar"])
def test_coordinates_other_than_finite_m_by_2_are_rejected(coordinates, message):
    with pytest.raises(BrandMatchError, match=message):
        emit_scatter_svg(coordinates, ("a", "b"), (None, None), "t")


def test_coordinates_may_be_a_list_of_pairs():
    coords, labels, categories = _embedding([[0.0, 0.25], [1.5, -2.75], [-0.5, 0.5]])
    assert emit_scatter_svg(coords.tolist(), labels, categories, "t", target_index=1) == \
        emit_scatter_svg(coords, labels, categories, "t", target_index=1)


def test_an_embedding_without_rows_is_rejected():
    with pytest.raises(ValueError, match="^embedding has no rows$"):
        emit_scatter_svg(np.zeros((0, 2)), (), (), "t")


def test_viewport_size_cannot_be_asked_for():
    # the viewport is fixed at 900x900 px with a 60 px margin: none can be asked for
    with pytest.raises(TypeError):
        emit_scatter_svg(*_embedding([[0, 0]]), "t", width_px=100)


def test_aspect_ratio_preserved():
    # x range 10 units, y range 1 unit: the same scale applies to both axes
    svg = emit_scatter_svg(*_embedding([[0, 0], [10, 0], [0, 1]]), "t")
    circles = _elements(svg, "circle")
    xs = [float(c.get("cx")) for c in circles]
    ys = [float(c.get("cy")) for c in circles]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    assert span_x / span_y == pytest.approx(10.0, rel=0.01)


def test_markup_characters_escaped():
    svg = emit_scatter_svg(*_embedding([[0.0, 0.0], [1.0, 1.0]], labels=["x&y", "z>w"],
                                       categories=["a<b", "a<b"]), "R&D <pizza> &amp;")
    assert ">R&amp;D &lt;pizza&gt; &amp;amp;</text>" in svg
    assert ">x&amp;y</text>" in svg and ">z&gt;w</text>" in svg
    assert ">a&lt;b</text>" in svg
    assert [e.text for e in _elements(svg, "text", "label")] == ["x&y", "z>w"]
    assert _elements(svg, "text", "title")[0].text == "R&D <pizza> &amp;"
    assert 'fill="#1f77b4"/>' in svg
