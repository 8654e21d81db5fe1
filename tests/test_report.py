"""SVG scatter rendering and ranking export."""
from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

import pytest

from citnorm.errors import ValidationError
from citnorm.indicators import UnitScore
from citnorm.report import CANVAS, ScatterSpec, render_ranking, render_scatter


def us(uid, cpp=None, m1=None, m2=None, n2=95):
    return UnitScore(unit_id=uid, n_total=n2 + 1, n_mncs2=n2, n_excluded_zero_e=0,
                     cpp_fcsm=cpp, mncs1=m1, mncs2=m2)


def metadata(svg: str) -> dict[str, str]:
    match = re.search(r"<!-- (.*?) -->", svg)
    assert match is not None
    return dict(item.split("=", 1) for item in match.group(1).split())


def markers(svg: str):
    root = ET.fromstring(svg)  # also proves well-formed XML
    ns = "{http://www.w3.org/2000/svg}"
    squares = [el for el in root.iter(f"{ns}rect") if el.get("fill") == "#CC0000"]
    circles = [el for el in root.iter(f"{ns}circle") if el.get("fill") == "#0033CC"]
    return squares, circles


class TestRenderScatter:
    def test_point_on_identity_line(self):
        svg = render_scatter([us("A", cpp=1.0, m1=1.0)],
                             ScatterSpec("cpp_fcsm", "mncs1"))
        _, circles = markers(svg)
        assert len(circles) == 1
        cx, cy = float(circles[0].get("cx")), float(circles[0].get("cy"))
        # the identity line runs corner to corner, so x + y is the canvas size
        assert cx + cy == pytest.approx(CANVAS, abs=0.02)

    def test_threshold_boundary(self):
        svg = render_scatter(
            [us("small", cpp=1.0, m1=2.0, n2=50), us("large", cpp=2.0, m1=1.0, n2=51)],
            ScatterSpec("cpp_fcsm", "mncs1", threshold=50),
        )
        squares, circles = markers(svg)
        assert len(squares) == 1 and len(circles) == 1  # 50 is red, 51 is blue

    def test_axis_cap_omits_and_tallies(self):
        svg = render_scatter(
            [us("in", cpp=1.0, m1=1.0), us("out", cpp=3.0, m1=3.0)],
            ScatterSpec("cpp_fcsm", "mncs1", axis_max=2.5),
        )
        meta = metadata(svg)
        assert meta["markers"] == "1" and meta["clipped"] == "1"
        squares, circles = markers(svg)
        assert len(squares) + len(circles) == 1

    def test_undefined_scores_omitted_and_counted(self):
        svg = render_scatter(
            [us("A", cpp=1.0, m1=1.0), us("B", cpp=1.0, m1=None), us("C", cpp=None)],
            ScatterSpec("cpp_fcsm", "mncs1"),
        )
        meta = metadata(svg)
        assert meta["undefined"] == "2"
        assert int(meta["markers"]) + int(meta["clipped"]) + int(meta["undefined"]) == 3

    def test_default_axis_max_covers_peak(self):
        svg = render_scatter(
            [us("A", cpp=2.0, m1=4.0), us("B", cpp=1.0, m1=1.0)],
            ScatterSpec("cpp_fcsm", "mncs1"),
        )
        meta = metadata(svg)
        assert float(meta["axis_max"]) == pytest.approx(4.2)
        assert meta["markers"] == "2" and meta["clipped"] == "0"

    def test_deterministic_bytes(self):
        scores = [us("A", cpp=1.25, m1=0.75), us("B", cpp=0.5, m1=2.25, n2=10)]
        spec = ScatterSpec("cpp_fcsm", "mncs1")
        assert render_scatter(scores, spec) == render_scatter(scores, spec)

    def test_no_plottable_units_rejected(self):
        with pytest.raises(ValidationError, match="no plottable units"):
            render_scatter([us("A", cpp=None, m1=1.0)], ScatterSpec("cpp_fcsm", "mncs1"))

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="indicators"):
            ScatterSpec("cpp_fcsm", "h_index")
        with pytest.raises(ValidationError, match="threshold"):
            ScatterSpec("cpp_fcsm", "mncs1", threshold=-1)
        with pytest.raises(ValidationError, match="axis_max"):
            ScatterSpec("cpp_fcsm", "mncs1", axis_max=0.0)


class TestRenderRanking:
    def test_truncation_noop(self):
        scores = [us("A", m2=1.5), us("B", m2=2.0), us("C", m2=1.5)]
        lines = render_ranking(scores, by="mncs2", top=10).splitlines()
        assert lines[0] == "rank,unit_id,score"
        assert len(lines) == 4

    def test_order_and_tiebreak(self):
        scores = [us("C", m2=1.5), us("A", m2=1.5), us("B", m2=2.0)]
        lines = render_ranking(scores, by="mncs2", top=10).splitlines()
        assert lines[1] == "1,B,2.00"
        assert lines[2] == "2,A,1.50"
        assert lines[3] == "3,C,1.50"

    def test_undefined_renders_na_and_ranks_last(self):
        scores = [us("A", m2=None), us("B", m2=2.0)]
        lines = render_ranking(scores, by="mncs2", top=10).splitlines()
        assert lines[1] == "1,B,2.00"
        assert lines[2] == "2,A,NA"


COORDINATES = {"x", "y", "width", "height", "x1", "y1", "x2", "y2", "cx", "cy"}


def assert_on_canvas(svg: str) -> None:
    """Parse the document and check that every coordinate and the axis maximum are finite
    and every coordinate lies on the canvas."""
    for element in ET.fromstring(svg).iter():
        for name in COORDINATES & element.attrib.keys():
            assert 0 <= float(element.get(name)) <= CANVAS
    assert math.isfinite(float(metadata(svg)["axis_max"]))


@pytest.mark.parametrize("axis_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_axis_max_must_be_finite_and_positive(axis_max):
    with pytest.raises(ValidationError, match="^axis_max must be finite and > 0: got "):
        ScatterSpec("cpp_fcsm", "mncs1", axis_max=axis_max)


@pytest.mark.parametrize("scores, axis_max, drawn", [
    ([us("A", cpp=1.75e308, m1=1.0), us("B", cpp=1.0, m1=1.0)], None, 2),  # 1.05 × peak overflows
    ([us("A", cpp=-1e308, m1=0.0), us("B", cpp=1.0, m1=2.0)], 1e-300, 0),
    ([us("A", cpp=-1.0, m1=-2.0), us("B", cpp=1.0, m1=1.0)], None, 1),
], ids=["overflowing-peak", "negative-under-tiny-cap", "negative"])
def test_units_off_the_axes_are_clipped(scores, axis_max, drawn):
    svg = render_scatter(scores, ScatterSpec("cpp_fcsm", "mncs1", axis_max=axis_max))
    assert_on_canvas(svg)
    meta = metadata(svg)
    assert (int(meta["markers"]), int(meta["clipped"])) == (drawn, len(scores) - drawn)


@pytest.mark.parametrize("unit", ["\x00", "\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_unit_id_xml_forbids_is_rejected(unit):
    scores = [us("A", cpp=1.0, m1=1.0), us(f"u{unit}", cpp=1.0, m1=1.0)]
    with pytest.raises(ValidationError) as raised:
        render_scatter(scores, ScatterSpec("cpp_fcsm", "mncs1"))
    assert str(raised.value) == f"unit id {'u' + unit!r} holds a character XML 1.0 forbids"


def test_unit_ids_xml_allows_are_drawn():
    ids = ["tab\tid", "new\nline", "<&>", "\x7f", "\ud7ff", "\ue000", "\ufffd", "\U0010ffff"]
    svg = render_scatter([us(uid, cpp=1.0, m1=1.0) for uid in ids],
                         ScatterSpec("cpp_fcsm", "mncs1"))
    assert_on_canvas(svg)
    titles = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}title")]
    assert titles == sorted(ids)
