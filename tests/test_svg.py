import xml.etree.ElementTree as ET

import pytest

import qcslab as q
from qcslab.svgplot import Series

SERIES = [Series(label="s", x=[1, 2, 3], y=[2.0, 1.0, 3.0])]


def render(path, series=SERIES, title="t", markers=()):
    q.render_svg(path, series, "x", "y", title, markers)


class TestRenderSvg:
    def test_single_series_single_polyline(self, tmp_path):
        path = tmp_path / "c.svg"
        render(path)
        text = path.read_text()
        assert text.count("<polyline") == 1

    def test_marker_is_black_circle(self, tmp_path):
        path = tmp_path / "c.svg"
        render(path, markers=[(2.0, 1.0)])
        text = path.read_text()
        assert text.count('fill="#000000"') == 1

    def test_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render(p1, markers=[(1.0, 2.0)])
        render(p2, markers=[(1.0, 2.0)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_valid_xml_and_escaping(self, tmp_path):
        path = tmp_path / "c.svg"
        render(path, title="a < b & c")
        ET.fromstring(path.read_text())

    def test_validation(self, tmp_path):
        with pytest.raises(q.InvalidParameterError):
            render(tmp_path / "x", series=[])
        with pytest.raises(q.InvalidParameterError):
            render(tmp_path / "x", series=[Series(label="s", x=[1], y=[1, 2])])

    def test_single_point_series(self, tmp_path):
        path = tmp_path / "c.svg"
        render(path, series=[Series(label="s", x=[5], y=[1.0])])
        assert path.read_text().count("<circle") >= 1
