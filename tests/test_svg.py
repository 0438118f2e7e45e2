import xml.etree.ElementTree as ET

import pytest

import qcslab as q
from qcslab.svgplot import PlotSpec, Series


def simple_spec(**kwargs):
    defaults = dict(
        series=[Series(label="s", x=[1, 2, 3], y=[2.0, 1.0, 3.0])],
        x_label="x",
        y_label="y",
    )
    defaults.update(kwargs)
    return PlotSpec(**defaults)


class TestRenderSvg:
    def test_single_series_single_polyline(self, tmp_path):
        path = tmp_path / "c.svg"
        q.render_svg(simple_spec(), path)
        text = path.read_text()
        assert text.count("<polyline") == 1

    def test_marker_is_black_circle(self, tmp_path):
        path = tmp_path / "c.svg"
        q.render_svg(simple_spec(markers=[(2.0, 1.0)]), path)
        text = path.read_text()
        assert text.count('fill="#000000"') == 1

    def test_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        spec = simple_spec(markers=[(1.0, 2.0)], title="t")
        q.render_svg(spec, p1)
        q.render_svg(spec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_valid_xml_and_escaping(self, tmp_path):
        path = tmp_path / "c.svg"
        q.render_svg(simple_spec(title="a < b & c"), path)
        ET.fromstring(path.read_text())

    def test_validation(self, tmp_path):
        with pytest.raises(q.InvalidParameterError):
            q.render_svg(PlotSpec(series=[], x_label="x", y_label="y"), tmp_path / "x")
        with pytest.raises(q.InvalidParameterError):
            q.render_svg(
                simple_spec(series=[Series(label="s", x=[1], y=[1, 2])]),
                tmp_path / "x",
            )

    def test_single_point_series(self, tmp_path):
        path = tmp_path / "c.svg"
        q.render_svg(simple_spec(series=[Series(label="s", x=[5], y=[1.0])]), path)
        assert path.read_text().count("<circle") >= 1
