import xml.etree.ElementTree as ET

import pytest

import qcslab as q
from qcslab.svgplot import Series, _data_range, _nice_ticks, _tick_labels

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


class TestTickLabels:
    def test_ticks_closer_than_floats_are_drawn_once(self, tmp_path):
        # Near 1e15 floats are 0.125 apart, so the 0.05 step's five
        # multiples round to two values; each is drawn once, labelled apart.
        ticks = _nice_ticks(*_data_range([1e15, 1e15 + 0.2]))
        assert ticks == [1e15, 1e15 + 0.25]
        assert _tick_labels(ticks) == ["1.0000000000000000e+15", "1.0000000000000002e+15"]
        path = tmp_path / "c.svg"
        render(path, series=[Series(label="s", x=[1e15, 1e15 + 0.2], y=[1.0, 2.0])])
        labels = [t.text for t in ET.fromstring(path.read_text()).findall(".//{*}text")]
        assert labels.count("1.0000000000000000e+15") == 1
        assert labels.count("1.0000000000000002e+15") == 1

    def test_labels_gain_digits_until_distinct(self):
        ticks = _nice_ticks(10000.0001, 10000.0009)
        assert len(ticks) == 4
        assert _tick_labels(ticks) == ["10000.0002", "10000.0004", "10000.0006", "10000.0008"]

    def test_distinct_labels_keep_their_format(self):
        assert _tick_labels([0.0, 0.5, 10000.0, 1e5, 2e-4]) == [
            "0", "0.5", "10000", "1.00e+05", "2.00e-04"
        ]
