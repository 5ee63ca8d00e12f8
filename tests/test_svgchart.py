import re

import pytest

from dcmetrics import render_line_chart


def polyline_points(svg):
    return re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg)


def x_tick_labels(svg):
    return re.findall(r'<text x="[^"]*" y="450" text-anchor="middle">([^<]*)</text>', svg)


@pytest.mark.parametrize("series", [[], [("a", [(1.0, 2.0)]), ("b", [])]])
def test_series_without_points_rejected(series):
    with pytest.raises(ValueError, match="^every series needs at least one point$"):
        render_line_chart(series)


def test_flat_ranges_centre_the_point():
    """One x value and one y value: each range is widened by 0.5 both ways,
    so the point sits in the middle of the plot area."""
    svg = render_line_chart([("flat", [(2.0, 0.5)])])
    assert polyline_points(svg) == ["308,236"]
    assert x_tick_labels(svg) == ["2"]


def test_more_than_twelve_x_values_take_nine_even_ticks():
    svg = render_line_chart([("line", [(float(x), float(x * x)) for x in range(13)])])
    assert x_tick_labels(svg) == ["0", "1.5", "3", "4.5", "6", "7.5", "9", "10.5", "12"]
    svg = render_line_chart([("line", [(float(x), float(x * x)) for x in range(12)])])
    assert x_tick_labels(svg) == [str(x) for x in range(12)]
