from crossfam.geometry import PointSet
from crossfam.svgplot import SIZE, render_svg


def test_empty_set_is_the_bare_canvas():
    assert render_svg(PointSet(())) == (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>\n'
        '</svg>\n'
    )
