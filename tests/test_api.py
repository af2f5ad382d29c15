"""The public names of the package: what it exports, and what it no longer has."""
import pytest

import permpat
from permpat import core, gap, psi

REMOVED = [
    # the point-object layer, removed once gadget dumps were written straight
    # from the grid tuples
    "Point", "PointSet", "ROLES", "diagram", "reduce_points",
    "build_pattern_points", "build_text_points",
    # the inverse of inflate, which no library path called
    "deflate",
    # folded into gap.verify_core, which counts the inflation itself
    "count_inflated", "InflatedCount",
]


def test_every_export_resolves_once():
    assert len(permpat.__all__) == len(set(permpat.__all__))
    for name in permpat.__all__:
        assert hasattr(permpat, name), name


@pytest.mark.parametrize("module", [permpat, core, gap, psi], ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_gadget_has_no_point_properties():
    assert not hasattr(psi.PsiGadget, "pattern_points")
    assert not hasattr(psi.PsiGadget, "text_points")
