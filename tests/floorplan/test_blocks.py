"""Floorplan block model."""

import math

import pytest

from repro.errors import FloorplanError
from repro.floorplan.blocks import Block, BlockRect


class TestBlock:
    def test_soft_width_bounds_follow_aspect(self):
        b = Block(key=("core", 0), name="a", area_mm2=4.0,
                  aspect_min=0.25, aspect_max=4.0)
        assert b.width_min == pytest.approx(1.0)
        assert b.width_max == pytest.approx(4.0)

    def test_hard_block_is_square(self):
        b = Block(key=("sw", 0), name="s", area_mm2=0.25, is_soft=False)
        assert b.width_min == b.width_max == pytest.approx(0.5)

    def test_bad_area_rejected(self):
        with pytest.raises(FloorplanError):
            Block(key=("core", 0), name="a", area_mm2=0.0)

    def test_bad_aspect_rejected(self):
        with pytest.raises(FloorplanError):
            Block(key=("core", 0), name="a", area_mm2=1.0,
                  aspect_min=2.0, aspect_max=1.0)

    @pytest.mark.parametrize("field", ["area_mm2", "aspect_min", "aspect_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(FloorplanError, match=field):
            Block(key=("core", 0), name="a", **{"area_mm2": 1.0, field: value})


class TestBlockRect:
    def rect(self, x, y, w=1.0, h=1.0):
        b = Block(key=("core", 0), name="a", area_mm2=w * h)
        return BlockRect(block=b, x=x, y=y, w=w, h=h)

    def test_center(self):
        r = self.rect(1.0, 2.0, 2.0, 4.0)
        assert r.center == (2.0, 4.0)

    def test_area(self):
        assert self.rect(0, 0, 2.0, 3.0).area_mm2 == pytest.approx(6.0)

    def test_overlap_detection(self):
        a = self.rect(0.0, 0.0, 2.0, 2.0)
        b = self.rect(1.0, 1.0, 2.0, 2.0)
        c = self.rect(2.0, 0.0, 1.0, 1.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching edges do not overlap
        assert not b.overlaps(c)
