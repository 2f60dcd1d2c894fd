"""Floorplan block model.

Two block kinds exist in a SUNMAP floorplan: core blocks (areas supplied
with the application, usually *soft* — reshapeable within aspect-ratio
bounds) and switch blocks (areas from the analytical model of Section 5,
treated as hard square macros).

Block identity keys deliberately mirror the topology-graph node scheme:
``("core", core_index)`` and ``("sw", switch_key)``, so link-length lookup
is a direct translation of graph edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FloorplanError


@dataclass(frozen=True)
class Block:
    """One rectangular block to place.

    Attributes:
        key: ``("core", index)`` or ``("sw", switch_key)``.
        name: display name.
        area_mm2: required area; soft blocks may exceed it slightly after
            legalization, never undershoot it.
        is_soft: soft blocks choose their width within the aspect bounds,
            hard blocks are fixed squares.
        aspect_min / aspect_max: allowed width/height ratio for soft
            blocks.
    """

    key: tuple
    name: str
    area_mm2: float
    is_soft: bool = True
    aspect_min: float = 1.0 / 3.0
    aspect_max: float = 3.0

    def __post_init__(self):
        for field in ("area_mm2", "aspect_min", "aspect_max"):
            if not math.isfinite(getattr(self, field)):
                raise FloorplanError(
                    f"block {self.name!r} has non-finite {field}"
                )
        if self.area_mm2 <= 0:
            raise FloorplanError(f"block {self.name!r} needs positive area")
        if self.aspect_min <= 0 or self.aspect_max < self.aspect_min:
            raise FloorplanError(f"block {self.name!r} has bad aspect bounds")

    @property
    def width_min(self) -> float:
        """Smallest legal width (soft) or the fixed width (hard)."""
        if not self.is_soft:
            return math.sqrt(self.area_mm2)
        return math.sqrt(self.area_mm2 * self.aspect_min)

    @property
    def width_max(self) -> float:
        if not self.is_soft:
            return math.sqrt(self.area_mm2)
        return math.sqrt(self.area_mm2 * self.aspect_max)


@dataclass(frozen=True)
class BlockRect:
    """A placed block: lower-left corner plus dimensions (mm)."""

    block: Block
    x: float
    y: float
    w: float
    h: float

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area_mm2(self) -> float:
        return self.w * self.h

    def overlaps(self, other: "BlockRect", tol: float = 1e-9) -> bool:
        return not (
            self.x + self.w <= other.x + tol
            or other.x + other.w <= self.x + tol
            or self.y + self.h <= other.y + tol
            or other.y + other.h <= self.y + tol
        )
