"""LP-based floorplanner (paper Section 5, after [21]).

Given the column structure from :mod:`repro.floorplan.positions` (the
relative positions implied by the mapping), one linear program sizes the
blocks to minimize chip width + height: blocks stack in their column a
channel apart, a column is as wide as its widest block plus a channel,
hard blocks are fixed squares, soft blocks choose a width within their
aspect range with ``h >= A / w`` approximated from below by
``TANGENT_CUTS`` tangent cuts, and the chip aspect ratio is bounded by
``max_aspect`` both ways. A legalization pass then restores exact areas
and re-stacks the columns, so the result is overlap-free and
area-conserving even where the tangent approximation was loose.

The LP is solved exactly by column decomposition rather than by a
general solver. Block offsets ``y`` and heights ``h`` need not be
variables: at a given column width each block takes its lowest height,
and legalization reads only the column widths. A column's stack height
is thus convex, piecewise linear and non-increasing in its width, and so
is ``D(H)``, the least chip width at which every column fits in height
``H``. The LP becomes "minimize ``max(D(H), H / a) + H`` subject to
``D(H) <= a * H``", a convex piecewise-linear function of ``H`` whose
minimum lies at a kink of some column or on an aspect line. Where
several ``H`` tie (a flat segment, within ``_TIE_RTOL``), the largest is
taken, so the floorplan is a documented vertex, not whichever optimal
vertex a solver happens to return.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError
from repro.floorplan.blocks import Block, BlockRect
from repro.floorplan.positions import derive_columns
from repro.physical.technology import TECH_100NM, Technology
from repro.topology.base import Topology, is_term

#: Wiring-channel margin between blocks and columns (mm).
DEFAULT_CHANNEL_MM = 0.15

#: Number of tangent cuts approximating h >= A/w for soft blocks.
TANGENT_CUTS = 5

#: Relative gap within which two chip perimeters W + H tie.
_TIE_RTOL = 1e-12

#: Shortest physical link length accounted (same-tile connections), mm.
MIN_LINK_MM = 0.05


@dataclass
class FloorplanResult:
    """A legalized floorplan."""

    rects: dict[tuple, BlockRect]
    width_mm: float
    height_mm: float
    columns: list[list[tuple]]

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.height_mm

    @property
    def aspect_ratio(self) -> float:
        """max(W, H) / min(W, H) >= 1."""
        lo = min(self.width_mm, self.height_mm)
        hi = max(self.width_mm, self.height_mm)
        return hi / lo if lo > 0 else math.inf

    @property
    def block_area_mm2(self) -> float:
        return sum(r.area_mm2 for r in self.rects.values())

    @property
    def whitespace_fraction(self) -> float:
        if self.area_mm2 <= 0:
            return 0.0
        return max(0.0, 1.0 - self.block_area_mm2 / self.area_mm2)

    # ------------------------------------------------------------------
    def link_lengths(
        self, topology: Topology, assignment: dict
    ) -> dict[tuple, float]:
        """Manhattan length (mm) of every placed topology link."""
        lengths = {}
        slot_to_core = {s: c for c, s in assignment.items()}
        for u, v in topology.graph.edges():
            cu = self._center(u, slot_to_core)
            cv = self._center(v, slot_to_core)
            if cu is None or cv is None:
                continue
            dist = abs(cu[0] - cv[0]) + abs(cu[1] - cv[1])
            lengths[(u, v)] = max(dist, MIN_LINK_MM)
        return lengths

    def _center(self, node, slot_to_core):
        if is_term(node):
            core = slot_to_core.get(node[1])
            rect = self.rects.get(("core", core)) if core is not None else None
        else:
            rect = self.rects.get(node)
        return rect.center if rect is not None else None

    def validate(self) -> None:
        """Check legality; raises :class:`FloorplanError` on violation."""
        rects = list(self.rects.values())
        for r in rects:
            if r.x < -1e-9 or r.y < -1e-9:
                raise FloorplanError(f"block {r.block.name} outside origin")
            if r.x + r.w > self.width_mm + 1e-6:
                raise FloorplanError(f"block {r.block.name} exceeds width")
            if r.y + r.h > self.height_mm + 1e-6:
                raise FloorplanError(f"block {r.block.name} exceeds height")
            if r.area_mm2 < r.block.area_mm2 - 1e-6:
                raise FloorplanError(f"block {r.block.name} under area")
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a.overlaps(b):
                    raise FloorplanError(
                        f"blocks {a.block.name} and {b.block.name} overlap"
                    )


# ----------------------------------------------------------------------
def _convex_pwl(
    x0: float, y0: float, slope: float, kinks: list[tuple[float, float]]
) -> tuple[list[float], list[float], list[float]]:
    """A piecewise-linear function from its start and its kinks.

    ``kinks`` are ``(x, slope increase)``. Returns ``(xs, ys, slopes)``:
    the function passes through ``(xs[k], ys[k])`` with slope
    ``slopes[k]`` right of ``xs[k]``, and is flat beyond the last point.
    """
    xs, ys, slopes = [x0], [y0], [slope]
    for x, rise in sorted(kinks):
        if x > xs[-1]:
            ys.append(ys[-1] + slopes[-1] * (x - xs[-1]))
            xs.append(x)
            slopes.append(slopes[-1])
        slopes[-1] += rise
    slopes[-1] = 0.0
    return xs, ys, slopes


def _stack_profile(column: list[Block], channel: float):
    """A column's lowest stack height as a function of its inner width.

    A soft block's lowest height is its tangent envelope at
    ``min(w, width_max)``: tangent ``t`` touches ``A / w`` at ``w_t`` and
    is active between the harmonic means of ``w_t`` and its neighbours.
    Hard blocks add their side, neighbours a channel.
    """
    lo = max(b.width_min for b in column)
    height = (len(column) - 1) * channel
    slope = 0.0
    kinks: list[tuple[float, float]] = []
    for block in column:
        w_lo, w_hi, area = block.width_min, block.width_max, block.area_mm2
        if not block.is_soft or lo >= w_hi:
            height += area / w_hi
            continue
        points = [
            w_lo * (w_hi / w_lo) ** (t / max(1, TANGENT_CUTS - 1))
            for t in range(TANGENT_CUTS)
        ]
        height += max(2.0 * area / w0 - area * lo / (w0 * w0) for w0 in points)
        slopes = [-area / (w0 * w0) for w0 in points] + [0.0]
        knots = [2.0 * a * b / (a + b) for a, b in zip(points, points[1:])]
        knots.append(w_hi)
        first = bisect.bisect_right(knots, lo)
        slope += slopes[first]
        kinks += [
            (knots[k], slopes[k + 1] - slopes[k])
            for k in range(first, len(knots))
        ]
    return _convex_pwl(lo, height, slope, kinks)


def _width_for(profile, chip_h: float) -> float:
    """Least inner width at which the column's stack fits in ``chip_h``."""
    xs, heights, slopes = profile
    k = 0
    while heights[k] > chip_h:
        k += 1
    if k == 0 or heights[k] == chip_h:
        return xs[k]
    return xs[k] + (chip_h - heights[k]) / slopes[k - 1]


def _solve_lp(
    columns: list[list[Block]],
    channel: float,
    max_aspect: float | None,
) -> tuple[list[float], float]:
    """Solve the sizing LP exactly; returns (column inner widths, H).

    Sweeps ``D(H)`` up the merged kinks of the columns from the least
    ``H`` any column allows, then evaluates ``max(D(H), H / a) + H`` at
    every kink between the two aspect-line crossings and at both.
    """
    aspect = math.inf if max_aspect is None else max_aspect
    if not aspect >= 1.0:
        raise FloorplanError(f"no floorplan meets max_aspect={max_aspect}")
    profiles = [_stack_profile(col, channel) for col in columns]
    chip_h = max(heights[-1] for _xs, heights, _s in profiles)
    width = len(columns) * channel
    slope = 0.0
    kinks: list[tuple[float, float]] = []  # (H, change of dD/dH)
    for profile in profiles:
        _xs, heights, slopes = profile
        width += _width_for(profile, chip_h)
        # dx/dH is 1 / slope below the column's top kink, 0 above it.
        inverse = [0.0] + [1.0 / s for s in slopes[:-1]]
        slope += inverse[-1]
        kinks += [(h, inverse[j] - inverse[j + 1]) for j, h in enumerate(heights[:-1])]
    hs, ds, ms = _convex_pwl(chip_h, width, slope, kinks)

    def crossing(ratio: float) -> float:
        """Least H with D(H) <= ratio * H."""
        i = 0
        while i < len(hs) and ds[i] > ratio * hs[i]:
            i += 1
        if i == 0:
            return hs[0]
        return (ds[i - 1] - ms[i - 1] * hs[i - 1]) / (ratio - ms[i - 1])

    low = crossing(aspect)
    high = crossing(1.0 / aspect) if aspect < math.inf else math.inf
    # (H, W) at every vertex of max(D(H), H / a) on [low, high].
    vertices = [(low, ds[0] if low == hs[0] else aspect * low)]
    vertices += [(h, d) for h, d in zip(hs, ds) if low < h < high]
    if low < high < math.inf:
        vertices.append((high, high / aspect))
    costs = [max(w, h / aspect) + h for h, w in vertices]
    best = min(costs)
    chip_h = max(
        h for (h, _w), cost in zip(vertices, costs)
        if cost <= best * (1.0 + _TIE_RTOL)
    )
    return [_width_for(profile, chip_h) for profile in profiles], chip_h


def _legalize(
    columns: list[list[Block]],
    inner_widths: list[float],
    channel: float,
    max_aspect: float | None = None,
) -> FloorplanResult:
    """Restore exact areas and re-stack; always overlap-free.

    When the tight packing violates ``max_aspect``, the short dimension
    is padded with whitespace — the aspect bound thus converts into an
    area cost that the area constraint judges downstream.
    """
    rects: dict[tuple, BlockRect] = {}
    col_keys: list[list[tuple]] = []
    x0 = 0.0
    height = 0.0
    for col, inner in zip(columns, inner_widths):
        keys = []
        y = channel / 2.0
        for block in col:
            if block.is_soft:
                # Widen to fill the column (within aspect bounds); the
                # freed height tightens the chip without re-solving.
                w = min(block.width_max, inner)
                h = max(block.area_mm2 / w,
                        math.sqrt(block.area_mm2 / block.aspect_max))
            else:
                w = h = math.sqrt(block.area_mm2)
            x = x0 + channel / 2.0 + (inner - w) / 2.0
            rects[block.key] = BlockRect(block=block, x=x, y=y, w=w, h=h)
            keys.append(block.key)
            y += h + channel
        height = max(height, y - channel / 2.0)
        col_keys.append(keys)
        x0 += inner + channel
    if max_aspect is not None and x0 > 0 and height > 0:
        if height > max_aspect * x0:
            x0 = height / max_aspect
        elif x0 > max_aspect * height:
            height = x0 / max_aspect
    return FloorplanResult(
        rects=rects, width_mm=x0, height_mm=height, columns=col_keys
    )


def floorplan_mapping(
    topology: Topology,
    assignment: dict[int, int],
    core_graph: CoreGraph,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
    channel_mm: float = DEFAULT_CHANNEL_MM,
    max_aspect: float | None = 3.0,
) -> FloorplanResult:
    """Floorplan one mapping (Figure 5, step 7).

    Args:
        topology: the NoC.
        assignment: core index -> terminal slot.
        core_graph: supplies core block areas and softness.
        used_switches: prune unused multistage switches before placing.
        max_aspect: chip aspect-ratio bound fed to the LP (None = free).

    Raises:
        FloorplanError: if the LP is infeasible (``max_aspect`` below 1)
            — the mapping is then area-infeasible.
    """
    columns = derive_columns(
        topology,
        assignment,
        core_graph,
        used_switches=used_switches,
        tech=tech,
    )
    columns = [col for col in columns if col]
    if not columns:
        raise FloorplanError("nothing to floorplan")
    inner_widths, _height = _solve_lp(columns, channel_mm, max_aspect)
    result = _legalize(columns, inner_widths, channel_mm, max_aspect)
    result.validate()
    return result
