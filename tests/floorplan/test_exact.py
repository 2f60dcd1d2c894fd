"""The column-decomposed floorplan solver against a general LP solver.

``_linprog_oracle`` states the Section 5 sizing LP in full — column
boundaries, every block's ``(y, w, h)`` and the chip height — and solves
it with ``scipy.optimize.linprog``. The exact solver must reach the same
optimal chip perimeter W + H and, where the optimum is unique, the same
column widths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import FloorplanError
from repro.floorplan.blocks import Block
from repro.floorplan.lp import TANGENT_CUTS, _legalize, _solve_lp

ORACLE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _linprog_oracle(columns, channel, max_aspect, bound_h=None):
    """Solve the full sizing LP with HiGHS.

    Returns ``(W + H, H, column inner widths)``, the inner width being
    the widest block of the column as ``_legalize`` reads it. With
    ``bound_h = (cost, sense)`` it instead returns the least
    (``sense=1``) or greatest (``sense=-1``) H among solutions with
    ``W + H <= cost``.
    """
    n_cols = len(columns)
    blocks = [b for col in columns for b in col]
    hv = n_cols + 3 * len(blocks)
    n_vars = hv + 1
    rows_a: list[np.ndarray] = []
    rows_b: list[float] = []

    def add(coeffs, rhs):
        row = np.zeros(n_vars)
        for idx, val in coeffs.items():
            row[idx] += val
        rows_a.append(row)
        rows_b.append(rhs)

    i = 0
    for c, col in enumerate(columns):
        prev = None
        for block in col:
            y, w, h = n_cols + 3 * i, n_cols + 3 * i + 1, n_cols + 3 * i + 2
            coeffs = {w: 1.0, c: -1.0}
            if c > 0:
                coeffs[c - 1] = 1.0
            add(coeffs, -channel)
            if prev is not None:
                add({prev: 1.0, prev + 2: 1.0, y: -1.0}, -channel)
            prev = y
            add({y: 1.0, h: 1.0, hv: -1.0}, 0.0)
            if block.is_soft:
                w_lo, w_hi = block.width_min, block.width_max
                for t in range(TANGENT_CUTS):
                    w0 = w_lo * (w_hi / w_lo) ** (t / max(1, TANGENT_CUTS - 1))
                    area = block.area_mm2
                    add({h: -1.0, w: -area / w0**2}, -2.0 * area / w0)
            i += 1
    if max_aspect is not None:
        add({hv: 1.0, n_cols - 1: -max_aspect}, 0.0)
        add({n_cols - 1: 1.0, hv: -max_aspect}, 0.0)

    bounds = [(0.0, None)] * n_cols
    for block in blocks:
        if block.is_soft:
            h_lo = math.sqrt(block.area_mm2 / block.aspect_max)
            h_hi = math.sqrt(block.area_mm2 / block.aspect_min)
        else:
            h_lo = h_hi = math.sqrt(block.area_mm2)
        bounds += [(0.0, None), (block.width_min, block.width_max), (h_lo, h_hi)]
    bounds.append((0.0, None))

    cost = np.zeros(n_vars)
    cost[n_cols - 1] = 1.0
    cost[hv] = 1.0
    if bound_h is not None:
        limit, sense = bound_h
        rows_a.append(cost.copy())
        rows_b.append(limit)
        cost = np.zeros(n_vars)
        cost[hv] = sense
    res = linprog(cost, A_ub=np.vstack(rows_a), b_ub=np.array(rows_b),
                  bounds=bounds, method="highs")
    if not res.success:
        raise FloorplanError(f"floorplan LP failed: {res.message}")
    x = res.x
    if bound_h is not None:
        return float(x[hv])
    widths = []
    i = 0
    for col in columns:
        col_w = 0.0
        for block in col:
            w = float(x[n_cols + 3 * i + 1]) if block.is_soft else block.width_min
            col_w = max(col_w, w)
            i += 1
        widths.append(col_w)
    return float(x[n_cols - 1] + x[hv]), float(x[hv]), widths


def _perimeter(widths, chip_h, channel, max_aspect):
    aspect = math.inf if max_aspect is None else max_aspect
    return max(sum(w + channel for w in widths), chip_h / aspect) + chip_h


def _block(i, area, soft, aspect_min, aspect_max):
    return Block(key=("core", i), name=f"b{i}", area_mm2=area, is_soft=soft,
                 aspect_min=aspect_min, aspect_max=aspect_max)


blocks = st.tuples(
    st.floats(0.05, 12.0),
    st.booleans(),
    st.floats(0.2, 1.0),
    st.floats(1.0, 5.0),
)


@ORACLE
@given(
    shape=st.lists(st.lists(blocks, min_size=1, max_size=8),
                   min_size=1, max_size=8),
    channel=st.sampled_from([0.0, 0.15]),
    max_aspect=st.sampled_from([None, 1.0, 3.0]),
)
def test_matches_linprog_optimum(shape, channel, max_aspect):
    columns = []
    i = 0
    for col in shape:
        columns.append([])
        for area, soft, lo, hi in col:
            columns[-1].append(_block(i, area, soft, lo, hi))
            i += 1
    widths, chip_h = _solve_lp(columns, channel, max_aspect)
    opt, oracle_h, oracle_widths = _linprog_oracle(columns, channel, max_aspect)
    assert _perimeter(widths, chip_h, channel, max_aspect) == pytest.approx(
        opt, rel=1e-9
    )
    # Where both reach the optimum at the same H the column widths are
    # unique, unless W is slack against the W >= H / a aspect line (any
    # column may then take the slack). Where H differs, the optimum is a
    # flat segment and the exact solver takes its largest H (see below).
    aspect = math.inf if max_aspect is None else max_aspect
    slack = sum(w + channel for w in widths) < chip_h / aspect * (1 - 1e-9)
    if oracle_h == pytest.approx(chip_h, rel=1e-11) and not slack:
        assert widths == pytest.approx(oracle_widths, rel=1e-7, abs=1e-9)
        fp = _legalize(columns, widths, channel, max_aspect)
        ref = _legalize(columns, oracle_widths, channel, max_aspect)
        assert fp.width_mm == pytest.approx(ref.width_mm, rel=1e-7)
        assert fp.height_mm == pytest.approx(ref.height_mm, rel=1e-7)


def test_flat_optimum_takes_largest_height():
    """Four columns of eight identical blocks whose least width is
    sqrt(2 A): W + H is flat while every column narrows from its least
    width to the next tangent kink, and the solver must stop at the
    tall, narrow end of that segment."""
    area = 1.0
    columns = [
        [_block(8 * c + r, area, True, 2.0, 8.0) for r in range(8)]
        for c in range(4)
    ]
    widths, chip_h = _solve_lp(columns, 0.15, None)
    opt, _h, _w = _linprog_oracle(columns, 0.15, None)
    tie = opt * (1.0 + 1e-9)
    h_min = _linprog_oracle(columns, 0.15, None, (tie, 1.0))
    h_max = _linprog_oracle(columns, 0.15, None, (tie, -1.0))
    assert h_max - h_min > 0.1  # the optimum is a whole segment
    # h_max may overshoot the segment by what the 1e-9 slack in W + H buys.
    assert chip_h == pytest.approx(h_max, abs=2e-9 * opt)
    assert widths == [math.sqrt(2.0 * area)] * 4
    assert _perimeter(widths, chip_h, 0.15, None) == pytest.approx(opt, rel=1e-12)


def test_hard_only_columns_need_no_sizing():
    columns = [[_block(0, 4.0, False, 1.0, 1.0)],
               [_block(1, 1.0, False, 1.0, 1.0), _block(2, 1.0, False, 1.0, 1.0)]]
    widths, chip_h = _solve_lp(columns, 0.15, None)
    assert widths == [2.0, 1.0]
    assert chip_h == pytest.approx(2.15)


@pytest.mark.parametrize("max_aspect", [0.5, math.nan])
def test_impossible_aspect_bound_rejected(max_aspect):
    columns = [[_block(0, 1.0, True, 0.5, 2.0)]]
    with pytest.raises(FloorplanError):
        _solve_lp(columns, 0.15, max_aspect)
    if max_aspect == 0.5:
        with pytest.raises(FloorplanError):
            _linprog_oracle(columns, 0.15, max_aspect)
