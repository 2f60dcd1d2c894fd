"""The benchmark's arithmetic: percentiles, latencies, failure shares and
per-layer self time.

Everything here is pure and deterministic so ``test_measure.py`` can pin
it without running a workload.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

#: A tail percentile is only reported when at least this many samples
#: lie beyond it (``req_p95_ms`` therefore needs 182 or more requests).
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation
    between order statistics (numpy's default ``"linear"`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def samples_beyond(values, q: float) -> int:
    """How many samples are strictly greater than the ``q``-th
    percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


@dataclass
class Op:
    """One operation a workload attempted: a flow, a campaign or a
    service request.

    Attributes:
        due: when the operation was scheduled to start (open loop) or
            started (closed loop), in seconds on the benchmark's clock.
        sent: when it was actually issued.
        done: when its answer arrived; ``None`` when none ever did.
        ok: the answer was a success (a refused or failed operation is
            ``False``).
    """

    due: float
    sent: float
    done: float | None
    ok: bool

    @property
    def latency_s(self) -> float:
        """Seconds from the scheduled start to the answer.

        Timing from ``due`` rather than ``sent`` charges a generator
        stall to the requests it delayed, as an open-loop user would see
        it. An unanswered operation has infinite latency.
        """
        if self.done is None:
            return math.inf
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator issued the operation."""
        return self.sent - self.due


def failed_count(ops) -> int:
    """Operations that failed, were refused or were never answered."""
    return sum(1 for op in ops if not op.ok or op.done is None)


def failed_frac(ops) -> float:
    """Failed operations over attempted ones."""
    ops = list(ops)
    if not ops:
        raise ValueError("no operations attempted")
    return failed_count(ops) / len(ops)


def within_limit_frac(ops, limit_s: float) -> float:
    """Share of operations answered ``ok`` within ``limit_s`` of their
    scheduled start; a refused or failed operation counts as a miss."""
    ops = list(ops)
    if not ops:
        raise ValueError("no operations attempted")
    hits = sum(1 for op in ops if op.ok and op.latency_s <= limit_s)
    return hits / len(ops)


# ---------------------------------------------------------------------------
# simulator lane agreement
# ---------------------------------------------------------------------------
def saturation_index(rates, rate) -> int:
    """Position of a detected saturation rate in the sweep (``None``,
    never saturated, sits one step past the last rate)."""
    return len(rates) if rate is None else list(rates).index(rate)


def lane_agreement(exact, batch, rates) -> tuple[bool, int, int, list]:
    """Compare the two lanes' detected saturation per pattern.

    Returns ``(agree, exact_matches, patterns, rel_errors)``: the lanes
    agree when every pattern's saturation lies on the same or the
    adjacent rate of the sweep; ``rel_errors`` are the batch lane's
    relative average-latency errors on every rate below both lanes'
    saturation.

    One step is the resolution of the detector at this protocol: a
    curve point within sampling noise of the 4x latency-blowup
    threshold flips between adjacent rates even between two exact-lane
    runs with different traffic seeds (vopd's app pattern sits at that
    threshold at 0.55). Exact matches are reported separately as
    ``simulation.batch.sat_match_frac``.
    """
    agree = True
    matches = 0
    rel_errors = []
    for pattern, e_curve in exact.curves.items():
        b_curve = batch.curves[pattern]
        e_index = saturation_index(rates, e_curve.saturation_rate)
        b_index = saturation_index(rates, b_curve.saturation_rate)
        matches += e_index == b_index
        agree = agree and abs(e_index - b_index) <= 1
        for i in range(min(e_index, b_index)):
            e_lat, b_lat = e_curve.avg_latency[i], b_curve.avg_latency[i]
            rel_errors.append(abs(b_lat - e_lat) / e_lat)
    return agree, matches, len(exact.curves), rel_errors


# ---------------------------------------------------------------------------
# span self time
# ---------------------------------------------------------------------------
def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Union of closed intervals as a sorted list of disjoint ones."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _subtract(start, end, holes) -> list[tuple[float, float]]:
    """``[start, end]`` minus the disjoint sorted intervals ``holes``."""
    pieces = []
    cursor = start
    for h_start, h_end in holes:
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= h_start:
            continue
        if h_start > cursor:
            pieces.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` records,
    ``parent`` being the index of the enclosing span or ``-1``. A span's
    self time is its interval minus the part its children cover; a
    name's self time is the measure of the union of its spans' self
    intervals, so concurrent spans of one name (service requests in
    flight together) are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    pieces: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for index, (name, start, end, _parent) in enumerate(spans):
        holes = merge_intervals(children.get(index, ()))
        pieces[name].extend(_subtract(start, end, holes))
    return {
        name: sum(e - s for s, e in merge_intervals(parts))
        for name, parts in pieces.items()
    }


def span_counts(spans) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)
