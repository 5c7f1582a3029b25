"""Statistics for the repository benchmark (perfbench/run.py).

Pure functions over recorded observations, so perfbench/test_stats.py can
check them on fixed inputs without timing anything.
"""

import math
import statistics

# Tail percentiles considered, highest first. A percentile qualifies when at
# least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail(values, percentile=None, min_beyond=TAIL_MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, no higher than `percentile` when one is given.

    A workload pins `percentile` to the one this rule picks at its
    calibrated sample count, so a run that completes more requests keeps
    reporting the same percentile; a run with too few samples steps down.
    Returns (value, percentile, sample_count), the value by nearest rank.
    With fewer than 2 * min_beyond samples no ladder percentile qualifies
    and the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    for p in TAIL_LADDER:
        if percentile is not None and p > percentile:
            continue
        k = math.ceil(p / 100.0 * n)
        if n - k >= min_beyond:
            return xs[k - 1], p, n
    return xs[-1], 100.0, n


def percentile(values, p):
    """The `p`th percentile by nearest rank, and how many samples lie beyond
    it. (0.0, 0) without samples."""
    xs = sorted(values)
    if not xs:
        return 0.0, 0
    k = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def median(values):
    return statistics.median(values) if values else 0.0


def host_slowdown(sample_ms, reference_ms, statistic="median"):
    """How much slower than at its reference speed the host ran: the median
    (or mean) of the reference work's times (calibrate.h) over the reference
    host's. 1.0 when nothing was timed."""
    if not sample_ms or reference_ms <= 0:
        return 1.0
    if statistic == "mean":
        return statistics.fmean(sample_ms) / reference_ms
    return median(sample_ms) / reference_ms


def at_reference_speed(values, slowdown, times=(), rates=()):
    """`values` with each metric in `times` divided by `slowdown` and each
    in `rates` multiplied by it: the figures the host would have given at
    its reference speed. Other metrics pass through."""
    out = dict(values)
    for k in times:
        out[k] = values[k] / slowdown
    for k in rates:
        out[k] = values[k] * slowdown
    return out


def setups_at_reference_speed(setup_s, chunk_ms, reference_ms):
    """Each set-up time scaled by the median chunk time of the reference
    burst that followed it (one per set-up, in order)."""
    return [s * reference_ms / c for s, c in zip(setup_s, chunk_ms)]


def latencies_ms(requests):
    """Latency of each request from its due time, in ms.

    A request is (due_ns, start_ns, done_ns, ...). In an open loop the due
    time is the schedule's, so a late generator or a stalled server adds to
    every request behind it; in a closed loop due == start.
    """
    return [(r[2] - r[0]) / 1e6 for r in requests]


def lags_ms(requests):
    """How late the generator sent each request (start - due), in ms."""
    return [(r[1] - r[0]) / 1e6 for r in requests]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover. `spans` is a list of dicts with keys name, ts,
    dur, span, parent (parent -1 for a root). Returns {span index: self}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        clipped = [(max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
                   for c in children.get(s["span"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["span"]] = s["dur"] - _covered(clipped)
    return out


def self_time_table(spans):
    """Per span name: count, total duration and total self time."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total": 0.0,
                                           "self": 0.0})
        row["count"] += 1
        row["total"] += s["dur"]
        row["self"] += own[s["span"]]
    return table


def unattributed_frac(spans, root_name="request"):
    """Share of the end-to-end time of `root_name` roots that no layer span
    covers: the roots' summed self time over their summed duration."""
    own = self_times(spans)
    roots = [s for s in spans if s["parent"] == -1 and s["name"] == root_name]
    total = sum(s["dur"] for s in roots)
    if total <= 0:
        return 0.0
    return sum(own[s["span"]] for s in roots) / total


def per_request_sums(spans, name):
    """Summed duration of spans called `name`, one value per request."""
    sums = {}
    for s in spans:
        if s["name"] == name:
            sums[s["request"]] = sums.get(s["request"], 0.0) + s["dur"]
    return list(sums.values())


def wire_times(spans):
    """Per client round trip: its duration minus the server's queue wait and
    handler time joined under it (framing, socket transfer, reply write)."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        if s["name"] != "client.roundtrip":
            continue
        kids = by_parent.get(s["span"], [])
        server = [c["dur"] for c in kids
                  if c["name"] in ("service.queue_wait", "service.handler")]
        if server:
            out.append(s["dur"] - sum(server))
    return out

