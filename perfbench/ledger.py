"""Pure helpers of the benchmark: span self time, the per-layer wall ledger,
and the percentile rule for latency tails. No I/O, so the tests in
test_ledger.py exercise them directly."""

import statistics

# Spans the engine records on the thread that called Run(). The thread that
# records most of them is the consumer; every other thread is a loader.
CONSUMER_SPANS = frozenset({
    "schedule-decision", "compute", "cross-iter-update", "state-load",
    "write-back", "checkpoint", "resume",
})

# Containment slack in microseconds: chrome-trace timestamps are doubles.
_EPS_US = 1e-3


def self_times(events):
    """Returns [(tid, name, self_us)] for chrome-trace "X" events.

    A span's self time is its duration minus the durations of its direct
    children: the spans of the same thread that lie inside it."""
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    out = []
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, self_us] of the open ancestors
        for span in spans:
            end = span["ts"] + span["dur"]
            while stack and stack[-1][0] < end - _EPS_US:
                _, name, self_us = stack.pop()
                out.append((tid, name, self_us))
            if stack:
                stack[-1][2] -= span["dur"]
            stack.append([end, span["name"], span["dur"]])
        out.extend((tid, name, self_us) for _, name, self_us in stack)
    return out


def consumer_tid(events):
    """The thread that recorded the most engine-level spans, or None."""
    counts = {}
    for event in events:
        if event["name"] in CONSUMER_SPANS:
            counts[event["tid"]] = counts.get(event["tid"], 0) + 1
    if not counts:
        return None
    return max(sorted(counts), key=lambda tid: counts[tid])


def build_ledger(events, run_s):
    """Per-span self seconds split by thread role, and the residual.

    Returns {"consumer": {name: s}, "loader": {name: s}, "consumer_s",
    "unattributed_s", "outside_spans_s", "run_s"}. By construction
    consumer_s + unattributed_s == run_s. outside_spans_s is the part of the
    residual before the first span starts or after the last one ends
    (process start, dataset open, writing results); the rest of the residual
    is consumer time inside the run that no span covers, such as waiting for
    the prefetch loader."""
    consumer = consumer_tid(events)
    rows = {"consumer": {}, "loader": {}}
    for tid, name, self_us in self_times(events):
        role = "consumer" if tid == consumer else "loader"
        rows[role][name] = rows[role].get(name, 0.0) + self_us / 1e6
    consumer_s = sum(rows["consumer"].values())
    if events:
        first = min(e["ts"] for e in events)
        last = max(e["ts"] + e["dur"] for e in events)
        window_s = (last - first) / 1e6
    else:
        window_s = 0.0
    return {
        "consumer": rows["consumer"],
        "loader": rows["loader"],
        "consumer_s": consumer_s,
        "unattributed_s": run_s - consumer_s,
        "outside_spans_s": max(run_s - window_s, 0.0),
        "run_s": run_s,
    }


def span_seconds(ledger, names):
    """Self seconds of the named spans, over both thread roles."""
    return sum(ledger[role].get(name, 0.0)
               for role in ("consumer", "loader") for name in names)


def tail(samples, beyond=10):
    """Value at the highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond). With 2 * `beyond` samples or
    fewer that percentile would not lie above the median, so the median is
    returned, at percentile 50: so few samples resolve no tail, and the
    slowest one alone would vary as much as any single sample does. The
    record says which rule applied."""
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * beyond:
        middle = statistics.median(ordered)
        return middle, 50.0, sum(1 for s in ordered if s > middle)
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond
