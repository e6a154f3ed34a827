"""Arithmetic of the benchmark, kept apart so selftest.py can check it.

Percentiles, sub-window medians, the steal-aware window choice, the /proc
parsers and span self time.
"""

import json
import math
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (linear between closest ranks) of `values`.

    Raises ValueError unless at least MIN_BEYOND samples lie beyond it, so a
    tail figure is never read off too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0 or n * (100.0 - p) / 100.0 < MIN_BEYOND:
        raise ValueError(
            "p%g needs %d samples beyond it; have %d samples"
            % (p, MIN_BEYOND, n))
    rank = (n - 1) * p / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def window_rate(counts, window_s):
    """Median per-second rate over equal sub-windows of a measured interval."""
    if not counts or window_s <= 0:
        raise ValueError("no sub-windows")
    return statistics.median(counts) / window_s


def window_percentile(values, labels, windows, p):
    """Median over `windows` of the p-th percentile within each window.

    A stall confined to a few windows moves only their own percentile, not
    the reported median; every window must meet percentile()'s sample rule.
    """
    by_window = {w: [] for w in windows}
    for v, w in zip(values, labels):
        if int(w) in by_window:
            by_window[int(w)].append(v)
    if not by_window:
        raise ValueError("no windows")
    return statistics.median(percentile(by_window[w], p) for w in windows)


def alternating_ratio(counts):
    """Median of the odd sub-windows over the median of the even ones."""
    if len(counts) < 2:
        raise ValueError("needs two sub-windows")
    return statistics.median(counts[1::2]) / statistics.median(counts[0::2])


def least_stolen(steal, keep):
    """Indices (ascending) of the `keep` windows with the least host steal.

    Ties go to the earlier window, so the choice is deterministic.
    """
    if not 0 < keep <= len(steal):
        raise ValueError("cannot keep %d of %d windows" % (keep, len(steal)))
    order = sorted(range(len(steal)), key=lambda i: (steal[i], i))
    return sorted(order[:keep])


def select(values, labels, chosen):
    """The values whose window label is among `chosen`."""
    chosen = set(chosen)
    return [v for v, w in zip(values, labels) if int(w) in chosen]


def parse_proc_stat(text):
    """The aggregate `cpu` line of /proc/stat as a dict of jiffies."""
    names = ["user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal", "guest", "guest_nice"]
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            vals = [int(v) for v in fields[1:]]
            return dict(zip(names, vals + [0] * (len(names) - len(vals))))
    raise ValueError("no aggregate cpu line")


def steal_frac(before, after):
    """Share of CPU time the hypervisor took between two /proc/stat reads.

    guest and guest_nice are already counted in user and nice, so they are
    left out of the total.
    """
    keys = ["user", "nice", "system", "idle", "iowait", "irq", "softirq",
            "steal"]
    total = sum(after[k] - before[k] for k in keys)
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def parse_pid_stat(text, ticks_per_s):
    """CPU seconds (utime + stime) from /proc/<pid>/stat."""
    # The command name may hold spaces; fields resume after its ')'.
    rest = text[text.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / float(ticks_per_s)


def parse_status(text):
    """Key/value pairs of /proc/<pid>/status, numbers as ints (kB kept)."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        parts = value.split()
        if parts and parts[0].isdigit():
            out[key] = int(parts[0])
    return out


def load_trace(path):
    """Spans of a Chrome trace written by perfbench_cli."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        args = ev.get("args", {})
        spans.append({"name": ev["name"], "start": ev["ts"],
                      "end": ev["ts"] + ev["dur"], "tid": ev["tid"],
                      "span": args.get("span"), "parent": args.get("parent"),
                      "id": args.get("id")})
    return spans, doc.get("otherData", {})


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span index -> duration minus the part its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None and s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["span"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["span"]] = (s["end"] - s["start"]) - covered(kids)
    return out


def by_name(spans, name):
    return [s for s in spans if s["name"] == name]


def durations(spans, name):
    return [s["end"] - s["start"] for s in by_name(spans, name)]


def per_id_sum(spans, name):
    """id -> summed duration of the spans called `name` with that id."""
    out = {}
    for s in by_name(spans, name):
        out[s["id"]] = out.get(s["id"], 0.0) + (s["end"] - s["start"])
    return out

