"""Percentiles, reply comparison and span arithmetic for the benchmark."""
import json
import math

# A percentile is reported as valid only with at least this many samples
# beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """The q-quantile (0 <= q <= 1), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n sorted samples lie strictly past the q-quantile's rank."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def tail_is_valid(n, q):
    return samples_beyond(n, q) >= MIN_BEYOND


# Reply fields that report host time or host-side cache state rather than
# what was computed; they differ between two correct replies.
HOST_FIELDS = frozenset({"id", "wall_ms", "serial_ms", "speedup", "artifacts", "jobs"})


def normalize_reply(text):
    """A served reply with host-time fields removed, as canonical JSON text."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in HOST_FIELDS}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    return json.dumps(strip(json.loads(text)), sort_keys=True, separators=(",", ":"))


def diff_fields(a, b, path=""):
    """Paths of every field whose value differs between two JSON documents."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            out += diff_fields(a.get(k), b.get(k), f"{path}.{k}" if path else k)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += diff_fields(x, y, f"{path}[{i}]")
        return out
    return [] if a == b and type(a) is type(b) else [path or "<root>"]


def report_mismatch(a, b):
    """None when two reports are byte-identical, else what differs."""
    if a == b:
        return None
    try:
        fields = diff_fields(json.loads(a), json.loads(b))
    except ValueError:
        fields = []
    return ", ".join(fields[:5]) if fields else "bytes differ (formatting)"


def self_times_ns(spans):
    """Each span's duration minus the part its direct children cover."""
    self_ns = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return self_ns
