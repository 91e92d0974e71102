"""The benchmark's own arithmetic: percentiles, spreads and output digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a single slow sample cannot set it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def reportable_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-quantile, or ``None`` when fewer than ``min_beyond``
    samples lie beyond it."""
    if not samples:
        return None
    value, beyond = percentile(samples, q)
    return value if beyond >= min_beyond else None


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_canonical(v) for v in value)
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return value.item()
    return value


def digest(rows: Iterable) -> str:
    """SHA-256 of rows as canonical JSON.

    Keys are sorted and floats keep every digit (``repr`` round-trips),
    so any change to any value changes the digest and nothing else
    does: not dict order, not numpy vs Python scalar types.
    """
    text = json.dumps(
        _canonical(list(rows)), sort_keys=True, separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize_latencies(samples: Sequence[float]) -> Dict[str, object]:
    """p50 and p90 of ``samples`` (seconds) in ms, with the counts that
    justify them; p90 is ``None`` when too few samples lie beyond it."""
    p90 = reportable_percentile(samples, 0.9)
    _, beyond = percentile(samples, 0.9) if samples else (0.0, 0)
    return {
        "n": len(samples),
        "p50_ms": statistics.median(samples) * 1e3 if samples else None,
        "p90_ms": p90 * 1e3 if p90 is not None else None,
        "beyond_p90": beyond,
    }
