"""End-to-end metrics of a run, and the statistics they are built from."""

from __future__ import annotations

import statistics
from collections import defaultdict

#: name, unit, better -- reported by an untraced run on every workload.
#: The machine's speed drifts by up to half for seconds at a time, which
#: moves medians and tails of single command latencies between runs by
#: more than any usable bound.  The gated latency figures therefore use
#: each command's best latency over the run's cycles (the minimum of
#: repeated warm runs); the median and tail of every sample are reported
#: alongside them, ungated (see ``figures``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("best_p50_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile); None when there are too few samples.
    """
    xs = sorted(values)
    rank = len(xs) - TAIL_BEYOND   # 1-based rank of the tail sample
    if rank < 1:
        return None
    return xs[rank - 1], 100.0 * rank / len(xs)


def latency_summary(values) -> dict:
    """Median, tail value, tail percentile and sample count of latencies."""
    t = tail(values)
    return {
        "count": len(values),
        "p50_s": statistics.median(values) if values else None,
        "tail_s": None if t is None else t[0],
        "tail_percentile": None if t is None else t[1],
    }


def best_latencies(records) -> dict[str, float]:
    """Each distinct command's best (minimum) latency over the run."""
    best: dict[str, float] = {}
    for cmd, out, _ in records:
        best[cmd.label] = min(best.get(cmd.label, out.seconds), out.seconds)
    return best


def work_rate(records) -> float:
    """Work of one cycle over the time of a cycle run at its best.

    The cycle's time is the sum of each command's best latency.  A command
    that failed in any cycle contributes its time but no work.  On
    construct-certify a certify carries the work of its construct+certify
    pair; it fails whenever its construct did, because the complement file
    is removed before each construct.
    """
    work: dict[str, int] = {}
    for cmd, _, ok in records:
        work[cmd.label] = min(work.get(cmd.label, cmd.work), cmd.work if ok else 0)
    busy = sum(best_latencies(records).values())
    return sum(work.values()) / busy if busy > 0 else 0.0


def completed_work(records) -> tuple[float, float]:
    """(work units, wall seconds) of the commands that completed.

    A construct contributes its wall time only together with the certify
    that follows it, and only when both passed.
    """
    work = busy = 0.0
    pending = None
    for cmd, out, ok in records:
        if cmd.kind == "construct":
            pending = out.seconds if ok else None
        elif cmd.kind == "certify":
            if ok and pending is not None:
                work += cmd.work
                busy += pending + out.seconds
            pending = None
        elif ok:
            work += cmd.work
            busy += out.seconds
    return work, busy


def end_to_end(records, setups: list[float], peak_rss_mb: float) -> dict:
    """The END_TO_END metrics, from every measured command of an untraced run."""
    return {
        "setup_s": statistics.median(setups),
        "best_p50_s": statistics.median(best_latencies(records).values()),
        "work_per_s": work_rate(records),
        "peak_rss_mb": peak_rss_mb,
    }


def named(records, work_unit: str, attempted: int, failed: int) -> dict:
    """Median and tail over every sample, overall (p50_s, tail_s) and per
    command kind (construct_*, certify_*, mc_* for mc and volume commands);
    <work_unit>_per_s as work of completed commands over their total wall
    time; and failed_frac."""
    groups: dict[str, list[float]] = defaultdict(list)
    for cmd, outcome, _ in records:
        groups["all"].append(outcome.seconds)
        groups["mc" if cmd.kind == "volume" else cmd.kind].append(outcome.seconds)
    figures: dict = {}
    for group, values in groups.items():
        summary = latency_summary(values)
        if group == "all":
            figures.update(summary)
            continue
        figures[f"{group}_p50_s"] = summary["p50_s"]
        figures[f"{group}_tail_s"] = summary["tail_s"]
        figures[f"{group}_tail_percentile"] = summary["tail_percentile"]
        figures[f"{group}_count"] = summary["count"]
    work, busy = completed_work(records)
    figures[f"{work_unit}_per_s"] = work / busy if busy > 0 else 0.0
    figures["failed_frac"] = failed / attempted if attempted else 0.0
    return figures


def by_label(records) -> dict:
    """Latency summary and samples of each distinct command of a cycle."""
    groups: dict[str, list[float]] = defaultdict(list)
    for cmd, out, _ in records:
        groups[cmd.label].append(out.seconds)
    return {label: {**latency_summary(v), "samples_s": v} for label, v in groups.items()}
