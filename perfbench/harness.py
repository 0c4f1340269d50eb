"""The benchmark's own arithmetic: span self time, tail percentiles and
failure counting.

Pure functions over plain data, so ``test_perfbench.py`` can pin them
without running a campaign.
"""

import math


def self_times(spans):
    """Self time of every span: its duration minus the time its
    direct children cover.

    ``spans`` is a list of ``(start, end, parent)`` triples, ``parent``
    being the index of the enclosing span or ``-1``.  The recorder is
    single-threaded, so children of one span never overlap and the part
    of the interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (start, end, _) in enumerate(spans)]


def tail_percentile(values, min_beyond=10):
    """The highest whole percentile with at least ``min_beyond``
    samples beyond it, by nearest rank.

    Returns ``(percentile, value, beyond)``, or ``None`` when even the
    median leaves fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct * n / 100))
        beyond = n - rank
        if beyond >= min_beyond:
            return pct, ordered[rank - 1], beyond
    return None


def nearest_rank(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def count_failures(reference, observed, incidents=0):
    """Faults that failed the output check: quarantined incidents plus
    positions where the observed record differs from the reference
    (a missing or surplus record counts as one difference)."""
    differing = sum(1 for ref, got in zip(reference, observed)
                    if list(ref) != list(got))
    return incidents + differing + abs(len(reference) - len(observed))


def fail_frac(failed, sampled):
    """Failed faults over faults sampled."""
    return failed / sampled if sampled else 0.0

