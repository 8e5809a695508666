"""The CPU count that the modules spreading work over threads size their pools by."""

from __future__ import annotations

import os


def cpu_count():
    """The CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
