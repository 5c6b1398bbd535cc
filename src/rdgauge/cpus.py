"""How many CPUs this process may run on."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs in this process's affinity mask (which a cpuset narrows),
    or ``os.cpu_count()`` where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1
