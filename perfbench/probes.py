"""Host and process probes: timers, CPU steal, peak RSS, quantiles."""

from __future__ import annotations

import resource
import time
from pathlib import Path

_STAT = Path("/proc/stat")
_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")


class Timer:
    """Wall and process-CPU time of a block."""

    def __enter__(self) -> "Timer":
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_s = time.perf_counter() - self.wall0
        self.cpu_s = time.process_time() - self.cpu0


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, busy)`` ticks of the whole host since boot, or ``None``.

    ``busy`` counts every non-idle tick including steal, so a delta's
    ratio is the share of the host's working time the hypervisor took.
    """
    try:
        fields = _STAT.read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        int(value) for value in fields[1:9]
    )
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def reset_peak_rss() -> bool:
    """Restart the kernel's RSS high-water mark; ``False`` if refused."""
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb(reset_ok: bool) -> tuple[float, str]:
    """Peak RSS since the last reset, with the method that measured it.

    Falls back to ``ru_maxrss`` (the whole process lifetime, set-up
    included) when the reset was refused or ``VmHWM`` is unreadable.
    """
    if reset_ok:
        try:
            for line in _STATUS.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0, "vmhwm_since_reset"
        except OSError:
            pass
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ru_maxrss_lifetime",
    )


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
