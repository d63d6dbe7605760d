"""Host readings: machine fingerprint, steal share, a contention probe,
CPU time and peak RSS.

Everything here reads ``/proc`` or ``resource`` and degrades to ``None``
where those are unavailable, so the benchmark still runs (without the
reading) on hosts that lack them.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

#: steal share above which a reading is marked as taken on a stolen host
STOLEN_PCT = 10.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice
    total = sum(values[:8])
    steal = values[7] if len(values) > 7 else 0
    return steal, total


def steal_pct(start, end) -> float | None:
    if start is None or end is None or end[1] <= start[1]:
        return None
    return 100.0 * (end[0] - start[0]) / (end[1] - start[1])


def kernel_ms(samples: int = 5) -> float:
    """Median milliseconds of a fixed small-array numpy kernel.

    Steal misses contention from other tenants sharing the physical
    cores; the kernel's time reads it. Compare it across runs on one
    host, not across hosts.
    """
    import numpy

    a = numpy.arange(64.0)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for i in range(1000):
            float(numpy.where(a > i % 64, a, 0.0).mean())
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def describe(fp: dict, steal: float | None, kernel: float) -> str:
    """One line stating the hardware a reading was taken on and how
    contended it was."""
    if steal is None:
        steal_text = "steal n/a"
    else:
        steal_text = f"steal {steal:.1f}%"
        if steal > STOLEN_PCT:
            steal_text += " STOLEN HOST: wall times are inflated"
    return (
        f"host: nproc={fp['nproc']} cpu={fp['cpu']!r} "
        f"python={fp['python']} numpy={fp['numpy']} {steal_text} "
        f"kernel {kernel:.2f} ms"
    )


def self_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_s(pid: int) -> float | None:
    """user+sys CPU seconds of a live process (``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # fields after the parenthesised command name; utime/stime are the
    # 14th/15th fields overall, i.e. 12th/13th after it
    rest = stat.rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def self_peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
