"""Environment pinning and recording (rule 5 of the benchmark's README).

Everything here is stdlib-only at import time so :func:`pin_threads` can run
before numpy loads.  ``psutil`` is not installed on the reference box: worker
CPU and memory come straight from ``/proc``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, MutableMapping, Optional

__all__ = [
    "THREAD_VARS",
    "pin_threads",
    "pin_cpu",
    "match_affinity",
    "proc_cpu_seconds",
    "proc_status_mb",
    "steal_ticks",
    "malloc_trim",
    "peak_rss_mb",
    "calibration_ms",
    "environment_record",
    "leaked_slabs",
]

#: One thread per BLAS call: OpenBLAS here is built with ``MAX_THREADS=64``
#: and would otherwise spin up a pool on a 2-vCPU box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(
    environ: MutableMapping[str, str] = os.environ,
    modules: Optional[Dict[str, object]] = None,
) -> None:
    """Set every BLAS thread variable to 1; refuse if numpy got there first.

    The variables are read once, when the BLAS library loads, so setting
    them after ``import numpy`` silently does nothing — the run would
    measure a different machine.  Forked fleet workers inherit them.
    """
    modules = sys.modules if modules is None else modules
    unpinned = [name for name in THREAD_VARS if environ.get(name) != "1"]
    if unpinned and "numpy" in modules:
        raise RuntimeError(
            "numpy was imported before the BLAS thread count was pinned "
            f"({', '.join(unpinned)} != 1); start the benchmark through "
            "benchmarks/perf/run.py in a fresh interpreter"
        )
    for name in THREAD_VARS:
        environ[name] = "1"


def pin_cpu() -> int:
    """Pin this process to one CPU — the highest-numbered one it may use.

    Children (the process fleet's workers) inherit the mask.  See the README
    ("CPU placement") for why everything shares one CPU and what that hides.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def match_affinity(pids: Iterable[int]) -> None:
    """Give running processes (fleet workers, pids from
    ``FleetSupervisor.worker_status()``) this process's CPU mask."""
    mask = os.sched_getaffinity(0)
    for pid in pids:
        os.sched_setaffinity(pid, mask)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def proc_status_mb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{field} not in /proc/{pid}/status")


def steal_ticks() -> int:
    """Cumulative hypervisor steal ticks (all CPUs) from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8])


_LIBC = None


def malloc_trim() -> None:
    """Return freed heap pages to the OS so RSS reads what is in use."""
    global _LIBC
    if _LIBC is None:
        _LIBC = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
        _LIBC.malloc_trim.restype = ctypes.c_int
    _LIBC.malloc_trim(0)


def peak_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """Driver ``ru_maxrss`` plus each live worker's ``VmHWM``, after a trim."""
    malloc_trim()
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in worker_pids:
        total += proc_status_mb(pid, "VmHWM")
    return total


def calibration_ms() -> float:
    """Wall time of a fixed numpy loop — a per-round speed probe of the box.

    A diagnostic only: it is recorded next to each round's samples so a slow
    round can be told from a slow machine, and it never divides a metric.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    left = rng.standard_normal((96, 96)).astype(np.float32)
    right = rng.standard_normal((96, 96)).astype(np.float32)
    keys = rng.random(4096)
    start = time.perf_counter()
    for _ in range(40):
        left @ right
        np.argsort(keys, kind="stable")
    return (time.perf_counter() - start) * 1000.0


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------
def _git_commit(repo_root: Path) -> str:
    """HEAD's commit read from ``.git`` by hand (the driver's checkout is
    not a repository, and no ``git`` lookup may walk out of it)."""
    head = repo_root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if text.startswith("ref: "):
            text = (repo_root / ".git" / text[5:]).read_text(encoding="ascii").strip()
        return text
    except OSError:
        return "unknown"


def environment_record(repo_root: Path, cpu: Optional[int]) -> Dict[str, object]:
    """What the numbers were measured on; stored in every run record."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(repo_root),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', 'n/a')})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def leaked_slabs(prefix: str) -> List[str]:
    """Shared-memory segments this process created and failed to unlink."""
    base = "/dev/shm"
    if not os.path.isdir(base):
        return []
    mine = f"{prefix}_{os.getpid()}_"
    return sorted(entry for entry in os.listdir(base) if entry.startswith(mine))
