"""Small measurement helpers shared by the workloads.

Geometric means, fresh-interpreter imports, process-tree memory
sampling, process clean-up and the host description recorded with
every run.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    data = list(values)
    return math.exp(sum(math.log(v) for v in data) / len(data))


def fresh_import(modules: Sequence[str]) -> None:
    """Import ``modules`` in a fresh interpreter, as a user's first
    command does; the child inherits this process's ``PYTHONPATH``."""
    code = "import " + ", ".join(modules)
    subprocess.run([sys.executable, "-c", code], check=True)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root_pid: int) -> float:
    """Summed resident set of ``root_pid`` and all its descendants."""
    children = _children_map()
    total = 0
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        total += _rss_kib(pid)
        stack.extend(children.get(pid, ()))
    return total / 1024.0


class TreeRssSampler:
    """Samples a process tree's summed RSS on a background thread.

    Used where the work runs in pool workers; the sampling thread
    itself mostly sleeps.
    """

    def __init__(self, root_pid: int, interval: float = 0.1) -> None:
        self.root_pid = root_pid
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb(self.root_pid))
            self._stop.wait(self.interval)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_rss_mb(self.root_pid))


_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so :func:`stop_descendants` can reap them.

    A helper a pool leaves behind (multiprocessing's resource tracker,
    say) outlives its parent and would otherwise be reparented to init.
    Linux only; elsewhere a no-op.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    return _children_map().get(os.getpid(), [])


def stop_descendants(grace: float = 5.0) -> None:
    """Stop every process this one started, and wait for each to end.

    multiprocessing's resource tracker and fork server are closed the
    way they expect (they exit when their pipe closes); anything still
    running after ``grace`` seconds is terminated, then killed.
    """
    import signal
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker,
                   forkserver._forkserver):
        try:
            helper._stop()
        except (AttributeError, OSError, ChildProcessError):
            pass
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in _child_pids():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass  # reaped one; look for more
            except ChildProcessError:
                return
            if not _child_pids():
                return
            time.sleep(0.02)


def host_metadata() -> Dict[str, object]:
    """What a number depends on besides the code: cores and versions."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
