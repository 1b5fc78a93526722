"""A SIGKILLed ``repro serve`` leaves nothing behind.

The server's lane workers watch their parent and exit when it dies
(:func:`repro.service.workers._exit_with_parent`).  Without that, a
forked worker outlives the kill holding the inherited listening
socket: a later client connects, sits in the dead server's backlog and
waits out its whole timeout instead of failing fast.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, find_free_port

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


def _processes_with_argv(argv):
    """PIDs of live (non-zombie) processes whose argv ends with ``argv``."""
    wanted = "\0".join(argv).encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().rstrip(b"\0")
            with open(f"/proc/{entry}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if cmdline.endswith(wanted) and state != "Z":
            found.append(int(entry))
    return found


def _descendants(pid):
    """Live descendant PIDs of ``pid``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {c for c, p in parents.items() if p in frontier} - found
        found |= frontier
    return {p for p in found if _alive(p)}


def _alive(pid):
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _refuses(port):
    """True when nothing accepts connections on ``port`` any more."""
    with socket.socket() as sock:
        sock.settimeout(1.0)
        try:
            sock.connect(("127.0.0.1", port))
        except (ConnectionRefusedError, socket.timeout):
            return True
    return False


def test_sigkilled_server_leaves_no_worker_and_no_listener(tmp_path):
    port = find_free_port()
    argv = [
        "-m", "repro", "serve",
        "--port", str(port), "--workers", "2",
        "--execution", "process",
        "--store-dir", str(tmp_path / "store"),
    ]
    process = subprocess.Popen(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    children = set()
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)
        client.wait_until_healthy(timeout=30)
        qasm = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
        )
        assert client.compile(qasm)["state"] == "done"
        children = _descendants(process.pid)
        assert children, "the process tier should have started a worker"
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

        def leftovers():
            return sorted(
                {p for p in children if _alive(p)}
                | set(_processes_with_argv(argv))
            )

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and leftovers():
            time.sleep(0.05)
        assert leftovers() == []
        assert _refuses(port)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        for pid in children | set(_processes_with_argv(argv)):
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
