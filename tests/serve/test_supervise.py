"""The process supervisor: child receive loop, fd hygiene, stop escalation.

The child targets are tiny module-level functions, so the tests exercise
the supervisor alone, without a model server or a flow job behind it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.supervise import ESCALATE_S, ChildProcess, receive_loop
from repro.serve.transport import (
    ERROR_VALUE,
    MSG_CONTROL,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    MSG_SHUTDOWN,
    FrameConnection,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fd hygiene applies to forked children",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _echo_child(conn: FrameConnection) -> None:
    """Answers each request with its own body until EOF or shutdown."""
    receive_loop(conn, lambda req_id, *body: conn.send(MSG_RESPONSE, (req_id, body)))


def _stubborn_child(conn: FrameConnection, ignore_sigterm: bool) -> None:
    """Ignores every frame, SHUTDOWN included (and SIGTERM if asked)."""
    if ignore_sigterm:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send(MSG_RESPONSE, (0, "ready"))
    while True:
        time.sleep(1.0)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


# --------------------------------------------------------------------------- #
# Child receive loop (in-process, over a plain socketpair)
# --------------------------------------------------------------------------- #
def test_receive_loop_answers_ping_routes_frames_and_returns_drain_flag():
    parent_sock, child_sock = socket.socketpair()
    parent, child = FrameConnection(parent_sock), FrameConnection(child_sock)
    seen = []
    parent.send(MSG_CONTROL, (1, "ping", None))
    parent.send(MSG_REQUEST, (2, "a", "b"))
    parent.send(MSG_CONTROL, (3, "stats", 7))
    parent.send(MSG_CONTROL, (4, "bogus", None))
    parent.send(MSG_SHUTDOWN, (True,))
    parent.send(MSG_REQUEST, (5, "never read",))

    drain = receive_loop(
        child,
        lambda req_id, *body: seen.append(("request", req_id, body)),
        {"stats": lambda req_id, arg: seen.append(("stats", req_id, arg))},
    )

    assert drain is True
    assert seen == [("request", 2, ("a", "b")), ("stats", 3, 7)]
    kind, (req_id, pong) = parent.recv()
    assert (kind, req_id) == (MSG_RESPONSE, 1)
    assert pong["pid"] == os.getpid() and pong["uptime_s"] >= 0.0
    kind, (req_id, error_kind, text) = parent.recv()
    assert (kind, req_id, error_kind) == (MSG_ERROR, 4, ERROR_VALUE)
    assert "bogus" in text
    parent.close()
    child.close()


@pytest.mark.parametrize(
    "sent", [b"", b"\x01\x00\x00\x00\x10abc"], ids=["eof", "torn-frame"]
)
def test_receive_loop_ends_on_eof_and_on_a_torn_frame(sent):
    parent_sock, child_sock = socket.socketpair()
    parent_sock.sendall(sent)  # a torn frame's header promises 16 bytes
    parent_sock.close()
    child = FrameConnection(child_sock)
    assert receive_loop(child, lambda *_: None) is False
    child.close()


# --------------------------------------------------------------------------- #
# Fd hygiene
# --------------------------------------------------------------------------- #
#: A parent that spawns an idle child, then a child busy with a 3 s "job"
#: (so it holds every fd it inherited meanwhile), prints both pids and waits
#: to be killed.
_PARENT_SCRIPT = """
import time
from repro.serve.supervise import ChildProcess, receive_loop
from repro.serve.transport import MSG_CONTROL

def idle(conn):
    receive_loop(conn, lambda *_: None)

def busy(conn):
    time.sleep(3.0)
    receive_loop(conn, lambda *_: None)

first = ChildProcess(idle, (), name="idle")
second = ChildProcess(busy, (), name="busy", sibling_conns=[first.conn])
first.conn.send(MSG_CONTROL, (1, "ping", None))
first.conn.recv()
print(first.pid, second.pid, flush=True)
time.sleep(60.0)
"""


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_children_see_eof_and_exit_when_the_parent_is_sigkilled():
    env = dict(os.environ, PYTHONPATH=SRC)
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT_SCRIPT], stdout=subprocess.PIPE, env=env
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        idle, busy = pids
        parent.kill()
        parent.wait(timeout=10.0)

        # The idle child exits at once: the busy sibling closed its inherited
        # copy of the parent's end, so nothing else holds the socket open.
        deadline = time.monotonic() + 2.0
        while _alive(idle) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(idle)
        assert _alive(busy)  # still in its "job"

        # The busy child reads EOF as soon as its job ends.
        deadline = time.monotonic() + 10.0
        while _alive(busy) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(busy)
    finally:
        parent.stdout.close()
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@needs_fork
def test_concurrent_spawns_never_hide_a_childs_death():
    """Each parent end reads EOF the moment its child dies: no sibling forked
    concurrently holds a copy of that child's socket."""
    children = []
    lock = threading.Lock()

    def spawn(n):
        for i in range(n):
            child = ChildProcess(_echo_child, (), name=f"echo-{i}")
            with lock:
                children.append(child)

    threads = [threading.Thread(target=spawn, args=(3,)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        for child in children:
            child.conn.send(MSG_REQUEST, (1, "hello"))
            assert child.conn.recv() == (MSG_RESPONSE, (1, ("hello",)))
        for child in children:
            child.process.kill()
            child.conn.set_timeout(5.0)
            assert child.conn.recv() is None  # EOF, not a timeout
    finally:
        for child in children:
            child.kill()


# --------------------------------------------------------------------------- #
# Stop escalation
# --------------------------------------------------------------------------- #
@needs_fork
@pytest.mark.parametrize("ignore_sigterm", [False, True])
def test_stop_escalates_on_a_child_that_ignores_shutdown(ignore_sigterm):
    child = ChildProcess(_stubborn_child, (ignore_sigterm,), name="stubborn")
    assert child.conn.recv() == (MSG_RESPONSE, (0, "ready"))
    timeout = 0.2
    start = time.monotonic()
    child.stop(timeout=timeout)
    elapsed = time.monotonic() - start

    assert not child.alive
    expected = signal.SIGKILL if ignore_sigterm else signal.SIGTERM
    assert child.process.exitcode == -expected
    assert elapsed < timeout + ESCALATE_S + 2.0
    assert child.conn.fileno == -1
    with pytest.raises(OSError):
        child.conn.send(MSG_SHUTDOWN, (False,))


@needs_fork
def test_kill_skips_the_shutdown_frame_and_closes_the_connection():
    child = ChildProcess(_stubborn_child, (True,), name="stubborn")
    assert child.conn.recv() == (MSG_RESPONSE, (0, "ready"))
    child.kill()
    assert child.process.exitcode == -signal.SIGKILL
    assert child.conn.fileno == -1


@needs_fork
def test_stop_lets_a_cooperative_child_exit_on_the_shutdown_frame():
    child = ChildProcess(_echo_child, (), name="echo")
    child.stop(timeout=10.0)
    assert child.process.exitcode == 0
    assert child.conn.fileno == -1
