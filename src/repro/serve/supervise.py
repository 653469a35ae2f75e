"""One way to fork, supervise and stop a worker process.

The serving fleet (:mod:`repro.serve.worker`) and the job pool
(:mod:`repro.jobs.worker`) run children that speak the
:mod:`repro.serve.transport` frame protocol to their parent.  Their whole
lifecycle lives here: :class:`ChildProcess` is the parent's end (spawn,
connection, stop with SIGTERM -> SIGKILL escalation) and
:func:`receive_loop` the child's (ping, dispatch, EOF and shutdown).

Fd hygiene: a forked child inherits the parent's end of its own socket and
of every sibling's.  Each child closes those first, so that when the
parent dies (even by SIGKILL) its end is closed everywhere and every child
reads EOF and exits instead of serving or training as an orphan.

Example::

    child = ChildProcess(my_entry, (arg,), name="repro-worker-0")
    child.conn.send(MSG_CONTROL, (1, "ping", None))
    child.conn.recv()        # (MSG_RESPONSE, (1, {"pid": ..., "uptime_s": ...}))
    child.stop()
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from typing import Callable, Iterable, Mapping, Optional

from repro.serve.transport import (
    ERROR_VALUE,
    MSG_CONTROL,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    MSG_SHUTDOWN,
    FrameConnection,
    TransportError,
)

#: Grace after SIGTERM before SIGKILL (seconds).
ESCALATE_S = 1.0

#: Held from socketpair to the parent's close of the child socket, so no
#: fork ever inherits another spawn's still-open child socket (which would
#: hide that child's death from its parent).
_SPAWN_LOCK = threading.Lock()


def send_quietly(conn: FrameConnection, kind: int, body) -> None:
    """Send, ignoring a dead peer (a child's loop sees the EOF on its next recv)."""
    try:
        conn.send(kind, body)
    except OSError:
        pass


def _child_main(entry: Callable, child_sock, close_fds, args) -> None:
    """Trampoline run in the child: fd hygiene, then the caller's entry."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    conn = FrameConnection(child_sock)
    try:
        entry(conn, *args)
    finally:
        conn.close()


class ChildProcess:
    """The parent's handle on one supervised child process.

    ``entry(conn, *args)`` runs in the child over its
    :class:`~repro.serve.transport.FrameConnection` and should return
    normally (the child then exits via ``os._exit``).  ``sibling_conns`` are
    the parent's connections to its other children, closed in this one.
    """

    def __init__(
        self,
        entry: Callable,
        args: tuple,
        name: str,
        sibling_conns: Iterable[FrameConnection] = (),
    ) -> None:
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        with _SPAWN_LOCK:
            parent_sock, child_sock = socket.socketpair()
            self.conn = FrameConnection(parent_sock)
            fds = ()
            if ctx.get_start_method() == "fork":
                # Resolved while the child socket is open, so none aliases
                # it; closed conns report fileno -1 and drop out.
                fds = {conn.fileno for conn in sibling_conns} | {self.conn.fileno}
                fds = tuple(fd for fd in fds if fd >= 0)
            self.process = ctx.Process(
                target=_child_main,
                args=(entry, child_sock, fds, args),
                name=name,
                daemon=True,
            )
            self.process.start()
            child_sock.close()
        self.pid = self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def shutdown(self, drain: bool = False) -> None:
        """Ask the child to exit (draining or not); non-blocking."""
        send_quietly(self.conn, MSG_SHUTDOWN, (drain,))

    def reap(self, deadline: float) -> None:
        """Wait for exit until ``deadline`` (monotonic), then SIGTERM, then
        SIGKILL; close the connection."""
        self.process.join(timeout=max(deadline - time.monotonic(), 0.1))
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=ESCALATE_S)
        if self.process.is_alive():
            self.kill()
        self.conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Exit without draining: shutdown frame, then :meth:`reap` after
        ``timeout``."""
        self.shutdown(drain=False)
        self.reap(time.monotonic() + timeout)

    def kill(self) -> None:
        """SIGKILL the child and close the (possibly poisoned) connection."""
        self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()


def receive_loop(
    conn: FrameConnection,
    on_request: Callable,
    controls: Optional[Mapping[str, Callable]] = None,
) -> bool:
    """Run a child's receive loop; returns the shutdown frame's drain flag.

    ``on_request(req_id, *body)`` gets every ``MSG_REQUEST`` frame and
    ``controls[op](req_id, arg)`` every control op but ``ping``, which is
    answered here; unknown ops get an ``ERROR_VALUE`` reply.  EOF or a torn
    frame (the parent is gone) return ``False``.
    """
    controls = controls or {}
    started = time.monotonic()
    while True:
        try:
            message = conn.recv()
        except TransportError:
            message = None
        if message is None:
            return False
        kind, body = message
        if kind == MSG_SHUTDOWN:
            return bool(body[0])
        if kind == MSG_REQUEST:
            on_request(*body)
        elif kind == MSG_CONTROL:
            req_id, op, arg = body
            if op == "ping":
                pong = {"pid": os.getpid(), "uptime_s": time.monotonic() - started}
                send_quietly(conn, MSG_RESPONSE, (req_id, pong))
            elif op in controls:
                controls[op](req_id, arg)
            else:
                error = (req_id, ERROR_VALUE, f"unknown control op {op!r}")
                send_quietly(conn, MSG_ERROR, error)
