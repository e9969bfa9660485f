"""``hmpi`` — the MPI emulation plugin.

Section 3: "users may first load plugins that emulate distributed computing
environments (currently PVM, MPI, and JavaSpaces plugins are available),
thereby creating a framework within which their legacy codes may run."
``hpvmd`` covers PVM; this module is the MPI sibling, built the same way —
entirely from the backplane services of Figure 2 (message transport,
process management, table lookup, event management).

The emulated API is the MPI-1 core a 2002 legacy code needs:

* ``init(world_size)`` → per-rank :class:`MpiContext` with ``rank``/``size``
* point-to-point: ``send`` / ``recv`` / ``sendrecv`` with tags
* collectives: ``barrier``, ``bcast``, ``scatter``, ``gather``,
  ``allgather``, ``reduce``, ``allreduce``, ``alltoall``
* communicator ``split`` (color/key), mirroring ``MPI_Comm_split``

Collectives are implemented with the classic linear algorithms over the
root (adequate for DVM-scale worlds and faithful to early MPICH's defaults
on ethernet clusters).  numpy arrays ride the XDR fast path of the
underlying transport, following the mpi4py convention that buffer-like
payloads are the fast ones.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.plugin import Plugin
from repro.plugins.hmsg import MessageTransportPlugin
from repro.plugins.hproc import ProcessManagementPlugin
from repro.plugins.htable import TableLookupPlugin
from repro.util.concurrent import CountDownLatch
from repro.util.errors import PluginError

__all__ = ["MpiPlugin", "MpiContext", "MpiRequest", "SUM", "MAX", "MIN", "PROD"]

_RANK_TABLE = "mpi-ranks"

# Reduction operators (names on the wire; callables locally).
SUM = "sum"
MAX = "max"
MIN = "min"
PROD = "prod"

_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    SUM: lambda a, b: a + b,
    MAX: lambda a, b: a if _greater(a, b) else b,
    MIN: lambda a, b: b if _greater(a, b) else a,
    PROD: lambda a, b: a * b,
}


def _greater(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        raise PluginError("MAX/MIN reductions need scalars; use elementwise numpy ops")
    return a > b


def _apply(op: str, a, b):
    import numpy as np

    if op == SUM:
        return a + b
    if op == PROD:
        return a * b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b) if op == MAX else np.minimum(a, b)
    fn = _OPERATORS.get(op)
    if fn is None:
        raise PluginError(f"unknown reduction operator {op!r}")
    return fn(a, b)


class MpiContext:
    """One rank's view of a communicator.

    ``comm`` is the communicator name; the world communicator of a job is
    ``"<job>/world"``.  Rank → (host, mailbox) placement lives in htable on
    the job's root host, so ranks on any kernel can address each other.
    """

    #: tag offset reserving a band for collective internals
    _COLLECTIVE_BASE = -1000

    def __init__(self, plugin: "MpiPlugin", job: str, comm: str, rank: int, size: int):
        self._plugin = plugin
        self.job = job
        self.comm = comm
        self.rank = rank
        self.size = size
        # Collective-call sequence number.  MPI requires every rank of a
        # communicator to invoke collectives in the same order; folding the
        # sequence into the internal tags keeps phase N's messages from
        # satisfying a slower rank's phase N-1 (classic tag-collision bug).
        self._coll_seq = 0

    def _coll_tags(self, count: int = 1) -> tuple[int, ...]:
        seq = self._coll_seq
        self._coll_seq += 1
        return tuple(self._COLLECTIVE_BASE - (seq * 8 + k) for k in range(count))

    # -- addressing -----------------------------------------------------------

    def _mailbox(self, rank: int) -> tuple[str, str]:
        """(host, mailbox) of *rank* in this communicator."""
        return self._plugin._locate(self.job, self.comm, rank)

    # -- point to point ----------------------------------------------------------

    def send(self, dest: int, data: Any, tag: int = 0) -> None:
        """Blocking-standard send (delivery into the remote mailbox)."""
        if not 0 <= dest < self.size:
            raise PluginError(f"rank {dest} out of range for {self.comm} (size {self.size})")
        host, mailbox = self._mailbox(dest)
        self._plugin.hmsg.send(host, mailbox, {"src": self.rank, "data": data}, tag)

    def recv(self, source: int | None = None, tag: int | None = None, timeout: float = 30.0) -> Any:
        """Blocking receive; ``source=None`` is ``MPI_ANY_SOURCE``."""
        _, mailbox = self._mailbox(self.rank)
        while True:
            envelope = self._plugin.hmsg.recv(mailbox, tag, timeout)
            payload = envelope.data
            if source is None or payload["src"] == source:
                return payload["data"]
            # wrong source: requeue at the back (rare; simple and correct)
            self._plugin.hmsg.send(
                self._mailbox(self.rank)[0], mailbox, payload, envelope.tag
            )

    def isend(self, dest: int, data: Any, tag: int = 0) -> "MpiRequest":
        """Nonblocking send.  Mailbox delivery is buffered, so the send
        completes immediately; the request exists for API symmetry with
        legacy codes (``req = comm.isend(...); req.wait()``)."""
        self.send(dest, data, tag)
        return MpiRequest(ready=True)

    def irecv(self, source: int | None = None, tag: int | None = None) -> "MpiRequest":
        """Nonblocking receive; complete it with ``test()`` or ``wait()``."""
        return MpiRequest(context=self, source=source, tag=tag)

    def sendrecv(self, dest: int, data: Any, source: int | None = None,
                 sendtag: int = 0, recvtag: int | None = None, timeout: float = 30.0) -> Any:
        """Combined send+receive (safe against exchange deadlock here
        because sends are buffered by the mailbox layer)."""
        self.send(dest, data, sendtag)
        return self.recv(source, recvtag if recvtag is not None else sendtag, timeout)

    # -- collectives ----------------------------------------------------------------

    def barrier(self, timeout: float = 30.0) -> None:
        """Linear barrier through rank 0."""
        arrive, release = self._coll_tags(2)
        if self.rank == 0:
            for _ in range(self.size - 1):
                self.recv(tag=arrive, timeout=timeout)
            for rank in range(1, self.size):
                self.send(rank, None, tag=release)
        else:
            self.send(0, None, tag=arrive)
            self.recv(source=0, tag=release, timeout=timeout)

    def bcast(self, data: Any = None, root: int = 0, timeout: float = 30.0) -> Any:
        """Broadcast from *root*; every rank returns the value."""
        (tag,) = self._coll_tags()
        if self.rank == root:
            for rank in range(self.size):
                if rank != root:
                    self.send(rank, data, tag=tag)
            return data
        return self.recv(source=root, tag=tag, timeout=timeout)

    def scatter(self, chunks: list | None = None, root: int = 0, timeout: float = 30.0) -> Any:
        """Rank *root* distributes ``chunks[i]`` to rank *i*."""
        (tag,) = self._coll_tags()
        if self.rank == root:
            if chunks is None or len(chunks) != self.size:
                raise PluginError(f"scatter needs exactly {self.size} chunks at the root")
            for rank, chunk in enumerate(chunks):
                if rank != root:
                    self.send(rank, chunk, tag=tag)
            return chunks[root]
        return self.recv(source=root, tag=tag, timeout=timeout)

    def gather(self, data: Any, root: int = 0, timeout: float = 30.0) -> list | None:
        """Root returns ``[rank0, rank1, …]``; other ranks return None."""
        (tag,) = self._coll_tags()
        if self.rank == root:
            out: list = [None] * self.size
            out[root] = data
            for _ in range(self.size - 1):
                _, mailbox = self._mailbox(self.rank)
                envelope = self._plugin.hmsg.recv(mailbox, tag, timeout)
                out[envelope.data["src"]] = envelope.data["data"]
            return out
        self.send(root, data, tag=tag)
        return None

    def allgather(self, data: Any, timeout: float = 30.0) -> list:
        """gather to 0, then broadcast the list."""
        gathered = self.gather(data, root=0, timeout=timeout)
        return self.bcast(gathered, root=0, timeout=timeout)

    def reduce(self, data: Any, op: str = SUM, root: int = 0, timeout: float = 30.0) -> Any:
        """Root returns the reduction of every rank's contribution."""
        contributions = self.gather(data, root=root, timeout=timeout)
        if self.rank != root:
            return None
        assert contributions is not None
        result = contributions[0]
        for item in contributions[1:]:
            result = _apply(op, result, item)
        return result

    def allreduce(self, data: Any, op: str = SUM, timeout: float = 30.0) -> Any:
        """reduce at 0 then broadcast the result."""
        reduced = self.reduce(data, op=op, root=0, timeout=timeout)
        return self.bcast(reduced, root=0, timeout=timeout)

    def alltoall(self, chunks: list, timeout: float = 30.0) -> list:
        """Each rank sends ``chunks[i]`` to rank *i*; returns its column."""
        if len(chunks) != self.size:
            raise PluginError(f"alltoall needs exactly {self.size} chunks")
        (tag,) = self._coll_tags()
        for rank, chunk in enumerate(chunks):
            if rank != self.rank:
                self.send(rank, chunk, tag=tag)
        out: list = [None] * self.size
        out[self.rank] = chunks[self.rank]
        _, mailbox = self._mailbox(self.rank)
        for _ in range(self.size - 1):
            envelope = self._plugin.hmsg.recv(mailbox, tag, timeout)
            out[envelope.data["src"]] = envelope.data["data"]
        return out

    # -- communicator management --------------------------------------------------------

    def split(self, color: int, key: int | None = None, timeout: float = 30.0) -> "MpiContext | None":
        """``MPI_Comm_split``: ranks sharing *color* form a sub-communicator,
        ordered by *key* (default: world rank).  ``color < 0`` opts out."""
        key = self.rank if key is None else key
        table = self.allgather((color, key, self.rank), timeout=timeout)
        new_rank = None
        members: list = []
        if color >= 0:
            members = sorted(
                (entry for entry in table if entry[0] == color),
                key=lambda e: (e[1], e[2]),
            )
            new_rank = next(i for i, e in enumerate(members) if e[2] == self.rank)
            comm = f"{self.comm}/split-{color}"
            self._plugin._register_rank(
                self.job, comm, new_rank, self._mailbox(self.rank)
            )
        # every parent rank synchronises — including opted-out ones — so no
        # member communicates before all registrations landed
        self.barrier(timeout=timeout)
        if new_rank is None:
            return None
        return MpiContext(self._plugin, self.job, comm, new_rank, len(members))


class MpiRequest:
    """Handle for a nonblocking operation (the mpi4py ``Request`` shape).

    ``test()`` polls without blocking; ``wait()`` blocks until completion
    and returns the received value (``None`` for sends).
    """

    def __init__(self, ready: bool = False, context: "MpiContext | None" = None,
                 source: int | None = None, tag: int | None = None):
        self._done = ready
        self._value: Any = None
        self._context = context
        self._source = source
        self._tag = tag

    @property
    def completed(self) -> bool:
        return self._done

    def test(self) -> tuple[bool, Any]:
        """(done, value) without blocking."""
        if self._done:
            return True, self._value
        assert self._context is not None
        _, mailbox = self._context._mailbox(self._context.rank)
        envelope = self._context._plugin.hmsg.try_recv(mailbox, self._tag)
        if envelope is None:
            return False, None
        payload = envelope.data
        if self._source is not None and payload["src"] != self._source:
            # not ours: put it back for a matching receive
            host, _ = self._context._mailbox(self._context.rank)
            self._context._plugin.hmsg.send(host, mailbox, payload, envelope.tag)
            return False, None
        self._done = True
        self._value = payload["data"]
        return True, self._value

    def wait(self, timeout: float = 30.0) -> Any:
        """Block until the operation completes; returns the received value."""
        if self._done:
            return self._value
        assert self._context is not None
        self._value = self._context.recv(self._source, self._tag, timeout)
        self._done = True
        return self._value


class MpiPlugin(Plugin):
    """The per-host MPI daemon (`hmpid`), composed from backplane services."""

    plugin_name = "hmpi"
    requires = ("message-transport", "process-management", "table-lookup")
    provides = ("mpi",)

    def __init__(self, root_host: str | None = None):
        super().__init__()
        #: host holding the rank table; defaults to the launching kernel
        self.root_host = root_host
        self._job_counter = 0
        self._lock = threading.Lock()

    # -- service accessors ---------------------------------------------------------

    @property
    def hmsg(self) -> MessageTransportPlugin:
        return self.use("message-transport")  # type: ignore[return-value]

    @property
    def hproc(self) -> ProcessManagementPlugin:
        return self.use("process-management")  # type: ignore[return-value]

    @property
    def htable(self) -> TableLookupPlugin:
        return self.use("table-lookup")  # type: ignore[return-value]

    # -- rank table -------------------------------------------------------------------

    def _table_host(self) -> str:
        if self.kernel is None:
            raise PluginError("hmpi is not attached")
        return self.root_host or self.kernel.host_name

    def _register_rank(self, job: str, comm: str, rank: int, place: tuple[str, str]) -> None:
        key = f"{job}/{comm}/{rank}"
        host = self._table_host()
        if self.kernel is not None and host == self.kernel.host_name:
            self.htable.put(_RANK_TABLE, key, list(place))
        else:
            self.htable.put_remote(host, _RANK_TABLE, key, list(place))

    def _locate(self, job: str, comm: str, rank: int) -> tuple[str, str]:
        key = f"{job}/{comm}/{rank}"
        host = self._table_host()
        if self.kernel is not None and host == self.kernel.host_name:
            place = self.htable.get(_RANK_TABLE, key)
        else:
            place = self.htable.get_remote(host, _RANK_TABLE, key)
        if place is None:
            raise PluginError(f"no rank {rank} registered in {job}/{comm}")
        return place[0], place[1]

    # -- job launch -----------------------------------------------------------------------

    def run(
        self,
        fn: Callable | str,
        world_size: int,
        args: tuple = (),
        placement: list[str] | None = None,
        timeout: float = 60.0,
    ) -> list[Any]:
        """``mpiexec``: run ``fn(ctx, *args)`` as *world_size* ranks.

        ``placement[i]`` names the host for rank *i* (default: this kernel).
        Remote placement requires *fn* as an import path.  Blocks until
        every rank returns; returns their results ordered by rank.
        """
        if self.kernel is None:
            raise PluginError("hmpi is not attached")
        my_host = self.kernel.host_name
        placement = placement or [my_host] * world_size
        if len(placement) != world_size:
            raise PluginError("placement list must have world_size entries")
        with self._lock:
            self._job_counter += 1
            job = f"mpijob-{my_host}-{self._job_counter}"
        comm = "world"

        # register every rank's mailbox, and open the local ones, before any
        # rank starts: a rank that fails early closes them all (see
        # _start_local_rank), and a later open would bring one back
        local_mailboxes = []
        for rank, host in enumerate(placement):
            mailbox = f"mpi:{job}:{rank}"
            self._register_rank(job, comm, rank, (host, mailbox))
            if host == my_host:
                self.hmsg.open_mailbox(mailbox)
                local_mailboxes.append(mailbox)

        results: list[Any] = [None] * world_size
        errors: list[str] = []
        latch = CountDownLatch(world_size)
        # register the job before any rank can possibly report completion
        self._pending_jobs = getattr(self, "_pending_jobs", {})
        self._pending_jobs[job] = (results, errors, latch)

        for rank, host in enumerate(placement):
            if host == my_host:
                self._start_local_rank(
                    fn, job, rank, world_size, args, results, errors, latch,
                    local_mailboxes,
                )
            else:
                if not isinstance(fn, str):
                    raise PluginError("remote ranks require an import path")
                self.kernel.send(host, "mpi", {
                    "op": "start-rank", "path": fn, "job": job,
                    "rank": rank, "size": world_size, "args": list(args),
                    "reply_to": my_host,
                })
        # remote ranks report completion via kernel messages handled below;
        # local ranks count the latch down directly
        latch.wait(timeout=timeout)
        del self._pending_jobs[job]
        if errors:
            raise PluginError(f"MPI job {job} failed: {errors[0]}")
        return results

    def _start_local_rank(
        self, fn, job, rank, size, args, results, errors, latch, local_mailboxes
    ) -> None:
        callee = fn
        if isinstance(callee, str):
            from repro.runner.box import _resolve_import_path

            callee = _resolve_import_path(callee)
        context = MpiContext(self, job, "world", rank, size)

        def body() -> None:
            try:
                results[rank] = callee(context, *args)
            except Exception as exc:
                errors.append(f"rank {rank}: {type(exc).__name__}: {exc}")
                # abort: local peers parked in recv fail now, not at timeout
                for mailbox in local_mailboxes:
                    self.hmsg.close_mailbox(mailbox)
            finally:
                latch.count_down()

        self.hproc.spawn(body, name=f"mpi-{job}-r{rank}")

    # -- inter-kernel -------------------------------------------------------------------------

    def handle_message(self, src_host: str, payload: dict) -> Any:
        op = payload.get("op")
        if op == "start-rank":
            from repro.runner.box import _resolve_import_path

            callee = _resolve_import_path(payload["path"])
            job = payload["job"]
            rank = payload["rank"]
            size = payload["size"]
            reply_to = payload["reply_to"]
            _, mailbox = self._locate(job, "world", rank)
            self.hmsg.open_mailbox(mailbox)
            context = MpiContext(self, job, "world", rank, size)

            def body() -> None:
                try:
                    result = callee(context, *payload.get("args", ()))
                    report = {"op": "rank-done", "job": job, "rank": rank, "result": result}
                except Exception as exc:
                    report = {"op": "rank-done", "job": job, "rank": rank,
                              "error": f"rank {rank}: {type(exc).__name__}: {exc}"}
                assert self.kernel is not None
                self.kernel.send(reply_to, "mpi", report)

            self.hproc.spawn(body, name=f"mpi-{job}-r{rank}")
            return True
        if op == "rank-done":
            pending = getattr(self, "_pending_jobs", {}).get(payload["job"])
            if pending is None:
                return False
            results, errors, latch = pending
            if payload.get("error"):
                errors.append(payload["error"])
            else:
                results[payload["rank"]] = payload.get("result")
            latch.count_down()
            return True
        raise PluginError(f"hmpi: unknown operation {op!r}")
