"""Runner boxes — the Resource Abstraction Layer (Figure 6, lowest layer).

"The runner box defines only the limited functionality required by the
Harness system to enroll a computational resource.  The functionality of
the runner box is minimized so that existing incompatible implementations
of computational resources (e.g. rsh daemon, grid resource managers etc.)
could be modeled as a single runner box Web Service."

:class:`RunnerBox` is that minimum: ``run`` / ``status`` / ``stop`` /
``describe``.  Three adapters model three kinds of substrate:

* :class:`ThreadRunnerBox` — in-process threads (a multiprocessor node);
* :class:`SubprocessRunnerBox` — OS processes (an rsh-daemon stand-in);
* :class:`SimHostRunnerBox` — a :class:`~repro.netsim.VirtualHost`
  (grid-managed remote resource, executed eagerly but accounted to the
  simulated host).
"""

from __future__ import annotations

import importlib
import subprocess
import threading
from typing import Callable

from repro.runner.tasks import TaskKind, TaskSpec, TaskState, TaskStatus
from repro.util.errors import RunnerError
from repro.util.ids import new_id

__all__ = ["RunnerBox", "ThreadRunnerBox", "SubprocessRunnerBox", "SimHostRunnerBox"]


def _resolve_import_path(path: str) -> Callable:
    module_name, sep, attr = path.partition(":")
    if not sep:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise RunnerError(f"malformed import path {path!r}")
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise RunnerError(f"cannot resolve task {path!r}: {exc}") from exc
    if not callable(fn):
        raise RunnerError(f"{path!r} is not callable")
    return fn


class RunnerBox:
    """Abstract resource: run/status/stop plus a one-line description.

    Subclasses implement :meth:`_launch`; bookkeeping is shared.
    """

    resource_kind = "abstract"

    def __init__(self, name: str = ""):
        self.name = name or new_id("runner")
        self._lock = threading.RLock()
        self._tasks: dict[str, TaskStatus] = {}

    # -- the minimal web-service interface ----------------------------------------

    def run(self, spec: TaskSpec) -> str:
        """Submit a task; returns its task id immediately."""
        task_id = new_id("task")
        status = TaskStatus(task_id, TaskState.PENDING, name=spec.name)
        with self._lock:
            self._tasks[task_id] = status
        self._launch(spec, status)
        return task_id

    def status(self, task_id: str) -> TaskStatus:
        """Current status of *task_id*."""
        with self._lock:
            status = self._tasks.get(task_id)
        if status is None:
            raise RunnerError(f"unknown task {task_id!r} on {self.name}")
        return status

    def stop(self, task_id: str) -> bool:
        """Request task termination; True if a transition happened."""
        status = self.status(task_id)
        with self._lock:
            if status.state.terminal:
                return False
            status.state = TaskState.STOPPED
        self._kill(task_id)
        return True

    def describe(self) -> dict:
        """Resource description published at registration (Section 1's
        'resources … described with sufficient semantic information')."""
        with self._lock:
            active = sum(1 for t in self._tasks.values() if not t.state.terminal)
        return {
            "name": self.name,
            "kind": self.resource_kind,
            "active_tasks": active,
            "total_tasks": len(self._tasks),
        }

    def wait(self, task_id: str, timeout: float = 30.0) -> TaskStatus:
        """Block until the task reaches a terminal state."""
        from repro.util.concurrent import wait_for

        wait_for(lambda: self.status(task_id).state.terminal, timeout=timeout)
        return self.status(task_id)

    def tasks(self) -> list[TaskStatus]:
        with self._lock:
            return list(self._tasks.values())

    # -- subclass hooks --------------------------------------------------------------

    def _launch(self, spec: TaskSpec, status: TaskStatus) -> None:
        raise NotImplementedError

    def _kill(self, task_id: str) -> None:
        """Best-effort termination hook (default: cooperative only)."""


class ThreadRunnerBox(RunnerBox):
    """Runs callable tasks on daemon threads."""

    resource_kind = "thread"

    def _launch(self, spec: TaskSpec, status: TaskStatus) -> None:
        if spec.kind is TaskKind.ARGV:
            raise RunnerError("ThreadRunnerBox cannot run argv tasks")
        fn = spec.payload if spec.kind is TaskKind.CALLABLE else _resolve_import_path(spec.payload)
        if not callable(fn):
            raise RunnerError(f"task payload is not callable: {fn!r}")

        def body() -> None:
            with self._lock:
                if status.state is TaskState.STOPPED:
                    return
                status.state = TaskState.RUNNING
            try:
                result = fn(*spec.args, **spec.kwargs)
            except Exception as exc:
                with self._lock:
                    if status.state is not TaskState.STOPPED:
                        status.state = TaskState.FAILED
                        status.error = f"{type(exc).__name__}: {exc}"
                return
            with self._lock:
                if status.state is not TaskState.STOPPED:
                    status.state = TaskState.DONE
                    status.result = result

        threading.Thread(target=body, name=f"{self.name}-{status.task_id}", daemon=True).start()


class SubprocessRunnerBox(RunnerBox):
    """Runs argv tasks as OS subprocesses (the rsh-daemon analogue)."""

    resource_kind = "subprocess"

    def __init__(self, name: str = "", timeout: float = 60.0):
        super().__init__(name)
        self._timeout = timeout
        self._procs: dict[str, subprocess.Popen] = {}

    def _launch(self, spec: TaskSpec, status: TaskStatus) -> None:
        if spec.kind is not TaskKind.ARGV:
            raise RunnerError("SubprocessRunnerBox only runs argv tasks")

        def body() -> None:
            with self._lock:
                if status.state is TaskState.STOPPED:
                    return
                status.state = TaskState.RUNNING
            try:
                proc = subprocess.Popen(
                    spec.payload, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
                )
                with self._lock:
                    self._procs[status.task_id] = proc
                out, err = proc.communicate(timeout=self._timeout)
            except Exception as exc:
                with self._lock:
                    if status.state is not TaskState.STOPPED:
                        status.state = TaskState.FAILED
                        status.error = f"{type(exc).__name__}: {exc}"
                return
            finally:
                with self._lock:
                    self._procs.pop(status.task_id, None)
            with self._lock:
                if status.state is TaskState.STOPPED:
                    return
                if proc.returncode == 0:
                    status.state = TaskState.DONE
                    status.result = out
                else:
                    status.state = TaskState.FAILED
                    status.error = err.strip() or f"exit code {proc.returncode}"

        threading.Thread(target=body, name=f"{self.name}-{status.task_id}", daemon=True).start()

    def _kill(self, task_id: str) -> None:
        with self._lock:
            proc = self._procs.get(task_id)
        if proc is not None:
            proc.terminate()


class SimHostRunnerBox(RunnerBox):
    """Models a grid-managed resource on a simulated host.

    Tasks execute eagerly in the caller's thread (deterministic), but the
    runner charges the submission round trip to the virtual network so DVM
    experiments account for remote task placement.
    """

    resource_kind = "sim-host"

    def __init__(self, network, host_name: str, name: str = ""):
        super().__init__(name or f"runner@{host_name}")
        self._network = network
        self.host_name = host_name

    def _launch(self, spec: TaskSpec, status: TaskStatus) -> None:
        from repro.transport.base import TransportMessage

        if spec.kind is TaskKind.ARGV:
            raise RunnerError("SimHostRunnerBox cannot run argv tasks")
        fn = spec.payload if spec.kind is TaskKind.CALLABLE else _resolve_import_path(spec.payload)
        # charge the submission message (spec description) to the fabric
        self._network.charge("client", self.host_name, 256)
        status.state = TaskState.RUNNING
        try:
            status.result = fn(*spec.args, **spec.kwargs)
            status.state = TaskState.DONE
        except Exception as exc:
            status.state = TaskState.FAILED
            status.error = f"{type(exc).__name__}: {exc}"
