"""Plugins that deploy the example services into a kernel's container.

Figure 1 shows application plugins (``mmul``, ``ping``…) loaded alongside
the infrastructure plugins.  These wrappers are those application plugins:
loading one deploys its service component into the kernel's container with
the requested bindings, making it discoverable and invocable DVM-wide.
"""

from __future__ import annotations

from repro.core.plugin import Plugin
from repro.obs import metrics as _metrics
from repro.plugins.services import LinearAlgebraService, MatMul, WSTime

__all__ = ["TimeServicePlugin", "MatMulServicePlugin", "LinalgServicePlugin", "PingPlugin"]


class _ServiceDeployingPlugin(Plugin):
    """Shared machinery: deploy ``service_class`` on start, undeploy on stop."""

    service_class: type = object
    service_bindings: tuple[str, ...] = ("local-instance", "xdr", "soap")

    def __init__(self, bindings: tuple[str, ...] | None = None) -> None:
        super().__init__()
        if bindings is not None:
            self.service_bindings = bindings
        self.handle = None

    def on_start(self) -> None:
        assert self.kernel is not None
        self.handle = self.kernel.container.deploy(
            self.service_class, bindings=self.service_bindings
        )

    def on_stop(self) -> None:
        if self.handle is not None and self.kernel is not None:
            try:
                self.kernel.container.undeploy(self.handle.instance_id)
            except Exception as exc:  # stopping goes on: count what it survives
                _metrics.registry.count_error("plugins.service_undeploy_errors", exc)
            self.handle = None


class TimeServicePlugin(_ServiceDeployingPlugin):
    """Deploys the Figure 7 WSTime service."""

    plugin_name = "timesvc"
    provides = ("time-service",)
    service_class = WSTime


class MatMulServicePlugin(_ServiceDeployingPlugin):
    """Deploys the Figure 8 MatMul service (the figure's ``mmul`` plugin)."""

    plugin_name = "mmul"
    provides = ("matmul-service",)
    service_class = MatMul


class LinalgServicePlugin(_ServiceDeployingPlugin):
    """Deploys the LAPACK stand-in for the Section 6 scenario."""

    plugin_name = "linalg"
    provides = ("linalg-service",)
    service_class = LinearAlgebraService


class PingPlugin(Plugin):
    """Figure 1's ``ping`` plugin: round-trip liveness between kernels."""

    plugin_name = "ping"
    provides = ("ping",)

    def ping(self, dst_host: str, token: int = 0) -> int:
        """Round-trip *token* through the kernel channel to *dst_host*."""
        assert self.kernel is not None
        return self.kernel.send(dst_host, "ping", {"token": token})

    def handle_message(self, src_host: str, payload: dict) -> int:
        return payload.get("token", 0)
