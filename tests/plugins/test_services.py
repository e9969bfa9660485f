"""The example service components (WSTime, MatMul, LAPACK stand-in)."""

import numpy as np
import pytest

from repro.plugins.services import (
    CounterService,
    LinearAlgebraService,
    MatMul,
    WSTime,
)
from repro.util.errors import HarnessError


class TestWSTime:
    def test_get_time_is_ctime_shaped(self):
        text = WSTime().getTime()
        assert isinstance(text, str)
        parts = text.split()
        assert len(parts) == 5  # "Mon Jul  7 12:00:00 2026" → 5 tokens

    def test_epoch_seconds_monotonic_enough(self):
        service = WSTime()
        a = service.getEpochSeconds()
        b = service.getEpochSeconds()
        assert b >= a > 1e9


class TestMatMul:
    def test_flat_square_multiply(self, rng):
        service = MatMul()
        a = rng.random(16)
        b = rng.random(16)
        result = service.getResult(a, b)
        assert result.shape == (16,)
        assert np.allclose(result, (a.reshape(4, 4) @ b.reshape(4, 4)).ravel())

    def test_identity(self):
        service = MatMul()
        eye = np.eye(3).ravel()
        x = np.arange(9.0)
        assert np.allclose(service.getResult(eye, x), x)

    def test_size_mismatch_rejected(self):
        with pytest.raises(HarnessError):
            MatMul().getResult(np.arange(4.0), np.arange(9.0))

    def test_non_square_rejected(self):
        with pytest.raises(HarnessError):
            MatMul().getResult(np.arange(6.0), np.arange(6.0))

    def test_multiply_2d(self, rng):
        a = rng.random((3, 5))
        b = rng.random((5, 2))
        assert np.allclose(MatMul().multiply(a, b), a @ b)

    def test_multiply_shape_mismatch(self):
        with pytest.raises(HarnessError):
            MatMul().multiply(np.ones((2, 3)), np.ones((2, 3)))

    def test_list_inputs_accepted(self):
        result = MatMul().getResult([1.0, 0.0, 0.0, 1.0], [5.0, 6.0, 7.0, 8.0])
        assert np.allclose(result, [5.0, 6.0, 7.0, 8.0])


class TestLinearAlgebraService:
    @pytest.fixture
    def svc(self):
        return LinearAlgebraService()

    def test_solve(self, svc, rng):
        a = rng.random((6, 6)) + 6 * np.eye(6)
        x = rng.random(6)
        b = a @ x
        assert np.allclose(svc.solve(a, b), x)

    def test_lstsq(self, svc, rng):
        a = rng.random((10, 3))
        x = rng.random(3)
        solution = svc.lstsq(a, a @ x)
        assert np.allclose(solution, x)

    def test_determinant(self, svc):
        assert svc.determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)
        assert isinstance(svc.determinant(np.eye(2)), float)

    def test_inverse(self, svc, rng):
        a = rng.random((4, 4)) + 4 * np.eye(4)
        assert np.allclose(svc.inverse(a) @ a, np.eye(4), atol=1e-10)

    def test_singular_values_sorted(self, svc, rng):
        s = svc.singular_values(rng.random((5, 3)))
        assert len(s) == 3
        assert np.all(np.diff(s) <= 0)

    def test_norm(self, svc):
        assert svc.norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


class TestCounterService:
    def test_accumulates(self):
        counter = CounterService()
        assert counter.increment() == 1
        assert counter.increment(5) == 6
        assert counter.value() == 6

    def test_instances_independent(self):
        a, b = CounterService(), CounterService()
        a.increment(3)
        assert b.value() == 0


class TestServicePlugins:
    def test_plugins_deploy_and_undeploy(self):
        from repro.core.kernel import HarnessKernel
        from repro.plugins.service_plugins import (
            LinalgServicePlugin,
            MatMulServicePlugin,
            TimeServicePlugin,
        )

        kernel = HarnessKernel("svc-host")
        for plugin_cls, service_name in (
            (TimeServicePlugin, "WSTime"),
            (MatMulServicePlugin, "MatMul"),
            (LinalgServicePlugin, "LinearAlgebraService"),
        ):
            kernel.load_plugin(plugin_cls(bindings=("local-instance",)))
            assert kernel.container.component_named(service_name)
        # figure 1 names: mmul provides matmul-service
        assert kernel.has_service("matmul-service")
        kernel.unload_plugin("mmul")
        from repro.util.errors import ServiceNotFoundError

        with pytest.raises(ServiceNotFoundError):
            kernel.container.component_named("MatMul")
        kernel.shutdown()

    def test_a_failed_undeploy_on_stop_is_counted(self, monkeypatch):
        from repro.core.kernel import HarnessKernel
        from repro.obs import metrics
        from repro.plugins.service_plugins import MatMulServicePlugin

        kernel = HarnessKernel("svc-host3")
        plugin = MatMulServicePlugin(bindings=("local-instance",))
        kernel.load_plugin(plugin)

        def refuse(instance_id):
            raise RuntimeError("cannot undeploy")

        monkeypatch.setattr(kernel.container, "undeploy", refuse)
        kernel.unload_plugin("mmul")
        assert plugin.handle is None
        snap = metrics.registry.snapshot("plugins.service_undeploy_errors")
        assert snap["plugins.service_undeploy_errors"]["value"] == 1
        assert snap["plugins.service_undeploy_errors.RuntimeError"]["value"] == 1
        monkeypatch.undo()
        kernel.shutdown()

    def test_deployed_service_invocable_through_container(self, rng):
        from repro.core.kernel import HarnessKernel
        from repro.plugins.service_plugins import MatMulServicePlugin

        kernel = HarnessKernel("svc-host2")
        kernel.load_plugin(MatMulServicePlugin(bindings=("local-instance",)))
        stub = kernel.container.lookup("MatMul")
        a = rng.random((2, 2))
        assert np.allclose(stub.multiply(a, a), a @ a)
        kernel.shutdown()
