"""Kernel abstraction."""

import pytest

from repro.errors import RuntimeLayerError
from repro.runtime.kernel import Kernel
from repro.soc.cost_model import KernelCostModel


@pytest.fixture
def cost():
    return KernelCostModel(name="k", instructions_per_item=10.0,
                           loadstore_fraction=0.1, l3_miss_rate=0.0)


class TestKernel:
    def test_key_defaults_to_name(self, cost):
        kernel = Kernel(name="my-kernel", cost=cost)
        assert kernel.key == "my-kernel"

    def test_explicit_key(self, cost):
        kernel = Kernel(name="my-kernel", cost=cost, key="site-42")
        assert kernel.key == "site-42"

    def test_requires_name(self, cost):
        with pytest.raises(RuntimeLayerError):
            Kernel(name="", cost=cost)

    def test_execute_cpu_runs_body(self, cost):
        calls = []
        kernel = Kernel(name="k", cost=cost,
                        cpu_fn=lambda lo, hi: calls.append((lo, hi)))
        kernel.execute_cpu(3, 9)
        assert calls == [(3, 9)]

    def test_execute_cpu_without_body_raises(self, cost):
        with pytest.raises(RuntimeLayerError):
            Kernel(name="k", cost=cost).execute_cpu(0, 1)
