"""Workloads' real kernels executed through the work-stealing pool.

These close the loop between the two halves of each workload: the real
Python body runs on host threads via the Chase-Lev runtime layer, and
the results are validated against direct computation.
"""

import numpy as np
import pytest
from scipy.stats import norm

from repro.runtime.workstealing import WorkStealingPool, coverage_is_complete
from repro.workloads.mandelbrot import render_escape_counts
from repro.workloads.nbody import nbody_forces
from repro.workloads.raytracer import render
from repro.workloads.registry import workload_by_abbrev
from repro.workloads.seismic import wave_step

EXECUTABLE = ("MB", "MM", "BS", "NB", "SM", "RT")


@pytest.fixture
def pool():
    return WorkStealingPool(num_workers=4, chunk=64)


@pytest.mark.parametrize("abbrev", EXECUTABLE)
def test_workload_provides_executable_kernel(abbrev):
    kernel = workload_by_abbrev(abbrev).make_executable_kernel()
    assert kernel is not None
    assert kernel.cpu_fn is not None


class TestRealExecution:
    def test_mandelbrot_matches_direct(self, pool):
        kernel = workload_by_abbrev("MB").make_executable_kernel()
        n = 256 * 192
        executed = pool.run(kernel.execute_cpu, 0, n)
        assert coverage_is_complete(executed, 0, n)
        image = kernel.output.reshape(192, 256)
        assert np.array_equal(image, render_escape_counts(256, 192, 96))

    def test_matmul_matches_numpy(self, pool):
        kernel = workload_by_abbrev("MM").make_executable_kernel()
        a, b = kernel.operands
        pool.run(kernel.execute_cpu, 0, a.shape[0])
        assert np.allclose(kernel.output, a @ b, atol=1e-9)

    def test_blackscholes_matches_scipy(self, pool):
        kernel = workload_by_abbrev("BS").make_executable_kernel()
        opts = kernel.options
        pool.run(kernel.execute_cpu, 0, len(opts.spot))
        sqrt_t = np.sqrt(opts.expiry)
        d1 = (np.log(opts.spot / opts.strike)
              + (opts.rate + 0.5 * opts.volatility ** 2) * opts.expiry) \
            / (opts.volatility * sqrt_t)
        d2 = d1 - opts.volatility * sqrt_t
        ref = (opts.spot * norm.cdf(d1)
               - opts.strike * np.exp(-opts.rate * opts.expiry)
               * norm.cdf(d2))
        assert np.allclose(kernel.calls, ref, atol=1e-9)

    def test_nbody_matches_direct(self, pool):
        kernel = workload_by_abbrev("NB").make_executable_kernel()
        n = len(kernel.masses)
        pool.run(kernel.execute_cpu, 0, n)
        reference = nbody_forces(kernel.positions, kernel.masses)
        assert np.allclose(kernel.forces, reference, atol=1e-9)

    def test_seismic_matches_full_step(self, pool):
        kernel = workload_by_abbrev("SM").make_executable_kernel()
        n = kernel.field.shape[0]
        pool.run(kernel.execute_cpu, 0, n)
        reference, _ = wave_step(kernel.field, kernel.previous)
        assert np.allclose(kernel.output, reference, atol=1e-12)

    def test_raytracer_matches_direct(self, pool):
        kernel = workload_by_abbrev("RT").make_executable_kernel()
        height, width = kernel.shape
        pool.run(kernel.execute_cpu, 0, height)
        reference = render(kernel.scene, width, height)
        assert np.allclose(kernel.image, reference, atol=1e-12)

    def test_chunked_and_monolithic_execution_agree(self):
        """Work distribution must not change results (determinism of
        the data-parallel decomposition)."""
        fine = workload_by_abbrev("NB").make_executable_kernel()
        coarse = workload_by_abbrev("NB").make_executable_kernel()
        WorkStealingPool(num_workers=4, chunk=7).run(
            fine.execute_cpu, 0, len(fine.masses))
        coarse.execute_cpu(0, len(coarse.masses))
        assert np.allclose(fine.forces, coarse.forces, atol=1e-12)
