"""Concord-like heterogeneous ``parallel_for`` runtime.

The paper implements its scheduler inside Concord, a heterogeneous C++
framework: a data-parallel ``parallel_for`` whose iterations may run on
CPU worker threads (work stealing, TBB-style) or be offloaded in blocks
to the integrated GPU by a dedicated *GPU proxy thread*.

This package reproduces that structure:

* :mod:`repro.runtime.deque` - a Chase-Lev work-stealing deque (a real,
  thread-safe data structure, exercised by the host-execution pool);
* :mod:`repro.runtime.workstealing` - a host-thread work-stealing pool
  used to execute workloads' *real* Python kernels for validation;
* :mod:`repro.runtime.kernel` - the kernel abstraction: a CPU function,
  a GPU ("OpenCL") function and a cost model;
* :mod:`repro.runtime.runtime` - :class:`ConcordRuntime`, which runs
  kernels on the simulated SoC under a pluggable scheduler;
* :mod:`repro.runtime.tenancy` - multiprogram co-scheduling: N tenant
  kernel streams interleaved on one SoC under a GPU lease arbiter,
  which is what makes the ``gpu_busy`` counter (and the scheduler's
  Section-5 fallback) real.
"""

from repro.runtime.deque import ChaseLevDeque
from repro.runtime.kernel import Kernel
from repro.runtime.runtime import ConcordRuntime, InvocationResult, KernelLaunch
from repro.runtime.tenancy import (
    ARBITER_POLICIES,
    GpuLeaseArbiter,
    LeaseEvent,
    MultiprogramResult,
    TenantResult,
    TenantSoCView,
    TenantSpec,
    parse_tenant_specs,
    run_multiprogram,
)
from repro.runtime.workstealing import WorkStealingPool

__all__ = [
    "ChaseLevDeque",
    "WorkStealingPool",
    "Kernel",
    "ConcordRuntime",
    "KernelLaunch",
    "InvocationResult",
    "ARBITER_POLICIES",
    "GpuLeaseArbiter",
    "LeaseEvent",
    "MultiprogramResult",
    "TenantResult",
    "TenantSoCView",
    "TenantSpec",
    "parse_tenant_specs",
    "run_multiprogram",
]
