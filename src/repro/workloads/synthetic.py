"""Synthetic workload generation - testing schedulers beyond Table 1.

The paper evaluates twelve hand-picked benchmarks.  A scheduler that
claims to be black-box should also hold up on workloads nobody tuned
it for; :func:`generate_workload` draws random-but-plausible
data-parallel applications from a seeded distribution spanning the
whole taxonomy:

* compute- vs memory-bound (miss ratios straddling the 0.33 threshold),
* regular vs irregular (cost-field CV and correlation length),
* CPU- vs GPU-leaning device efficiencies,
* single long kernels vs many short launches.

Downstream users can use the same generator to stress their own
scheduler variants (see ``synthetic_suite`` in
``benchmarks/bench_paper_shape.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.soc.cost_model import KernelCostModel
from repro.workloads.base import InvocationSpec, Workload


class SyntheticWorkload(Workload):
    """A generated data-parallel application."""

    regular = False
    tablet_supported = True

    def __init__(self, name: str, cost: KernelCostModel,
                 invocation_items: List[float]) -> None:
        if not invocation_items:
            raise WorkloadError("synthetic workload needs invocations")
        self.name = name
        self.abbrev = name
        self.regular = cost.item_cost_cv <= 0.2
        self.input_desktop = (f"{sum(invocation_items):.3g} items over "
                              f"{len(invocation_items)} launches")
        self.input_tablet = self.input_desktop
        self._cost = cost
        self._invocations = [InvocationSpec(n_items=n)
                             for n in invocation_items]

    def cost_model(self, tablet: bool = False) -> KernelCostModel:
        return self._cost

    def invocations(self, tablet: bool = False) -> List[InvocationSpec]:
        return list(self._invocations)

    def validate(self) -> None:
        """Synthetic workloads have no reference algorithm; validity
        means a well-formed cost model and invocation list, which the
        constructors enforce."""


def generate_workload(seed: int,
                      rng: Optional[np.random.Generator] = None
                      ) -> SyntheticWorkload:
    """Draw one synthetic workload; deterministic per seed."""
    rng = rng or np.random.default_rng(0xBEEF + seed)

    memory_bound = bool(rng.random() < 0.5)
    irregular = bool(rng.random() < 0.5)
    # Device lean: log-uniform GPU/CPU effective ratio in [0.5, 4].
    lean = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))

    instructions = float(rng.uniform(100.0, 3000.0))
    if memory_bound:
        loadstore = float(rng.uniform(0.15, 0.3))
        miss = float(rng.uniform(0.34, 0.5))
        cpu_eff = float(rng.uniform(0.01, 0.06))  # latency-bound
    else:
        loadstore = float(rng.uniform(0.1, 0.35))
        miss = float(rng.uniform(0.0, 0.05))
        cpu_eff = float(rng.uniform(0.2, 1.0))

    divergence = float(rng.uniform(0.2, 0.5)) if irregular else \
        float(rng.uniform(0.0, 0.1))
    expansion = float(rng.uniform(1.0, 1.4))
    # Desktop peak GPU/CPU instruction-rate ratio is ~2.7; solve the
    # SIMD efficiency that realizes the drawn lean.
    base_ratio = 2.69
    gpu_eff = cpu_eff * lean * expansion / (base_ratio * (1.0 - divergence))
    gpu_eff = float(min(max(gpu_eff, 0.001), 1.0))

    cost = KernelCostModel(
        name=f"syn-{seed}",
        instructions_per_item=instructions,
        loadstore_fraction=loadstore,
        l3_miss_rate=miss,
        cpu_simd_efficiency=cpu_eff,
        gpu_simd_efficiency=gpu_eff,
        gpu_divergence=divergence,
        gpu_instruction_expansion=expansion,
        gpu_traffic_factor=float(rng.uniform(0.6, 1.0)),
        item_cost_cv=float(rng.uniform(0.4, 1.2)) if irregular else 0.0,
        cost_profile_scale=float(rng.uniform(0.05, 0.3)),
        rng_tag=1000 + seed,
    )

    # Size the application to a 0.3-3 s CPU-alone runtime on the
    # desktop (so sweeps stay cheap but PCU transients amortize).
    cpu_rate = 6.24e10 * cpu_eff / instructions
    total_items = cpu_rate * float(rng.uniform(0.3, 3.0))
    many_launches = bool(rng.random() < 0.4)
    if many_launches:
        n_launches = int(rng.integers(20, 400))
        shares = rng.dirichlet(np.full(n_launches, 2.0))
        items = [max(float(s * total_items), 1.0) for s in shares]
    else:
        items = [total_items]

    return SyntheticWorkload(name=f"SYN{seed}", cost=cost,
                             invocation_items=items)


def generate_suite(count: int, seed: int = 0) -> List[SyntheticWorkload]:
    """A reproducible suite of ``count`` synthetic workloads."""
    if count < 1:
        raise WorkloadError("count must be >= 1")
    rng = np.random.default_rng(0xFEED + seed)
    return [generate_workload(seed * 1000 + i, rng) for i in range(count)]
