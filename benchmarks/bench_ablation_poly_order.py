"""Ablation: polynomial order of the power characterization curves.

The paper found "a sixth-order polynomial was a good fit".  This
ablation fits the same sweeps with orders 1, 2, 4 and 6 and measures
(a) fit quality and (b) downstream EAS efficiency.  Expectation: fit
error shrinks with order and the order-6 scheduler is at least as good
as the crude fits.
"""

from repro.core.categories import all_categories
from repro.core.characterization import PowerCharacterizer
from repro.soc.spec import haswell_desktop
from repro.workloads.microbench import standard_microbenches

from benchmarks._ablation_common import mean_efficiency


def characterize(order):
    spec = haswell_desktop()
    characterizer = PowerCharacterizer(
        spec=spec, microbenches=standard_microbenches(), fit_order=order)
    return characterizer.characterize()


def test_ablation_poly_order(benchmark):
    def run():
        results = {}
        for order in (1, 2, 4, 6):
            characterization = characterize(order)
            rms = max(characterization.curve_for(c).fit_residual_rms()
                      for c in all_categories())
            eff = mean_efficiency(characterization=characterization)
            results[order] = (rms, eff)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    # Fit quality improves monotonically with order.
    assert results[6][0] < results[2][0] < results[1][0]
    # The paper's order-6 choice does not lose to the crude fits.
    assert results[6][1] >= results[1][1] - 3.0
    assert results[6][1] > 85.0

    for order, (rms, eff) in results.items():
        benchmark.extra_info[f"order{order}"] = (
            f"rms={rms:.2f}W eff={eff:.1f}%")
        print(f"order {order}: worst-fit RMS {rms:6.2f} W, "
              f"EAS efficiency {eff:5.1f}%")
