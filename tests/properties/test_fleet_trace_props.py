"""Property suites for the columnar arrival-trace generators.

The dispatch loop's input contract: under any spec, the columnar
form (``trace_columns``) is the element-for-element twin of the scalar
oracle (``generate_trace`` in ``tests/fleet/reference_trace.py``),
arrivals are nondecreasing, and deadlines stay inside the spec's
range.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import TRACE_KINDS, TraceSpec, trace_columns
from repro.workloads.registry import DESKTOP_SUITE
from tests.fleet.reference_trace import generate_trace

#: Keep traces small: the properties are per-element, not per-scale
#: (tests/fleet/test_trace.py covers traces that span several of the
#: columnar form's word blocks).  One to six workload names, repeats
#: allowed, so every rejection rate of the workload draw shows up:
#: n = 1, 2 and 4 reject half the words.
spec_st = st.builds(
    TraceSpec,
    kind=st.sampled_from(TRACE_KINDS),
    duration_s=st.floats(0.5, 40.0),
    mean_rate_hz=st.floats(0.2, 6.0),
    workloads=st.lists(st.sampled_from(DESKTOP_SUITE), min_size=1,
                       max_size=6).map(tuple),
    seed=st.integers(0, 2 ** 31 - 1),
)


class TestColumnScalarTwins:
    @given(spec=spec_st)
    @settings(max_examples=40, deadline=None)
    def test_columns_equal_scalar_elementwise(self, spec):
        requests = generate_trace(spec)
        t, w, d = trace_columns(spec)
        assert len(t) == len(requests)
        for i, r in enumerate(requests):
            assert float(t[i]) == r.t_arrival_s
            assert spec.workloads[int(w[i])] == r.workload
            assert float(d[i]) == r.deadline_s

    @given(spec=spec_st)
    @settings(max_examples=40, deadline=None)
    def test_shape_invariants(self, spec):
        t, w, d = trace_columns(spec)
        assert t.dtype == np.float64
        assert w.dtype == np.uint16
        assert d.dtype == np.float64
        if len(t):
            assert np.all(np.diff(t) >= 0.0)
            assert float(t[0]) >= 0.0
            assert float(t[-1]) <= spec.duration_s
            assert np.all(w < len(spec.workloads))
            assert np.all(d >= spec.deadline_lo_s)
            assert np.all(d <= spec.deadline_hi_s)

    @given(spec=spec_st)
    @settings(max_examples=20, deadline=None)
    def test_regeneration_is_deterministic(self, spec):
        a = trace_columns(spec)
        b = trace_columns(spec)
        for col_a, col_b in zip(a, b):
            assert np.array_equal(col_a, col_b)
