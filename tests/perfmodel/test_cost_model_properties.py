"""Property tests of ``BatchCostModel``'s span closed forms.

The span engine books a whole span from one ``span_cumlat`` vector: it
slices the vector for truncated spans and searches it for the join and
crash boundaries.  That is sound only if the vector's prefixes are the
shorter spans' vectors bit for bit, element ``j-1`` is ``span(ctx0,
j).latency_s`` bit for bit, and the vector never decreases.  The
search-based ``find_boundary`` is checked against the bisection over
``span`` it replaced, kept here as the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import replica_resources
from repro.methods import get_method, hack_method
from repro.model import get_model
from repro.perfmodel import BatchCostModel

L = get_model("L")
A100 = replica_resources(L, "A100")

#: Methods without Eq. 4 corrections, and HACK variants over several Π
#: with and without summation and requantization elimination.
METHODS = [get_method(name) for name in ("baseline", "cachegen", "kvquant")]
METHODS += [hack_method(partition_size=pi, summation_elimination=se,
                        requant_elimination=rqe)
            for pi in (16, 32, 64, 128) for se in (True, False)
            for rqe in (True, False)]
MODELS = [BatchCostModel(L, A100, method) for method in METHODS]

spans = st.tuples(
    st.sampled_from(MODELS),
    st.lists(st.integers(1, 4096), min_size=1, max_size=8),
    st.integers(1, 300),
)


def _bisect_boundary(model, ctx0, k, elapsed_s):
    """The bisection over ``span`` that ``find_boundary`` used to run."""
    lo, hi = 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        if model.span(ctx0, mid).latency_s >= elapsed_s:
            hi = mid
        else:
            lo = mid + 1
    return lo


@given(spans, st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_is_the_shorter_span(span, data):
    model, ctx0, k = span
    j = data.draw(st.integers(1, k))
    cum = model.span_cumlat(ctx0, k)
    assert cum[:j].tobytes() == model.span_cumlat(ctx0, j).tobytes()


@given(spans)
@settings(max_examples=40, deadline=None)
def test_elements_are_span_latencies(span):
    model, ctx0, k = span
    cum = model.span_cumlat(ctx0, k)
    assert cum.shape == (k,)
    for j in range(1, k + 1):
        assert cum[j - 1] == model.span(ctx0, j).latency_s


@given(spans)
@settings(max_examples=60, deadline=None)
def test_non_decreasing(span):
    model, ctx0, k = span
    assert np.all(np.diff(model.span_cumlat(ctx0, k)) >= 0.0)


@given(spans, st.data())
@settings(max_examples=60, deadline=None)
def test_find_boundary_matches_bisection(span, data):
    model, ctx0, k = span
    cum = model.span_cumlat(ctx0, k)
    i = data.draw(st.integers(0, k - 1))
    below = cum[i - 1] if i else 0.0
    probes = [0.0, -1.0, cum[i], (below + cum[i]) / 2.0,
              np.nextafter(cum[i], -np.inf), np.nextafter(cum[i], np.inf),
              cum[-1], cum[-1] * 1.5]
    for elapsed in probes:
        assert model.find_boundary(ctx0, k, elapsed) == \
            _bisect_boundary(model, ctx0, k, elapsed)
