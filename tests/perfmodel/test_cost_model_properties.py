"""Property tests of ``BatchCostModel``'s span closed forms.

The span engine books a whole span from one ``span_vectors`` pass: it
reads truncated spans' totals from the vectors' prefixes and searches
the cumulative latency for the join and crash boundaries.  That is
sound only if the vectors' prefixes are the shorter spans' vectors bit
for bit, element ``j-1`` of every vector is the matching ``span(ctx0,
j)`` field bit for bit, and the latency never decreases.  The
``(k × batch)`` matrix form ``span_cumlat`` had before the running-sum
evaluator, and the bisection over ``span`` that ``find_boundary``
replaced, are kept here as oracles.
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


@st.composite
def stair_spans(draw, max_batch=8):
    """Spans whose contexts sit at, or one off, multiples of Π (where the
    Eq. 4 staircase steps) as well as anywhere; ``k`` up to 300 > Π."""
    model = draw(st.sampled_from(MODELS))
    pi = model.method.partition_size
    near_step = st.builds(lambda m, d: pi * m + d,
                          st.integers(1, 4096 // pi), st.integers(-1, 1))
    ctx0 = draw(st.lists(st.one_of(st.integers(1, 4096), near_step),
                         min_size=1, max_size=max_batch))
    return model, ctx0, draw(st.integers(1, 300))


def _matrix_cumlat(model, ctx0, k):
    """``span_cumlat`` as it was before the running-sum evaluator: the
    stair term summed over a ``(k × batch)`` matrix."""
    ctx0 = np.asarray(ctx0, dtype=np.int64)
    batch = int(ctx0.size)
    i = np.arange(1, k + 1, dtype=np.int64)
    n_costs = batch * i
    s1 = i * int(ctx0.sum()) + batch * (i * (i - 1) // 2)
    kv_read = model._a_kv * s1
    compute = model._a_cmp * s1 + model._b_cmp * n_costs
    dequant = model._a_dq * s1
    approx = 0.0
    if model.method.approx_per_iter:
        stair = (model._stair_cumsum(ctx0[None, :] + (i[:, None] - 1))
                 - model._stair_cumsum(ctx0 - 1)[None, :]).sum(axis=1)
        approx = model._a_ap * s1 + model._b_ap * n_costs \
            + model._c_ap * stair
    requant = model._requant_s * n_costs
    decode_total = i * model.shared_s + kv_read + compute + requant
    return decode_total + dequant + approx


def _vectors(model, ctx0, k, shift=0):
    """``span_vectors`` from a batch's sums, its histogram rotated the
    way a replica keeps it (over ``(-ctx0 + shift) mod Π``)."""
    ctx0 = np.asarray(ctx0, dtype=np.int64)
    hist = None
    if model.stair_period:
        pi = model.stair_period
        hist = np.bincount((-(ctx0 - shift)) % pi, minlength=pi)
    return model.span_vectors(int(ctx0.sum()), int(ctx0.size), k, hist,
                              shift)


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


@given(stair_spans())
@settings(max_examples=150, deadline=None)
def test_cumlat_equals_matrix_oracle(span):
    model, ctx0, k = span
    assert model.span_cumlat(ctx0, k).tobytes() == \
        _matrix_cumlat(model, ctx0, k).tobytes()


@given(stair_spans(max_batch=200))
@settings(max_examples=30, deadline=None)
def test_cumlat_equals_matrix_oracle_large_batches(span):
    model, ctx0, k = span
    assert model.span_cumlat(ctx0, k).tobytes() == \
        _matrix_cumlat(model, ctx0, k).tobytes()


@given(stair_spans(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_every_prefix_is_the_scalar_span(span, shift):
    """All five fields at every prefix, for any histogram rotation."""
    model, ctx0, k = span
    vectors = _vectors(model, ctx0, k, shift)
    assert vectors.cumlat.tobytes() == model.span_cumlat(ctx0, k).tobytes()
    for j in range(1, k + 1):
        assert vectors.totals(j) == model.span(ctx0, j)
