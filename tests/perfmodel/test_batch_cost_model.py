"""Tests for the precomputed-coefficient decode model and its closed
forms (``BatchCostModel``)."""

import math

import numpy as np
import pytest

from repro.cluster import replica_resources
from repro.methods import get_method
from repro.methods.registry import METHODS
from repro.model import get_model
from repro.perfmodel import BatchCostModel

L = get_model("L")
A100 = replica_resources(L, "A100")


def _model(method_name: str) -> BatchCostModel:
    return BatchCostModel(L, A100, get_method(method_name))


class TestSpanClosedForm:
    """span(ctx0, k) must equal the k iterated per-token evaluations."""

    def _iterated(self, model, ctx0, k):
        shared = kv = compute = dequant = approx = requant = 0.0
        for i in range(k):
            timing = model.iteration([c + i for c in ctx0])
            shared += timing.shared_s
            kv += sum(c.kv_read_s for c in timing.per_request)
            compute += sum(c.compute_s for c in timing.per_request)
            dequant += sum(c.dequant_s for c in timing.per_request)
            approx += sum(c.approx_s for c in timing.per_request)
            requant += sum(c.requant_s for c in timing.per_request)
        return {
            "latency": shared + kv + compute + dequant + approx + requant,
            "decode": shared + kv + compute + requant,
            "dequant": dequant,
            "approx": approx,
            "kv": kv,
        }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_totals_match_iterated(self, method):
        model = _model(method)
        ctx0 = [120, 4000, 63, 64, 16000]
        k = 257
        totals = model.span(ctx0, k)
        ref = self._iterated(model, ctx0, k)
        assert totals.k == k and totals.batch == len(ctx0)
        assert totals.latency_s == pytest.approx(ref["latency"], rel=1e-12)
        assert totals.decode_s == pytest.approx(ref["decode"], rel=1e-12)
        assert totals.kv_read_s == pytest.approx(ref["kv"], rel=1e-12)
        assert totals.dequant_s == pytest.approx(ref["dequant"],
                                                 rel=1e-12, abs=1e-18)
        assert totals.approx_s == pytest.approx(ref["approx"],
                                                rel=1e-12, abs=1e-18)

    def test_staircase_spans_partition_boundaries(self):
        """Spans crossing many ceil(ctx/Π) steps still sum exactly."""
        model = _model("hack")
        pi = model.method.partition_size
        for ctx_start in (1, pi - 1, pi, pi + 1):
            totals = model.span([ctx_start], 3 * pi + 5)
            ref = self._iterated(model, [ctx_start], 3 * pi + 5)
            assert totals.approx_s == pytest.approx(ref["approx"],
                                                    rel=1e-12)

    def test_span_of_one_is_an_iteration(self):
        model = _model("cachegen")
        ctxs = [100, 2000, 16000]
        assert model.span(ctxs, 1).latency_s == \
            pytest.approx(model.iteration(ctxs).latency_s, rel=1e-12)

    def test_latency_is_bucket_sum(self):
        totals = _model("kvquant").span([500, 600], 40)
        assert totals.latency_s == pytest.approx(
            totals.decode_s + totals.dequant_s + totals.approx_s, rel=1e-15)

    def test_validation(self):
        model = _model("baseline")
        with pytest.raises(ValueError):
            model.span([], 5)
        with pytest.raises(ValueError):
            model.span([100], 0)
        with pytest.raises(ValueError):
            model.span([0], 5)
        with pytest.raises(ValueError):
            model.request_costs(0)
        with pytest.raises(ValueError):
            model.iteration([])


class TestFindBoundary:
    @pytest.mark.parametrize("method", ("baseline", "hack", "cachegen"))
    def test_matches_linear_scan(self, method):
        model = _model(method)
        ctx0 = np.array([200, 1500, 70], dtype=np.int64)
        k = 50
        lat = [model.span(ctx0, j).latency_s for j in range(1, k + 1)]
        for elapsed in (0.0, lat[0] * 0.5, lat[0], lat[3] * 1.0001,
                        lat[-1] * 0.999, lat[-1], lat[-1] * 1.01):
            expected = next((j for j in range(1, k + 1)
                             if lat[j - 1] >= elapsed), k)
            assert model.find_boundary(ctx0, k, elapsed) == expected

    def test_zero_elapsed_is_first_boundary(self):
        model = _model("baseline")
        assert model.find_boundary(np.array([100]), 10, 0.0) == 1


class TestStaircaseCumsum:
    def test_exact_against_bruteforce(self):
        model = _model("hack")
        pi = model.method.partition_size
        n = np.arange(0, 4 * pi + 3, dtype=np.int64)
        expected = np.array(
            [sum(math.ceil(c / pi) for c in range(1, int(m) + 1))
             for m in n], dtype=np.int64)
        np.testing.assert_array_equal(model._stair_cumsum(n), expected)
