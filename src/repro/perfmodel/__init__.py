"""Analytic performance model: prefill, decode (one
:class:`BatchCostModel` per replica and method), transfer and
calibration."""

from .calibration import Calibration, DEFAULT_CALIBRATION, calibrated
from .decode import (
    BatchCostModel,
    IterationTiming,
    RequestDecodeCosts,
    SpanTotals,
    param_read_time,
)
from .prefill import PrefillBreakdown, attention_rate_tflops, prefill_time
from .transfer import kv_wire_bytes, make_network_model, transfer_time

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "calibrated",
    "PrefillBreakdown",
    "prefill_time",
    "attention_rate_tflops",
    "RequestDecodeCosts",
    "IterationTiming",
    "BatchCostModel",
    "SpanTotals",
    "param_read_time",
    "kv_wire_bytes",
    "transfer_time",
    "make_network_model",
]
