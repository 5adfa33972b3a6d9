"""Workload substrate: dataset length models (Table 4), pluggable
arrival processes, and trace generation/merging."""

from .arrivals import (
    ArrivalParam,
    ArrivalProcess,
    ArrivalSpec,
    arrival_processes,
    get_arrival_process,
    register_arrival,
)
from .datasets import (
    DATASETS,
    DatasetSpec,
    LengthModel,
    LONG_SEQUENCE_DATASETS,
    SHORT_SEQUENCE_DATASETS,
    get_dataset,
)
from .traces import Trace, TraceRequest, generate_trace, merge_traces

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "LengthModel",
    "LONG_SEQUENCE_DATASETS",
    "SHORT_SEQUENCE_DATASETS",
    "get_dataset",
    "TraceRequest",
    "Trace",
    "generate_trace",
    "merge_traces",
    "ArrivalParam",
    "ArrivalProcess",
    "ArrivalSpec",
    "arrival_processes",
    "get_arrival_process",
    "register_arrival",
]
