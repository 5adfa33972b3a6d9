"""Elastic-cluster study: autoscaling × admission over a diurnal day
(beyond the paper).

The paper sizes fleets for peak load; a production cluster sees a
diurnal arrival curve and pays for every provisioned GPU-hour whether
it serves traffic or idles.  This experiment runs a sinusoidal
(diurnal) arrival process — one full period of high amplitude, so the
trough sits far below peak — against each shipped autoscaler, with and
without queue-cap admission control.

Reported per cell: goodput per GPU-hour (the headline efficiency
metric), total GPU-hours billed, mean/peak prefill replicas, scale-up
and scale-down counts, shed requests, p99 TTFT and SLO goodput.
Shapes: the peak-sized ``static`` fleet posts the best tail latency
but burns GPU-hours through the trough, so ``reactive`` (and a
well-tuned ``schedule``) beat it on goodput per GPU-hour; queue-cap
``shed`` admission bounds p99 TTFT during the ramp at the cost of a
few rejected requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import Table
from ..api import Runner, Scenario, Sweep
from ..sim.engine import SimulationResult
from .common import run_grid

__all__ = ["ScaleStudy", "run", "SCALE_SWEEP", "AUTOSCALERS",
           "ADMISSIONS", "ARRIVALS"]

#: The arrival axis: one diurnal day at two amplitudes.  ``amp=0.95``
#: drops the trough to 5% of peak — the regime where elasticity pays.
ARRIVALS = (
    "diurnal?amp=0.6,period=900.0",
    "diurnal?amp=0.95,period=900.0",
)

#: The autoscaler axis: peak-sized static fleet (the paper's implicit
#: baseline), backlog-reactive scaling, and a clairvoyant schedule
#: that halves the fleet for the second half of the period.
AUTOSCALERS = (
    "static",
    "reactive?queue_hi=6.0,queue_lo=1.0,cooldown_s=45.0,"
    "interval_s=5.0,cold_start_s=20.0",
    "schedule?plan=0:1.0|450:0.35,period_s=900.0,"
    "interval_s=5.0,cold_start_s=20.0",
)

#: The admission axis: accept everything vs. a queue cap that sheds
#: arrivals once the prefill backlog passes 48 requests.
ADMISSIONS = (None, "shed?queue_max=48.0")

#: Mild average load (the diurnal peak still saturates): elasticity is
#: about the trough, not the peak.
_BASE = Scenario(methods=("hack",), load_factor=0.55,
                 n_prefill_replicas=4)

SCALE_SWEEP = Sweep(_BASE, axes={"arrival": ARRIVALS,
                                 "autoscaler": AUTOSCALERS,
                                 "admission": ADMISSIONS})


@dataclass
class ScaleStudy:
    """Arrival × autoscaler × admission grid plus the live results."""

    table: Table
    #: ``results[(arrival, autoscaler, admission, method)]`` — axis
    #: values as the Scenario canonicalized them (``admission`` is
    #: None for the accept-all cells).
    results: dict[tuple[str, str | None, str | None, str],
                  SimulationResult]

    def render(self) -> str:
        return self.table.render()


def _add_rows(table: Table, results: dict, artifacts) -> None:
    for art in artifacts:
        scn = art.scenario
        for method, res in art.results.items():
            results[(scn.arrival, scn.autoscaler, scn.admission,
                     method)] = res
            summ = res.summary()
            elastic = summ.get("elastic", {})
            table.add_row(
                scn.arrival, scn.autoscaler or "static",
                scn.admission or "-", method,
                summ["goodput_per_gpu_hour"], summ["gpu_hours"],
                elastic.get("mean_prefill_replicas", float("nan")),
                elastic.get("peak_prefill_replicas", float("nan")),
                elastic.get("n_scale_ups", 0),
                elastic.get("n_scale_downs", 0),
                elastic.get("n_shed", 0),
                summ["p99_ttft_s"], summ["slo_goodput_rps"])


def run(scale: float = 1.0, runner: Runner | None = None) -> ScaleStudy:
    """Autoscaler × admission grid over a diurnal arrival day."""
    table = Table(
        "Elastic scaling × admission (Llama-70B, A10G, Cocktail, "
        "diurnal)",
        ["arrival", "autoscaler", "admission", "method",
         "goodput_per_gpuh", "gpu_hours", "mean_prefill",
         "peak_prefill", "ups", "downs", "shed", "p99_ttft_s",
         "slo_goodput_rps"],
    )
    results: dict[tuple[str, str | None, str | None, str],
                  SimulationResult] = {}
    _add_rows(table, results, run_grid(SCALE_SWEEP, scale, runner))
    return ScaleStudy(table=table, results=results)
