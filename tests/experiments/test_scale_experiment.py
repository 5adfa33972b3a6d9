"""The scale experiment: autoscaler × admission grid on diurnal load."""

import math

import pytest

from repro.experiments import scale
from repro.sim.elastic import AutoscalerSpec

SCALE = 0.1

REACTIVE = AutoscalerSpec.canonical_of(scale.AUTOSCALERS[1])
SHED = scale.ADMISSIONS[1]


@pytest.fixture(scope="module")
def study():
    return scale.run(scale=SCALE)


class TestGrid:
    def test_full_grid_present(self, study):
        assert len(study.results) == (len(scale.ARRIVALS)
                                      * len(scale.AUTOSCALERS)
                                      * len(scale.ADMISSIONS))

    def test_reactive_beats_static_on_efficiency(self, study):
        """The acceptance shape: on a diurnal day the reactive
        autoscaler serves more goodput per GPU-hour than the
        peak-sized static fleet, in both arrival regimes."""
        for arrival in scale.ARRIVALS:
            static = study.results[(arrival, "static", None, "hack")]
            reactive = study.results[(arrival, REACTIVE, None, "hack")]
            assert static.elastic_stats["scaling_events"] == 0
            assert reactive.goodput_per_gpu_hour() > \
                static.goodput_per_gpu_hour()
            assert reactive.elastic_stats["gpu_hours"] < \
                static.elastic_stats["gpu_hours"]

    def test_shed_bounds_tail_ttft(self, study):
        """Queue-cap admission never worsens p99 TTFT — it sheds the
        arrivals that would have queued behind the cap."""
        for arrival in scale.ARRIVALS:
            open_door = study.results[(arrival, REACTIVE, None, "hack")]
            capped = study.results[(arrival, REACTIVE, SHED, "hack")]
            assert capped.ttft_percentile(99) <= \
                open_door.ttft_percentile(99) * (1 + 1e-9)

    def test_every_cell_reports_cost_pair(self, study):
        for res in study.results.values():
            summ = res.summary()
            assert summ["gpu_hours"] > 0
            assert math.isfinite(summ["goodput_per_gpu_hour"])

    def test_renders(self, study):
        text = study.render()
        assert "goodput_per_gpuh" in text and "static" in text
