"""Integration tests: every experiment runs and shows the paper's shape.

These use small scales — the benchmarks run the full-size versions.
"""

import pytest

from repro.api import Runner, Scenario
from repro.api.scenario import model_dataset
from repro.experiments import (
    fig1_motivation,
    fig2_4_quant_overhead,
    fig9_12_jct,
    fig13_ablation,
    fig14_scalability,
    sec3_fp_formats,
    table5_memory,
    table6_accuracy,
    table8_sensitivity,
)
from repro.model import get_model

SCALE = 0.12


class TestCommon:
    def test_falcon_gets_capped_arxiv(self):
        """The F-arXiv substitution: Falcon cannot process Cocktail."""
        name, cap = model_dataset(get_model("F"), "cocktail")
        assert name == "arxiv"
        assert cap == 2048

    def test_llama_cocktail_unmodified(self):
        name, cap = model_dataset(get_model("L"), "cocktail")
        assert name == "cocktail"
        assert cap is None

    def test_llama_arxiv_within_context(self):
        name, cap = model_dataset(get_model("L"), "arxiv")
        assert name == "arxiv"
        assert cap is None

    def test_same_trace_for_all_methods(self):
        res = Runner().run(Scenario(methods=("baseline", "hack"),
                                    scale=SCALE)).results
        base_ids = [r.request_id for r in res["baseline"].requests]
        hack_ids = [r.request_id for r in res["hack"].requests]
        assert base_ids == hack_ids


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_motivation.run(scale=SCALE)

    def test_a100_comm_smallest(self, result):
        comm = {gpu: vals[1] for gpu, vals in result.by_gpu.series.items()}
        assert comm["A100"] == min(comm.values())
        assert comm["A100"] < 10.0

    def test_v100_comm_largest(self, result):
        comm = {gpu: vals[1] for gpu, vals in result.by_gpu.series.items()}
        assert comm["V100"] == max(comm.values())

    def test_long_datasets_higher_comm(self, result):
        comm = {d: vals[1] for d, vals in result.by_dataset.series.items()}
        assert comm["cocktail"] > comm["imdb"]
        assert comm["arxiv"] > comm["humaneval"]

    def test_ratios_sum_to_100(self, result):
        for vals in result.by_gpu.series.values():
            assert sum(vals) == pytest.approx(100.0, abs=0.5)

    def test_pipelining_panel_shape(self, result):
        assert set(result.pipelining.series) == set(fig1_motivation.GPUS)
        # A100 stays low across the RPS sweep.
        assert max(result.pipelining.series["A100"]) < 10.0

    def test_renders(self, result):
        assert "Fig 1(a)" in result.render()


class TestFig2to4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_4_quant_overhead.run(scale=SCALE)

    def test_dequant_bucket_visible(self, result):
        for method, fig in result.by_dataset.items():
            dequant = {d: vals[2] for d, vals in fig.series.items()}
            assert dequant["cocktail"] > 2.0, method  # percent

    def test_long_sequence_dequant_dominates_short(self, result):
        """Paper: long-sequence datasets pay 12–25x the dequantization
        *time* of short ones (ratios compress the gap; times don't)."""
        fig = result.by_dataset["cachegen"]
        dequant_ratio = {d: vals[2] for d, vals in fig.series.items()}
        assert dequant_ratio["arxiv"] > 2.5 * dequant_ratio["imdb"]
        res_long = Runner().run(Scenario(methods=("cachegen",),
                                         dataset="arxiv",
                                         scale=SCALE)).results
        res_short = Runner().run(Scenario(methods=("cachegen",),
                                          dataset="imdb",
                                          scale=SCALE)).results
        t_long = res_long["cachegen"].mean_decomposition()["dequant_or_approx"]
        t_short = res_short["cachegen"].mean_decomposition()["dequant_or_approx"]
        assert t_long > 10 * t_short

    def test_comm_below_baseline(self, result):
        base = fig1_motivation.run(scale=SCALE)
        base_comm = {g: v[1] for g, v in base.by_gpu.series.items()}
        cg_comm = {g: v[1] for g, v in result.by_gpu["cachegen"].series.items()}
        for gpu in ("A10G", "V100", "T4", "L4"):
            assert cg_comm[gpu] < base_comm[gpu]


class TestSec3:
    def test_fp_comm_ordering(self):
        result = sec3_fp_formats.run(scale=SCALE)
        for gpu in ("A10G", "V100"):
            fp4, fp6, fp8, hack = result.comm.series[gpu]
            assert fp4 < fp6 < fp8
            assert hack < fp4  # 2-bit beats every FP format on the wire


class TestFig9to12:
    @pytest.fixture(scope="class")
    def by_dataset(self):
        return fig9_12_jct.run_fig9_fig10(scale=SCALE)

    def test_hack_wins_every_dataset(self, by_dataset):
        for dataset in fig1_motivation.DATASETS:
            assert by_dataset.reduction(dataset, "hack", "baseline") > 0
            assert by_dataset.reduction(dataset, "hack", "cachegen") > 0

    def test_long_datasets_bigger_gains(self, by_dataset):
        assert by_dataset.reduction("cocktail", "hack", "baseline") > \
            by_dataset.reduction("imdb", "hack", "baseline")

    def test_decomposition_tables_present(self, by_dataset):
        assert set(by_dataset.decomposition) == set(fig1_motivation.DATASETS)

    def test_fig11_hack_wins_every_model(self):
        result = fig9_12_jct.run_fig11(scale=SCALE)
        for label in result.results:
            assert result.reduction(label, "hack", "baseline") > 0

    def test_fig12_v100_extremes(self):
        result = fig9_12_jct.run_fig12(scale=0.3)
        vs_base = {g: result.reduction(g, "hack", "baseline")
                   for g in fig1_motivation.GPUS}
        vs_cg = {g: result.reduction(g, "hack", "cachegen")
                 for g in fig1_motivation.GPUS}
        # Fig 12's two headline claims.
        assert vs_base["V100"] == max(vs_base.values())
        assert vs_cg["V100"] == min(vs_cg.values())


class TestTable5:
    def test_memory_shape(self):
        result = table5_memory.run(scale=SCALE)
        for dataset in fig1_motivation.DATASETS:
            peaks = result.peaks[dataset]
            assert peaks["baseline"] >= peaks["hack"] - 1e-9
        # Long datasets pressure memory hardest for the baseline.
        assert result.peaks["cocktail"]["baseline"] > \
            result.peaks["imdb"]["baseline"]

    def test_se_and_rqe_overheads_small(self):
        result = table5_memory.run(scale=SCALE)
        assert all(0 < f < 0.03 for f in result.se_fraction.values())
        assert 0 < result.rqe_fraction < 0.01


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        return table6_accuracy.run(n_trials=2)

    def test_all_cells_populated(self, result):
        for method in table6_accuracy.METHOD_ORDER:
            assert len(result.accuracies[method]) == 19

    def test_baseline_verbatim(self, result):
        from repro.accuracy import PAPER_BASELINE_ACCURACY

        assert result.accuracies["baseline"] == PAPER_BASELINE_ACCURACY

    def test_pi_ordering(self, result):
        assert result.mean_loss("hack_pi32") < result.mean_loss("hack_pi64") \
            < result.mean_loss("hack_pi128")

    def test_losses_in_band(self, result):
        for method in table6_accuracy.METHOD_ORDER:
            if method == "baseline":
                continue
            assert 0.002 < result.mean_loss(method) < 0.035, method


class TestAblations:
    def test_fig13_se_hurts_long_sequences_most(self):
        result = fig13_ablation.run_fig13(scale=SCALE)
        assert result.overhead("cocktail", "hack_nose") > \
            result.overhead("imdb", "hack_nose")
        for dataset in fig1_motivation.DATASETS:
            assert result.overhead(dataset, "hack_nose") > 0

    def test_fig13_rqe_hurts_short_sequences_most(self):
        result = fig13_ablation.run_fig13(scale=SCALE)
        assert result.overhead("imdb", "hack_norqe") > \
            result.overhead("cocktail", "hack_norqe")

    def test_table7_drops_negative_and_small(self):
        result = fig13_ablation.run_table7(n_trials=2)
        for dataset, drop in result.drops.items():
            assert -1.0 < drop < 0.0, dataset

    def test_table7_imdb_smallest_drop(self):
        result = fig13_ablation.run_table7(n_trials=2)
        assert abs(result.drops["imdb"]) == min(
            abs(d) for d in result.drops.values()
        )


class TestTable8:
    def test_tradeoff_shape(self):
        result = table8_sensitivity.run(scale=SCALE, n_trials=2)
        for dataset in fig1_motivation.DATASETS:
            acc, jct = result.accuracy_increase[dataset], result.jct_increase[dataset]
            assert acc[32] > acc[64] > 0     # finer Π buys accuracy...
            assert jct[32] > jct[64] >= 0    # ...and costs JCT


class TestFig14:
    def test_baseline_grows_fastest(self):
        result = fig14_scalability.run(scale=0.35, p_values=(1, 4, 8))
        assert result.growth("baseline") > 0.3
        assert result.growth("hack") < 0.5 * result.growth("baseline")
        assert result.growth("cachegen") < result.growth("baseline")
