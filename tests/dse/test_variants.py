"""Tests for the Fig. 14 design-space exploration."""

import pytest

from repro.apps.microbench import ADD_SIZES, GEMV_SIZES
from repro.dse.variants import VARIANTS, VariantLatencyModel, dse_speedups
from repro.perf.latency import PIM_HBM
from repro.pim.stream import columns, elementwise_stream, fences, gemv_tile


@pytest.fixture(scope="module")
def results():
    return dse_speedups()


def gain(results, variant, bench):
    return results[variant][bench] / results["PIM-HBM"][bench]


class TestVariantDefinitions:
    def test_four_configurations(self):
        assert set(VARIANTS) == {
            "PIM-HBM", "PIM-HBM-2x", "PIM-HBM-2BA", "PIM-HBM-SRW",
        }

    def test_2x_area_cost(self):
        """Paper: PIM-HBM-2x increases the die size by 24%."""
        assert VARIANTS["PIM-HBM-2x"].die_area_increase == 0.24

    def test_2ba_power_cost(self):
        """Paper: PIM-HBM-2BA consumes 60% more power."""
        assert VARIANTS["PIM-HBM-2BA"].power_increase == 0.60

    def test_srw_halves_gemv_commands(self):
        def chunk_commands(variant):  # what one more chunk adds to a tile
            rewrite = VARIANTS[variant].rewrite
            return columns(rewrite(gemv_tile(2))) - columns(rewrite(gemv_tile(1)))

        assert chunk_commands("PIM-HBM-SRW") == 8
        assert chunk_commands("PIM-HBM") == 16

    def test_2ba_removes_fill_phase(self):
        def add_group(variant):
            group = VARIANTS[variant].rewrite(elementwise_stream("add", 1))
            return columns(group), fences(group)

        assert add_group("PIM-HBM-2BA") == (16, 2)
        assert add_group("PIM-HBM") == (24, 3)


class TestFig14Shapes:
    def test_all_variants_beat_host(self, results):
        for variant, row in results.items():
            for g in GEMV_SIZES:
                assert row[g.name] > 1.0, (variant, g.name)

    def test_2x_is_best_overall(self, results):
        """Paper: 2x gives ~40% higher geo-mean than baseline PIM."""
        g = gain(results, "PIM-HBM-2x", "geomean")
        assert g == max(
            gain(results, v, "geomean") for v in VARIANTS if v != "PIM-HBM"
        )
        assert 1.25 <= g <= 1.75

    def test_2ba_geomean_band(self, results):
        """Paper: 2BA gives ~20% higher geo-mean."""
        assert 1.05 <= gain(results, "PIM-HBM-2BA", "geomean") <= 1.30

    def test_srw_geomean_band(self, results):
        """Paper: SRW gives ~10% higher geo-mean."""
        assert 1.05 <= gain(results, "PIM-HBM-SRW", "geomean") <= 1.30

    def test_2ba_helps_add_most(self, results):
        """Paper: 2BA is useful especially for ADD (the FILL bottleneck)."""
        add_gain = gain(results, "PIM-HBM-2BA", "ADD1")
        gemv_gain = gain(results, "PIM-HBM-2BA", "GEMV1")
        assert add_gain > 1.15
        assert gemv_gain == pytest.approx(1.0, abs=0.02)

    def test_srw_helps_gemv_only(self, results):
        """Paper: SRW offers ~25% higher performance especially for GEMV."""
        gemv_gain = gain(results, "PIM-HBM-SRW", "GEMV1")
        add_gain = gain(results, "PIM-HBM-SRW", "ADD1")
        assert gemv_gain > 1.2
        assert add_gain == pytest.approx(1.0, abs=0.02)

    def test_bn_present_in_sweep(self, results):
        assert "BN1" in results["PIM-HBM"]


class TestGemvCyclesArePinned:
    """``pim_gemv_cycles`` of GEMV1..4 per variant: the trigger stream and
    the readback are both counted off ``repro.pim.stream`` programs, and
    restating either must not move the modelled cycles (nor, with them,
    ``pim_gemv`` and ``dse_speedups``)."""

    def test_gemv_cycles(self):
        assert {
            name: [
                VariantLatencyModel(PIM_HBM, variant).pim_gemv_cycles(g.m, g.n)
                for g in GEMV_SIZES
            ]
            for name, variant in VARIANTS.items()
        } == {
            "PIM-HBM": [9814, 19478, 68246, 136342],
            "PIM-HBM-2x": [5494, 10838, 36246, 72342],
            "PIM-HBM-2BA": [9814, 19478, 68246, 136342],
            "PIM-HBM-SRW": [6358, 12566, 40598, 81046],
        }


class TestVariantModel:
    def test_2x_halves_gemv_cycles_asymptotically(self):
        base = VariantLatencyModel(PIM_HBM, VARIANTS["PIM-HBM"])
        two_x = VariantLatencyModel(PIM_HBM, VARIANTS["PIM-HBM-2x"])
        ratio = base.pim_gemv_cycles(8192, 8192) / two_x.pim_gemv_cycles(8192, 8192)
        assert 1.7 <= ratio <= 2.1

    def test_srw_leaves_elementwise_untouched(self):
        base = VariantLatencyModel(PIM_HBM, VARIANTS["PIM-HBM"])
        srw = VariantLatencyModel(PIM_HBM, VARIANTS["PIM-HBM-SRW"])
        n = ADD_SIZES[0].n
        assert base.pim_elementwise_cycles(n, 24, 3) == srw.pim_elementwise_cycles(n, 24, 3)

    def test_baseline_variant_matches_plain_model(self):
        from repro.perf.latency import LatencyModel

        plain = LatencyModel(PIM_HBM)
        variant = VariantLatencyModel(PIM_HBM, VARIANTS["PIM-HBM"])
        assert plain.pim_gemv_cycles(1024, 4096) == variant.pim_gemv_cycles(1024, 4096)
        assert plain.pim_elementwise_cycles(2**21, 24, 3) == variant.pim_elementwise_cycles(2**21, 24, 3)
