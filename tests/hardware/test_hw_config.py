"""Tests for the hardware configuration (Table 1) and its variants."""

import pytest

from repro.errors import ConfigError
from repro.hardware import ZCU102, HardwareConfig, scaled_pe_config, zcu102_config


class TestTable1Defaults:
    """The default config must match Table 1 of the paper exactly."""

    def test_pe_counts(self):
        assert ZCU102.n_parallel_pe == 84
        assert ZCU102.n_broadcast_pe == 12
        assert ZCU102.n_total_pe == 96

    def test_multipliers_per_pe(self):
        assert ZCU102.mults_per_pe == 64

    def test_module_counts(self):
        assert ZCU102.n_softmax_units == 84
        assert ZCU102.n_layernorm_units == 8
        assert ZCU102.n_nonlinear_units == 8

    def test_bram_sizes_are_1mb(self):
        assert ZCU102.weight_bram_bytes == 1024 * 1024
        assert ZCU102.input_bram_bytes == 1024 * 1024
        assert ZCU102.output_bram_bytes == 1024 * 1024

    def test_rf_sizes_are_4kb(self):
        assert ZCU102.weight_rf_bytes == 4096
        assert ZCU102.input_rf_bytes == 4096
        assert ZCU102.output_rf_bytes == 4096

    def test_clock_is_100mhz(self):
        assert ZCU102.clock_hz == 100e6

    def test_w8a8_precision(self):
        assert ZCU102.act_bits == 8
        assert ZCU102.weight_bits == 8


class TestDerivedQuantities:
    def test_dram_bits_per_cycle_at_12gbps(self):
        assert zcu102_config(12).dram_bits_per_cycle == pytest.approx(120.0)

    def test_peak_macs_per_cycle(self):
        assert ZCU102.peak_macs_per_cycle == 84 * 64

    def test_peak_gops(self):
        # 84 PEs * 64 mults * 2 ops * 100 MHz = 1075.2 GOPS.
        assert ZCU102.peak_gops == pytest.approx(1075.2)

    def test_cycles_to_ms(self):
        assert ZCU102.cycles_to_ms(100_000) == pytest.approx(1.0)

    def test_burst_efficiency_derates_bandwidth(self):
        derated = ZCU102.replace(dram_burst_efficiency=0.5)
        assert derated.effective_dram_bits_per_cycle == pytest.approx(
            ZCU102.dram_bits_per_cycle / 2
        )


class TestVariants:
    def test_with_bandwidth_preserves_everything_else(self):
        cfg = ZCU102.with_bandwidth(1.0)
        assert cfg.dram_bandwidth_gbps == 1.0
        assert cfg.n_parallel_pe == ZCU102.n_parallel_pe

    def test_with_total_pes_keeps_7_to_1_split(self):
        cfg = ZCU102.with_total_pes(96)
        assert (cfg.n_parallel_pe, cfg.n_broadcast_pe) == (84, 12)

    @pytest.mark.parametrize("total", [14, 36, 48, 96])
    def test_fig12_pe_counts_sum_correctly(self, total):
        cfg = ZCU102.with_total_pes(total)
        assert cfg.n_total_pe == total
        assert cfg.n_broadcast_pe >= 1
        assert cfg.n_parallel_pe >= 1

    def test_scaled_pe_config_combines_both_knobs(self):
        cfg = scaled_pe_config(36, 6.0)
        assert cfg.n_total_pe == 36
        assert cfg.dram_bandwidth_gbps == 6.0


class TestValidation:
    def test_rejects_zero_pes(self):
        with pytest.raises(ConfigError):
            HardwareConfig(n_parallel_pe=0)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ConfigError):
            HardwareConfig(dram_bandwidth_gbps=-1)

    def test_rejects_bad_burst_efficiency(self):
        with pytest.raises(ConfigError):
            HardwareConfig(dram_burst_efficiency=0.0)
        with pytest.raises(ConfigError):
            HardwareConfig(dram_burst_efficiency=1.5)

    def test_rejects_odd_precision(self):
        with pytest.raises(ConfigError):
            HardwareConfig(act_bits=7)

    def test_rejects_narrow_accumulator(self):
        with pytest.raises(ConfigError):
            HardwareConfig(accumulator_bits=4)

    def test_rejects_tiny_pe_total(self):
        with pytest.raises(ConfigError):
            ZCU102.with_total_pes(1)

    @pytest.mark.parametrize(
        "name",
        ["clock_hz", "dram_capacity_bytes", "weight_bram_bytes", "n_parallel_pe"],
    )
    def test_rejects_nan(self, name):
        # The clock is a real; sizes and PE counts follow the count rule.
        rule = "positive" if name == "clock_hz" else ">= 1"
        with pytest.raises(ConfigError, match=f"{name} must be {rule}"):
            zcu102_config().replace(**{name: float("nan")})
