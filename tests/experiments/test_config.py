"""Tests for experiment configurations."""

import pytest

from repro.apptree.objects import (
    HIGH_FREQUENCY_HZ,
    LARGE_SIZE_RANGE_MB,
    LOW_FREQUENCY_HZ,
    SMALL_SIZE_RANGE_MB,
)
from repro.methodology import (
    ALPHA_SWEEP_DEFAULT,
    DENSE_OPS_PER_GHZ,
    ExperimentConfig,
    N_SWEEP_DEFAULT,
    STANDARD_OPS_PER_GHZ,
    large_high,
    small_high,
    small_low,
)


class TestRegimes:
    def test_small_high_defaults(self):
        cfg = small_high()
        assert cfg.size_range_mb == SMALL_SIZE_RANGE_MB
        assert cfg.frequency_hz == HIGH_FREQUENCY_HZ
        assert cfg.n_object_types == 15
        assert cfg.n_servers == 6
        assert cfg.rho == 1.0

    def test_small_low(self):
        assert small_low().frequency_hz == LOW_FREQUENCY_HZ

    def test_large_high(self):
        assert large_high().size_range_mb == LARGE_SIZE_RANGE_MB

    def test_with_overrides(self):
        cfg = small_high(n_operators=80, alpha=2.0)
        assert cfg.n_operators == 80
        assert cfg.alpha == 2.0
        # base unchanged
        assert small_high().n_operators == 60

    def test_label_readable(self):
        assert "N=60" in small_high().label
        assert "large" in large_high().label
        assert "low" in small_low().label
        assert "hom" in small_high(homogeneous=True).label


class TestCalibrations:
    def test_two_calibrations_differ(self):
        assert STANDARD_OPS_PER_GHZ == 6000.0
        assert DENSE_OPS_PER_GHZ == 30.0

    def test_sweep_defaults_cover_paper_axes(self):
        assert 20 in N_SWEEP_DEFAULT and 140 in N_SWEEP_DEFAULT
        assert min(ALPHA_SWEEP_DEFAULT) <= 0.5
        assert max(ALPHA_SWEEP_DEFAULT) >= 2.5
        assert 1.7 in ALPHA_SWEEP_DEFAULT and 1.8 in ALPHA_SWEEP_DEFAULT
