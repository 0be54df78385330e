"""Unit tests for PSNR-targeted error-bound selection."""

import numpy as np
import pytest

from repro.analysis.distortion import psnr
from repro.compressors import get_compressor
from repro.core.objective import PSNRTarget, refine
from repro.core.psnr_control import analytic_bound_for_psnr
from repro.errors import InvalidConfiguration


def probed_bound(compressor, data, target, probes=2):
    """The bound the PSNR probe search settles on (what ``refine`` runs)."""
    return refine(compressor, data, PSNRTarget(target), probes=probes).config


class TestAnalytic:
    def test_formula_inversion(self, smooth_field3d):
        bound = analytic_bound_for_psnr(smooth_field3d, 60.0)
        value_range = float(np.ptp(smooth_field3d))
        # PSNR = -20 log10(eb / (range*sqrt(3))) must give back 60.
        implied = -20 * np.log10(bound / (value_range * np.sqrt(3)))
        assert implied == pytest.approx(60.0)

    def test_higher_psnr_needs_tighter_bound(self, smooth_field3d):
        loose = analytic_bound_for_psnr(smooth_field3d, 40.0)
        tight = analytic_bound_for_psnr(smooth_field3d, 80.0)
        assert tight < loose

    def test_analytic_close_for_sz(self, smooth_field3d):
        """The uniform-error model fits the SZ quantizer within ~3 dB."""
        comp = get_compressor("sz")
        for target in (45.0, 60.0):
            bound = analytic_bound_for_psnr(smooth_field3d, target)
            recon, _ = comp.roundtrip(smooth_field3d, bound)
            assert abs(psnr(smooth_field3d, recon) - target) < 3.0

    def test_bad_inputs_rejected(self, smooth_field3d):
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_psnr(smooth_field3d, 0.0)
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_psnr(np.ones((4, 4)), 40.0)


class TestCalibrated:
    """The analytic prior calibrated against the compressor by probes."""

    @pytest.mark.parametrize("name", ["sz", "zfp", "mgard"])
    def test_hits_target_within_3db(self, smooth_field3d, name):
        comp = get_compressor(name)
        target = 50.0
        bound = probed_bound(comp, smooth_field3d, target, probes=2)
        recon, _ = comp.roundtrip(smooth_field3d, bound)
        assert abs(psnr(smooth_field3d, recon) - target) < 3.0

    def test_zero_probes_is_analytic(self, smooth_field3d):
        comp = get_compressor("sz")
        probed = probed_bound(comp, smooth_field3d, 55.0, probes=0)
        lo, hi = comp.config_domain(smooth_field3d)
        analytic = float(
            np.clip(analytic_bound_for_psnr(smooth_field3d, 55.0), lo, hi)
        )
        assert probed == pytest.approx(analytic)

    def test_precision_compressor_rejected(self, smooth_field3d):
        comp = get_compressor("fpzip")
        with pytest.raises(InvalidConfiguration):
            probed_bound(comp, smooth_field3d, 50.0)

    def test_negative_probes_rejected(self, smooth_field3d):
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            probed_bound(comp, smooth_field3d, 50.0, probes=-1)


@pytest.mark.objective
class TestEdgeCases:
    def test_non_finite_data_rejected(self):
        bad = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_psnr(bad, 50.0)
        bad = np.array([1.0, np.inf, 2.0])
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_psnr(bad, 50.0)

    def test_zero_probes_never_runs_the_compressor(
        self, smooth_field3d, monkeypatch
    ):
        comp = get_compressor("sz")
        calls = []
        original = comp.roundtrip

        def spy(data, config):
            calls.append(config)
            return original(data, config)

        monkeypatch.setattr(comp, "roundtrip", spy)
        probed_bound(comp, smooth_field3d, 55.0, probes=0)
        assert calls == []

    def test_constant_after_sampling_rejected(self):
        # A field whose value range collapses to zero: the analytic
        # inversion has no bound to offer and both paths must say so
        # instead of returning 0 (which every compressor rejects).
        constant = np.full((12, 12, 12), 3.75)
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_psnr(constant, 50.0)
        with pytest.raises(InvalidConfiguration):
            probed_bound(comp, constant, 50.0, probes=2)

    def test_target_above_lossless_knee_stops_early(
        self, smooth_field3d, monkeypatch
    ):
        # When a probe comes back bit-exact (infinite PSNR) the search
        # must return that bound instead of spending the rest of the
        # budget chasing a target no tighter bound can improve on.
        comp = get_compressor("sz")
        calls = []

        def lossless(data, config):
            calls.append(config)
            return data.copy(), None

        monkeypatch.setattr(comp, "roundtrip", lossless)
        bound = probed_bound(comp, smooth_field3d, 300.0, probes=4)
        assert len(calls) == 1
        lo, hi = comp.config_domain(smooth_field3d)
        expected = float(
            np.clip(analytic_bound_for_psnr(smooth_field3d, 300.0), lo, hi)
        )
        assert bound == pytest.approx(expected)
