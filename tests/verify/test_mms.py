"""MMS harness tests: the solver attains its advertised orders, and the
harness itself detects a degraded stencil (the gate must have teeth)."""

import numpy as np
import pytest

from repro.core import (Grid3D, ManufacturedForcing, Medium, SolverConfig,
                        WaveSolver)
from repro.verify.mms import (fit_order, lts_temporal_ladder,
                              plane_wave_check, spatial_ladder,
                              temporal_ladder)

pytestmark = [pytest.mark.verify, pytest.mark.tier1]


class TestFitOrder:
    def test_exact_power_law_recovered(self):
        h = np.array([1.0, 0.5, 0.25, 0.125])
        for p in (1.0, 2.0, 4.0):
            assert fit_order(h, 3.0 * h ** p) == pytest.approx(p, abs=1e-12)

    def test_zero_error_gives_nan(self):
        assert np.isnan(fit_order([1.0, 0.5], [0.0, 0.0]))


class TestForcingHook:
    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            ManufacturedForcing(domain="everywhere")

    def test_velocity_forcing_accumulates_dt_times_rate(self):
        """With zero initial fields and no spatial variation, one step must
        add exactly dt * F to the forced component."""
        g = Grid3D(6, 6, 6, h=100.0)
        med = Medium.homogeneous(g)
        forcing = ManufacturedForcing(
            velocity_forcing={"vx": lambda x, y, z, t: 2.0 + 0.0 * (x + y + z)},
            domain="padded")
        s = WaveSolver(g, med, SolverConfig(dt=0.01, absorbing="none",
                                            free_surface=False,
                                            stability_check_interval=0))
        s.add_forcing(forcing)
        s.step()
        assert np.allclose(s.wf.vx, 0.01 * 2.0, rtol=1e-12)
        assert np.all(s.wf.vy == 0.0)

    def test_impose_exact_fills_padded_fields(self):
        g = Grid3D(6, 6, 6, h=100.0)
        forcing = ManufacturedForcing(
            exact={"vx": lambda x, y, z, t: x + 2 * y + 3 * z + 4 * t})
        forcing.bind(g)
        from repro.core.grid import WaveField
        wf = WaveField(g)
        forcing.impose_exact(wf, t_velocity=1.5, t_stress=0.0)
        x, y, z = forcing._coords["vx"]
        want = np.broadcast_to(x + 2 * y + 3 * z + 6.0, wf.vx.shape)
        assert np.allclose(wf.vx, want, rtol=1e-12)


class TestConvergenceOrders:
    def test_spatial_order_at_least_3_5(self):
        res = spatial_ladder()
        assert res.passed, res.summary()
        assert res.observed_order >= 3.5

    def test_temporal_order_at_least_1_9(self):
        res = temporal_ladder()
        assert res.passed, res.summary()
        assert res.observed_order >= 1.9

    def test_plane_wave_check_passes(self):
        res = plane_wave_check()
        assert res.passed, res.summary()

    def test_degraded_stencil_fails_spatial_gate(self):
        """The 2nd-order verification stencil must NOT pass the 4th-order
        gate — proof the harness detects a degraded discretization."""
        res = spatial_ladder(fd_order=2)
        assert not res.passed, res.summary()
        # and it should measure ~2nd order, not just noise
        assert 1.5 <= res.observed_order <= 3.0

    def test_errors_monotone_under_refinement(self):
        res = spatial_ladder()
        errs = [r.error for r in sorted(res.rungs, key=lambda r: -r.param)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_result_dict_schema(self):
        d = temporal_ladder(step_counts=(8, 16)).to_dict()
        assert d["kind"] == "temporal"
        assert len(d["rungs"]) == 2
        assert isinstance(d["passed"], bool)


class TestLTSLadder:
    """Quick rungs of the x1/x2 interface ladder (the full gated ladder
    runs in `repro verify --only lts` and CI)."""

    def test_corrected_interface_converges_second_order(self):
        res = lts_temporal_ladder(step_counts=(8, 16, 32))
        assert res.kind == "temporal_lts"
        assert res.observed_order >= 1.9, res.summary()
        assert res.passed, res.summary()

    def test_disabled_correction_is_the_tooth(self):
        res = lts_temporal_ladder(step_counts=(8, 16, 32), correction=False)
        assert not res.passed, res.summary()
        # degraded scheme measures well under the 1.9 gate
        assert res.observed_order < 1.8

    def test_errors_monotone_under_dt_refinement(self):
        res = lts_temporal_ladder(step_counts=(8, 16, 32))
        errs = [r.error for r in sorted(res.rungs, key=lambda r: -r.param)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
