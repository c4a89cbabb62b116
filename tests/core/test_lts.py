"""Clustered local-time-stepping unit tests (partitioning + scheduler).

Convergence across rate-group interfaces is gated by the MMS temporal
ladder (``tests/verify/test_mms.py`` and ``repro verify --only lts``);
distributed bitwise equivalence lives in ``tests/parallel`` and the
equivalence matrix.  This file pins the pure-python pieces: the rate
partitioning rules, the scheduler's cadence/introspection, checkpoint
round-trips, and the single-group degenerate case.
"""

import numpy as np
import pytest

from repro.bench import seed_solver_fields
from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
from repro.core.fd import NGHOST
from repro.core.grid import ALL_FIELDS, WaveField
from repro.core.lts import (_STRESS_BAND_FIELDS, _VEL_BAND_FIELDS,
                            BAND_PLANES, MIN_GROUP_PLANES, RATES, _Band,
                            build_rate_groups, local_cfl_map,
                            normalize_rate_map, plane_cfl_bounds,
                            theoretical_speedup)
from repro.scenarios import basin_two_layer


def _bounds(*plane_dts):
    return np.asarray(plane_dts, dtype=np.float64)


class TestBuildRateGroups:
    def test_three_rate_partition(self):
        # 6 planes at dt, 6 at 2dt, 6 at 4dt -> x1/x2/x4 slabs
        b = _bounds(*([1.0] * 6 + [2.0] * 6 + [4.0] * 6))
        assert build_rate_groups(1.0, b) == ((0, 6, 1), (6, 12, 2),
                                             (12, 18, 4))

    def test_ratio_clamped_across_jump(self):
        # a direct 1 -> 4 jump must demote the fast side to x2 first
        b = _bounds(*([1.0] * 6 + [4.0] * 12))
        groups = build_rate_groups(1.0, b)
        for (_, _, ra), (_, _, rb) in zip(groups, groups[1:]):
            assert max(ra, rb) <= 2 * min(ra, rb)
        assert groups[0][2] == 1 and groups[-1][2] == 4

    def test_thin_run_extends_into_faster_neighbour(self):
        # a 2-plane x1 run is thinner than MIN_GROUP_PLANES: it grows by
        # demoting planes of the x2 neighbour, never by promoting itself
        b = _bounds(*([1.0] * 2 + [2.0] * 14))
        groups = build_rate_groups(1.0, b)
        assert all(hi - lo >= MIN_GROUP_PLANES for lo, hi, _ in groups)
        assert groups[0][2] == 1
        assert groups[0][1] >= MIN_GROUP_PLANES

    def test_thin_grid_single_group_at_safe_rate(self):
        # nz < 2 * MIN_GROUP_PLANES cannot hold an interface
        b = _bounds(*([4.0] * 3 + [1.0] * 3))
        assert build_rate_groups(1.0, b) == ((0, 6, 1),)

    def test_uniform_bounds_single_group(self):
        assert build_rate_groups(1.0, _bounds(*[4.0] * 12)) == ((0, 12, 4),)

    def test_dt_above_bound_raises(self):
        with pytest.raises(ValueError, match="exceeds the local CFL"):
            build_rate_groups(2.0, _bounds(*[1.0] * 8))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_rate_groups(0.0, _bounds(1.0))
        with pytest.raises(ValueError):
            build_rate_groups(1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            build_rate_groups(1.0, np.array([]))

    def test_rates_respect_local_bound(self):
        rng = np.random.default_rng(7)
        b = rng.uniform(1.0, 5.0, size=48)
        for lo, hi, r in build_rate_groups(1.0, b):
            assert r in RATES
            # demotions only: every plane's assigned rate is stable
            assert r * 1.0 <= b[lo:hi].min() + 1e-12


class TestNormalizeRateMap:
    def test_valid_map_passes_through(self):
        m = ((0, 8, 1), (8, 16, 2))
        assert normalize_rate_map(m, 16) == m

    @pytest.mark.parametrize("spec,err", [
        ((), "at least one group"),
        (((0, 8, 3),), "not in"),
        (((2, 8, 1),), "contiguously"),
        (((0, 8, 1), (10, 16, 1)), "contiguously"),
        (((0, 8, 1),), "covers"),
        (((0, 2, 1), (2, 16, 2)), "thinner"),
        (((0, 8, 1), (8, 16, 4)), "ratio"),
        ("nonsense", "triples"),
    ])
    def test_invalid_maps_raise(self, spec, err):
        nz = 16
        with pytest.raises(ValueError, match=err):
            normalize_rate_map(spec, nz)

    def test_single_thin_group_allowed(self):
        # one group may be arbitrarily thin: there is no interface
        assert normalize_rate_map(((0, 2, 4),), 2) == ((0, 2, 4),)


class TestTheoreticalSpeedup:
    def test_known_value(self):
        # 8 planes at x1 + 8 at x4: 16 / (8 + 2) = 1.6
        assert theoretical_speedup(((0, 8, 1), (8, 16, 4))) == \
            pytest.approx(1.6)

    def test_all_rate_one_is_unity(self):
        assert theoretical_speedup(((0, 10, 1),)) == pytest.approx(1.0)


def _make_solver(lts, n=12, nz=16, **cfg_kw):
    grid = Grid3D(n, n, nz, h=100.0)
    med = basin_two_layer(grid)
    cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                       stability_check_interval=0, lts=lts, **cfg_kw)
    solver = WaveSolver(grid, med, cfg)
    seed_solver_fields(solver.wf)
    return solver


class TestScheduler:
    def test_auto_map_matches_plane_bounds(self):
        s = _make_solver("auto")
        expect = build_rate_groups(
            s.dt, plane_cfl_bounds(s.grid.h, s.medium, order=s.config.order))
        assert s.lts.rate_map() == expect
        assert s.lts.max_rate == max(r for _, _, r in expect)

    def test_histogram_and_speedup(self):
        s = _make_solver(((0, 8, 1), (8, 16, 2)))
        hist = s.lts.histogram()
        assert hist == {1: 8 * 12 * 12, 2: 8 * 12 * 12}
        assert s.lts.speedup() == pytest.approx(16 / (8 + 4))

    def test_active_cadence(self):
        s = _make_solver(((0, 4, 1), (4, 8, 2), (8, 16, 4)))
        rates = lambda i: [g.rate for g in s.lts.active(i)]
        assert rates(0) == [1, 2, 4]
        assert rates(1) == [1]
        assert rates(2) == [1, 2]
        assert rates(3) == [1]

    def test_single_group_bitwise_equals_off(self):
        # one x1 group degenerates to the global-dt scheme exactly
        on = _make_solver(((0, 16, 1),))
        off = _make_solver("off")
        on.run(6)
        off.run(6)
        for name, arr in off.wf.fields().items():
            np.testing.assert_array_equal(arr, getattr(on.wf, name),
                                          err_msg=name)

    def test_lts_tracks_global_dt_solution(self):
        # same dt, x1/x2/x4 vs global on a *smooth* field: bounded misfit
        # (white-noise seeds would put all energy at the Nyquist frequency,
        # where the O(dt^2) interface interpolation has nothing to offer)
        def smooth(s):
            for arr in s.wf.fields().values():
                arr[...] = 0.0
            x, y, z = np.meshgrid(*(np.arange(n, dtype=np.float64)
                                    for n in s.wf.vx.shape), indexing="ij")
            c = [(n - 1) / 2 for n in s.wf.vx.shape]
            blob = np.exp(-((x - c[0]) ** 2 + (y - c[1]) ** 2
                            + (z - c[2]) ** 2) / (2 * 3.0 ** 2))
            s.wf.vx[...] = blob
        on = _make_solver("auto")
        off = _make_solver("off")
        smooth(on)
        smooth(off)
        on.run(8)
        off.run(8)
        ref = np.abs(off.wf.vx).max()
        assert ref > 0
        assert np.abs(on.wf.vx - off.wf.vx).max() <= 0.05 * ref

    def test_state_roundtrip_bitwise(self):
        # restart mid macro-cycle: band history must survive the round-trip
        a = _make_solver("auto")
        a.run(3)                      # odd step: x2/x4 groups mid-hold
        st = a.state()
        assert "lts" in st and st["lts"]
        a.run(5)
        end = {k: v.copy() for k, v in a.wf.fields().items()}

        b = _make_solver("auto")
        b.load_state(st)
        b.run(5)
        assert b.nstep == a.nstep
        for name, arr in end.items():
            np.testing.assert_array_equal(arr, getattr(b.wf, name),
                                          err_msg=name)

    def test_band_planes_cover_stencil(self):
        s = _make_solver(((0, 8, 1), (8, 16, 2)))
        for g in s.lts.groups:
            for band in g.owned_bands:
                k = band.sl[2]
                assert k.stop - k.start == BAND_PLANES

    def test_compiled_matches_pooled(self):
        """Sweeps, slab damping, free surface and band corrections all
        compiled: fields AND band history equal the numpy run bit for bit."""
        from repro.core import compiled
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (numba or C compiler)")
        lts = ((0, 4, 1), (4, 8, 2), (8, 16, 4))
        for dtype in (np.float64, np.float32):
            pooled = _make_solver(lts, dtype=dtype)
            comp = _make_solver(lts, dtype=dtype, kernel_variant="compiled")
            assert all(band._compiled for g in comp.lts.groups
                       for band in g.owned_bands)
            pooled.run(7)
            comp.run(7)
            for name, arr in pooled.wf.fields().items():
                np.testing.assert_array_equal(getattr(comp.wf, name), arr,
                                              err_msg=name)
            for key, arr in pooled.state()["lts"].items():
                np.testing.assert_array_equal(comp.state()["lts"][key], arr,
                                              err_msg=key)


class TestCompiledBand:
    """kernels.band_* == _Band's numpy bodies (atol=0)."""

    @pytest.mark.parametrize("w", [0.25, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("fields", [_VEL_BAND_FIELDS,
                                        _STRESS_BAND_FIELDS])
    def test_save_blend_restore(self, kernels, w, fields):
        g = Grid3D(7, 6, 10, h=1.0)
        rng = np.random.default_rng(11)
        a = WaveField(g, dtype=np.dtype(kernels.dtype))
        for name in ALL_FIELDS:
            getattr(a, name)[...] = rng.standard_normal(g.padded_shape)
        b = a.copy()
        k = slice(NGHOST + 4, NGHOST + 4 + BAND_PLANES)
        ref, fast = _Band(a, None, k), _Band(b, None, k, kernels)

        def same():
            for name in ALL_FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name))
            for c in fields:
                assert np.array_equal(ref.prev[c], fast.prev[c])

        for band in (ref, fast):
            band.save_prev(fields)
        for wf in (a, b):       # the owner moves on; prev keeps the old level
            for c in fields:
                getattr(wf, c)[...] *= 1.75
        held = {c: getattr(a, c).copy() for c in fields}
        for band in (ref, fast):
            band.apply(fields, w)
        same()
        for band in (ref, fast):
            band.restore(fields)
        same()
        for c in fields:
            assert np.array_equal(getattr(b, c), held[c])


class TestConfigValidation:
    def test_pml_rejected_under_lts(self):
        with pytest.raises(ValueError, match="[Ll]ts|LTS|PML|pml"):
            SolverConfig(absorbing="pml", lts="auto")

    def test_attenuation_rejected_under_lts(self):
        with pytest.raises(ValueError, match="attenuation"):
            SolverConfig(absorbing="sponge", sponge_width=3,
                         attenuation_band=(0.5, 2.0), lts="auto")

    def test_bad_lts_value_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(absorbing="sponge", sponge_width=3, lts="maybe")


class TestLocalCflMap:
    def test_basin_planes_allow_coarser_steps(self):
        grid = Grid3D(8, 8, 20, h=100.0)
        med = basin_two_layer(grid)
        bounds = plane_cfl_bounds(grid.h, med)
        # free-surface side (high k) is the soft basin: larger bound
        assert bounds[-1] > bounds[0]
        assert bounds[-1] / bounds[0] == pytest.approx(4.5, rel=1e-6)
        cmap = local_cfl_map(grid.h, med)
        assert cmap.shape == (8, 8, 20)
        assert cmap.min(axis=(0, 1)) == pytest.approx(bounds)
