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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Grid3D, Medium, Receiver, SolverConfig, WaveSolver,
                        compiled)
from repro.core.fd import NGHOST
from repro.core.grid import ALL_FIELDS, WaveField
from repro.core.kernels import VelocityStressKernel
from repro.core.lts import (_BANDS, _STRESS_BAND_FIELDS, _VEL_BAND_FIELDS,
                            BAND_PLANES, MIN_GROUP_PLANES, RATES, _Band,
                            build_rate_groups, local_cfl_map,
                            normalize_rate_map, plane_cfl_bounds,
                            theoretical_speedup)
from repro.scenarios import basin_two_layer

from ..fields import seed_solver_fields

needs_provider = pytest.mark.skipif(
    not compiled.compiled_available(),
    reason="no compiled provider (no C compiler)")


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


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1.0, 9.0), min_size=1, max_size=64),
           st.floats(0.1, 1.0))
    def test_partition_invariants(self, factors, dt):
        """What the scheduler (and the in-row band correction, whose two
        bands per group must not overlap) relies on, for any medium."""
        bounds = dt * np.asarray(factors)
        nz = bounds.size
        groups = build_rate_groups(dt, bounds)
        assert groups[0][0] == 0 and groups[-1][1] == nz
        for (_, hi, _), (lo, _, _) in zip(groups, groups[1:]):
            assert hi == lo                         # tiles [0, nz)
        for lo, hi, r in groups:
            assert r in RATES and lo < hi
            assert r * dt <= bounds[lo:hi].min()    # CFL-safe
            if len(groups) > 1:
                assert hi - lo >= MIN_GROUP_PLANES
        for (_, _, ra), (_, _, rb) in zip(groups, groups[1:]):
            assert ra != rb and max(ra, rb) <= 2 * min(ra, rb)
        assert normalize_rate_map(groups, nz) == groups


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

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["pooled", "compiled"])
    def test_state_roundtrip_bitwise(self, variant, step):
        # restart mid macro-cycle (x2/x4 groups mid-hold): band history must
        # survive the round-trip, on the numpy bodies and the bound plans
        if variant == "compiled" and not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
        a = _make_solver("auto", kernel_variant=variant)
        assert a.lts.max_rate == 4
        a.run(step)
        st_ = a.state()
        assert "lts" in st_ and st_["lts"]
        a.run(7)
        b = _make_solver("auto", kernel_variant=variant)
        b.load_state(st_)
        b.run(7)
        assert b.nstep == a.nstep
        _assert_same_run(a, b)

    @needs_provider
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_state_written_by_pooled_resumes_on_compiled(self, step):
        a = _make_solver("auto")
        a.run(step)
        b = _make_solver("auto", kernel_variant="compiled")
        b.load_state(a.state())
        a.run(7)
        b.run(7)
        _assert_same_run(a, b)

    def test_band_planes_cover_stencil(self):
        s = _make_solver(((0, 8, 1), (8, 16, 2)))
        for g in s.lts.groups:
            for band in g.owned_bands:
                k = band.sl[2]
                assert k.stop - k.start == BAND_PLANES

    def test_compiled_matches_pooled(self):
        """Sweeps, slab damping, free surface and band corrections all
        compiled: fields AND band history equal the numpy run bit for bit."""
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
        lts = ((0, 4, 1), (4, 8, 2), (8, 16, 4))
        for dtype in (np.float64, np.float32):
            pooled = _make_solver(lts, dtype=dtype)
            comp = _make_solver(lts, dtype=dtype, kernel_variant="compiled")
            assert comp.lts.plans and pooled.lts.plans is None
            pooled.run(7)
            comp.run(7)
            _assert_same_run(pooled, comp)

    def test_one_damping_pass_per_run_of_active_groups(self):
        """Stiff-soft-stiff: at odd substeps the two x1 groups are separate
        runs (two passes), at even ones the whole column is one."""
        s = _make_solver(((0, 6, 1), (6, 10, 2), (10, 16, 1)))
        calls = []
        apply_slab = s.sponge.apply_slab
        s.sponge.apply_slab = lambda wf, lo, hi, taper: (
            calls.append((lo, hi)), apply_slab(wf, lo, hi, taper))
        s.run(2)
        assert calls == [(0, 16), (0, 6), (10, 16)]
        s.run(2)
        assert len(s.lts._tapers) == 2      # built once per active set


def _assert_same_run(a, b):
    """Nine fields (ghosts included), band history and waveforms, atol=0."""
    for name, arr in a.wf.fields().items():
        np.testing.assert_array_equal(getattr(b.wf, name), arr, err_msg=name)
    lts_a, lts_b = a.state()["lts"], b.state()["lts"]
    assert lts_a.keys() == lts_b.keys()
    for key, arr in lts_a.items():
        np.testing.assert_array_equal(lts_b[key], arr, err_msg=key)
    for ra, rb in zip(a.receivers, b.receivers):
        assert ra.data == rb.data


#: name -> (rate map, nz, extra SolverConfig fields)
_COMPILED_CASES = {
    "basin-x1-x2-x4": (((0, 13, 1), (13, 17, 2), (17, 32, 4)), 32, {}),
    # two non-contiguous active runs in one substep
    "sandwich-x1-x2-x1": (((0, 6, 1), (6, 10, 2), (10, 16, 1)), 16, {}),
    # groups of exactly MIN_GROUP_PLANES: the two bands of a group touch
    "thin-groups": (((0, 4, 1), (4, 8, 2), (8, 12, 4), (12, 16, 2)), 16, {}),
    "no-correction": (((0, 4, 1), (4, 8, 2), (8, 16, 4)), 16,
                      {"lts_correction": False}),
}


@pytest.mark.parametrize("case", list(_COMPILED_CASES))
def test_compiled_lts_equals_pooled_lts(kernels, case, monkeypatch):
    """One row visit per substep == per-group sweeps between whole-plane
    band passes: fields, band history and waveforms, every provider."""
    monkeypatch.setenv("REPRO_COMPILED_PROVIDER", kernels.provider)
    lts, nz, extra = _COMPILED_CASES[case]
    assert all(hi - lo >= MIN_GROUP_PLANES for lo, hi, _ in lts)
    runs = []
    for variant in ("pooled", "compiled"):
        s = _make_solver(lts, n=10, nz=nz, dtype=np.dtype(kernels.dtype).type,
                         kernel_variant=variant, **extra)
        for k in (1.5, nz / 2, nz - 1.5):
            s.add_receiver(Receiver(position=(450.0, 550.0, k * s.grid.h)))
        s.run(9)
        runs.append(s)
    assert runs[1].fused.kernels is kernels and runs[1].lts.plans
    _assert_same_run(*runs)


class TestCompiledBand:
    """The sweep's in-row band correction == _Band's numpy bodies around a
    pooled region update (atol=0): fields, and the history it saves."""

    @pytest.mark.parametrize("w", [0.25, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("fields", [_VEL_BAND_FIELDS,
                                        _STRESS_BAND_FIELDS])
    def test_save_blend_restore(self, kernels, w, fields):
        # ``fields`` is the band trio the update *reads*
        half = next(h for h, (_, read) in _BANDS.items() if read == fields)
        own = _BANDS[half][0]
        dtype = np.dtype(kernels.dtype)
        g = Grid3D(7, 6, 10, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0,
                                 dtype=dtype)
        rng = np.random.default_rng(11)
        a = WaveField(g, dtype=dtype)
        for name in ALL_FIELDS:
            getattr(a, name)[...] = rng.standard_normal(g.padded_shape)
        b = a.copy()
        # a group on planes [0, 4): it owns the band below the interface
        # at k=4 and reads the neighbour's band above it
        k_if = NGHOST + 4
        bands = []
        for wf in (a, b):
            hist = np.zeros((g.nx, g.ny, 12, BAND_PLANES), dtype=dtype)
            bands.append((
                hist,
                _Band(wf, None, slice(k_if - BAND_PLANES, k_if), hist, 0),
                _Band(wf, None, slice(k_if, k_if + BAND_PLANES), hist, 6)))
            for name in ALL_FIELDS:     # everyone moves on; the history
                getattr(wf, name)[...] *= 1.75      # keeps the old level
        region = (slice(NGHOST, NGHOST + g.nx), slice(NGHOST, NGHOST + g.ny),
                  slice(NGHOST, k_if))
        dt = 2e-3
        # numpy reference: save, blend in place, update, restore
        hist_a, owned, neighbour = bands[0]
        held = {c: getattr(a, c).copy() for c in fields}
        owned.save_prev(own)
        neighbour.apply(fields, w)
        getattr(VelocityStressKernel(a, med, dt).region(region),
                "step_" + half)()
        neighbour.restore(fields)
        for c in fields:
            assert np.array_equal(getattr(a, c), held[c])
        # compiled: the same thing inside one row visit
        hist_b, owned, neighbour = bands[1]
        compiled.FusedStepper(b, med, dt, parallel=kernels.parallel).bind(
            half, (region[0].start, region[0].stop, region[1].start,
                   region[1].stop), [(NGHOST, k_if, dt)], hist_b,
            save=[(owned.slots[own], owned.sl[2].start)],
            blend=[(0, neighbour.slots[fields], neighbour.sl[2].start,
                    w)])()
        for name in ALL_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(hist_a, hist_b)
        assert not np.array_equal(neighbour.prev[fields[0]],
                                  getattr(b, fields[0])[neighbour.sl])


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
