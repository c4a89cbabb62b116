"""The update statement list and its two consumers (numpy executor, C)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compiled, update
from repro.core.fd import NGHOST
from repro.core.grid import (ALL_FIELDS, STRESS_FIELDS, VELOCITY_FIELDS,
                             Grid3D, WaveField)
from repro.core.kernels import VelocityStressKernel
from repro.core.medium import Medium


def _state(shape, dtype, seed, h=37.5):
    g = Grid3D(*shape, h=h)
    rng = np.random.default_rng(seed)
    vs = rng.uniform(1000.0, 2000.0, g.shape)
    med = Medium.from_velocity_model(g, vs * rng.uniform(1.8, 2.2, g.shape),
                                     vs, rng.uniform(2000.0, 3000.0, g.shape),
                                     dtype=dtype)
    wf = WaveField(g, dtype=dtype)
    for name in ALL_FIELDS:
        getattr(wf, name)[...] = rng.standard_normal(g.padded_shape)
    return g, med, wf


class TestVocabulary:
    """The list-level form of the divides test (which also stays on the C
    text): nothing in the list can be rendered as a division."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_every_statement_is_one_binary_op(self, order):
        kinds = {"tap", "field", "coef", "scalar", "temp", "memory"}
        for anelastic, (half, blocks) in (
                (q, hb) for q in (False, True)
                for hb in update.halves(order, q).items()):
            for b in blocks:
                mem = [s for s in b.body if s.out.kind == "memory"]
                # one memory write per anelastic stress component
                assert len(mem) == (anelastic and half == "stress"
                                    and bool(b.terms))
                for s in b.body:
                    assert s.op in ("sub", "mul", "add")
                    assert s.out.kind in ("temp", "field", "memory")
                    assert {s.a.kind, s.b.kind} <= kinds
                    if s.out.kind == "field":  # f = f + increment
                        assert (s.op, s.a) == ("add", s.out)
                    if s.out.kind == "memory":  # zeta = zeta' * 1.0
                        assert (s.op, s.b.name) == ("mul", "one")

    @pytest.mark.parametrize("order", [2, 4])
    def test_anelastic_list_only_adds_the_relaxation(self, order):
        """The elastic lists are the anelastic ones without the memory
        statements, which sit between the summed rate and ``incr``."""
        el, q = update.halves(order), update.halves(order, True)
        assert el["velocity"] == q["velocity"]
        for b, bq in zip(el["stress"], q["stress"]):
            extra = [s for s in bq.body if s not in b.body]
            assert [s for s in bq.body if s not in extra] == list(b.body)
            if b.terms:
                at = bq.body.index(extra[0])
                assert bq.body[at + len(extra)].out == update.INCR
                assert len(extra) == 8

    def test_no_division_to_render(self):
        assert set(compiled._C_OPS) == {"sub", "mul", "add"}
        assert "/" not in "".join(compiled._C_OPS.values())

    @pytest.mark.parametrize("order", [2, 4])
    def test_eq3_statement_counts(self, order):
        stmts = update.eq3(update.temp("d"), "f", 0, True, order)
        assert len(stmts) == {2: 2, 4: 5}[order]

    def test_one_medium_list_and_term_axes(self):
        assert update.MEDIUM == ("bx", "by", "bz", "lam", "lam2mu",
                                 "mu_xy", "mu_xz", "mu_yz")
        assert update.TERM_AXES["sxz"] == (0, 2)
        assert all(update.TERM_AXES[c] == (0, 1, 2)
                   for c in ("vx", "vy", "vz", "sxx", "syy", "szz"))


def _covers(draw, shape):
    """A random disjoint cover of the interior of ``shape`` by boxes, cut
    guillotine-wise down to 1-plane-thin boxes."""
    boxes = [tuple((NGHOST, NGHOST + n) for n in shape)]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(boxes) - 1))
        box = boxes[i]
        axes = [a for a in range(3) if box[a][1] - box[a][0] >= 2]
        if not axes:
            continue
        a = draw(st.sampled_from(axes))
        lo, hi = box[a]
        cut = draw(st.integers(lo + 1, hi - 1))
        boxes[i:i + 1] = [box[:a] + ((lo, cut),) + box[a + 1:],
                          box[:a] + ((cut, hi),) + box[a + 1:]]
    return [tuple(slice(*r) for r in box) for box in boxes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", [2, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_box_cover_is_the_span_binding(order, dtype, data):
    """Boxes in any order, each with its own dt (as LTS slabs), update every
    interior cell exactly as the span binding at that box's dt does."""
    shape = tuple(data.draw(st.integers(1, 7), label=f"n{a}")
                  for a in range(3))
    _, med, wf = _state(shape, dtype, data.draw(st.integers(0, 99)))
    boxes = _covers(data.draw, shape)
    dts = [data.draw(st.sampled_from([1e-3, 2e-3, 4e-3])) for _ in boxes]
    k = VelocityStressKernel(wf, med, 1e-3, order=order)
    execs = [k.region(b, dt=dt) for b, dt in zip(boxes, dts)]
    for half, fields in (("velocity", VELOCITY_FIELDS),
                         ("stress", STRESS_FIELDS)):
        want = {name: getattr(wf, name).copy() for name in fields}
        for dt in set(dts):
            ref = wf.copy()
            getattr(VelocityStressKernel(ref, med, dt, order=order),
                    "step_" + half)()
            for b, bdt in zip(boxes, dts):
                if bdt == dt:
                    for name in fields:
                        want[name][b] = getattr(ref, name)[b]
        for i in data.draw(st.permutations(range(len(boxes)))):
            getattr(execs[i], "step_" + half)()
        for name in fields:
            assert getattr(wf, name).tobytes() == want[name].tobytes(), name


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_anelastic_box_cover_is_the_span_binding(data):
    """Under attenuation a box cover, in any order, updates every interior
    cell and memory variable as the span binding does; a box at another
    dt is refused (the coefficients are built for one)."""
    from repro.core.attenuation import CoarseGrainedAttenuation
    shape = tuple(data.draw(st.integers(1, 6), label=f"n{a}")
                  for a in range(3))
    g, med, wf = _state(shape, np.float32, data.draw(st.integers(0, 99)))
    ref = wf.copy()
    atts = [CoarseGrainedAttenuation(g, med, 0.2, 2.0, 1e-3,
                                     dtype=np.float32) for _ in range(2)]
    k = VelocityStressKernel(wf, med, 1e-3, attenuation=atts[0])
    boxes = _covers(data.draw, shape)
    with pytest.raises(ValueError, match="built for dt"):
        k.region(boxes[0], dt=2e-3)
    execs = [k.region(b) for b in boxes]
    span = VelocityStressKernel(ref, med, 1e-3, attenuation=atts[1])
    for _ in range(2):
        for i in data.draw(st.permutations(range(len(boxes)))):
            execs[i].step_stress()
        span.step_stress()
    for name in STRESS_FIELDS:
        assert getattr(wf, name).tobytes() == getattr(ref, name).tobytes()
        assert (atts[0].zeta[name].tobytes()
                == atts[1].zeta[name].tobytes()), name


def test_memory_statements_relax_the_summed_rate():
    """The memory statements see the summed rate and their result is
    integrated: with ``zeta = 0``, ``a = 0``, ``delta = 1`` and ``b = -2``
    the relaxed rate is ``rate - (0 + -2*rate)*0.5 = 2*rate`` exactly,
    which equals doubling dt."""
    from repro.core.attenuation import CoarseGrainedAttenuation
    g, med, wf = _state((6, 5, 4), np.float64, 3)
    ref = wf.copy()
    att = CoarseGrainedAttenuation(g, med, 0.2, 2.0, 1e-3)
    for name, value in (("zeta_a", 0.0), ("zeta_b", -2.0), ("delta_p", 1.0),
                        ("delta_s", 1.0)):
        att.coefficients[name][...] = value
    VelocityStressKernel(wf, med, 1e-3, attenuation=att).step_stress()
    VelocityStressKernel(ref, med, 2e-3).step_stress()
    for name in STRESS_FIELDS:
        assert getattr(wf, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("half", ["velocity", "stress"])
def test_rendered_body_is_one_assignment_per_statement(half):
    for anelastic in (False, True) if half == "stress" else (False,):
        _assert_rendered(half, anelastic)


def _assert_rendered(half, anelastic):
    blocks = update.halves(4, anelastic)[half]
    stmts = [s for b in blocks for s in b.body]
    lines = [ln.strip() for ln in compiled._c_body(blocks).split("\n")]
    assert len(lines) == len(stmts)
    for line, s in zip(lines, stmts):
        assert line.count(" = ") == 1 and line.endswith(";"), line
        lhs, rhs = line[:-1].split(" = ")
        assert lhs == compiled._c_operand(s.out)
        assert rhs == (f"{compiled._c_operand(s.a)} "
                       f"{compiled._C_OPS[s.op]} {compiled._c_operand(s.b)}")
    # the sweep renders that body and declares every temporary once
    src = compiled._c_sweeps("double", "f64")
    assert compiled._c_body(blocks) in src
    row = half + "_q" * anelastic
    decl = re.search(rf"{row}_row_f64\(.*?double ([\w, ]+);", src, re.S)
    assert decl.group(1).split(", ") == update.temporaries(blocks)


class TestMediumRefusal:
    """Both backends read the coefficient names off the list and refuse a
    medium lacking one when they bind, not mid-step."""

    @staticmethod
    def _lacking(name):
        _, med, wf = _state((6, 5, 4), np.float64, 4)
        delattr(med, name)
        return med, wf

    def test_pooled_span_and_box(self):
        med, wf = self._lacking("mu_xz")
        k = VelocityStressKernel(wf, med, 1e-3)
        with pytest.raises(ValueError, match="lacks update coefficients: "
                                             "mu_xz"):
            k.step_velocity()
        box = tuple(slice(NGHOST, NGHOST + 2) for _ in range(3))
        with pytest.raises(ValueError, match="lacks update coefficients"):
            k.region(box)

    @pytest.mark.skipif(not compiled.compiled_available(),
                        reason="no compiled provider (no C compiler)")
    def test_compiled(self):
        med, wf = self._lacking("bz")
        with pytest.raises(ValueError, match="lacks update coefficients: bz"):
            compiled.FusedStepper(wf, med, 1e-3)
