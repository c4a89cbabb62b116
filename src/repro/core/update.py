"""The velocity–stress update, written once (paper Eq. 1–3, Section IV.B).

Each half-step is a list of statements: one ``sub``, ``mul`` or ``add`` of
two operands (:class:`Ref`) into a temporary or an updated field.  Nothing
divides: ``1/h`` is folded into the scalars ``c1``/``c2`` (Section IV.B's
reciprocal rule).  The pooled executor
(:class:`repro.core.kernels.UpdateExecutor`) binds the list into in-place
ufunc calls and the compiled sweeps (:mod:`repro.core.compiled`) render it
as their per-cell C, one assignment per statement; the list's order is the
association order of every cell update in both, so they agree bit for bit
by construction.

A half is a tuple of :class:`Block` s.  A component block advances one
field and names its per-axis terms (the PML splits on them, Eq. 5–6); a
shared block — the normal stresses' velocity derivatives — is computed once
per pass for the components that use it.  The anelastic stress half
(``halves(order, anelastic=True)``) also relaxes each stress rate with its
memory variable before integrating it (Section II.A; the trapezoidal
update of :mod:`repro.core.attenuation`), in the same statements.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .fd import C1, C2
from .grid import VELOCITY_FIELDS


class Ref(NamedTuple):
    """An operand: ``tap`` (read field ``name``, ``d`` cells along ``axis``),
    ``field`` (the updated field), ``coef`` (a medium or attenuation
    array), ``memory`` (a memory variable, read and written), ``scalar``
    (``c1``, ``c2``, ``dt`` or a :data:`CONSTANTS` entry) or ``temp``, all
    at the cell."""

    kind: str
    name: str
    axis: int = 0
    d: int = 0


class Stmt(NamedTuple):
    """``out = a <op> b``."""

    op: str
    out: Ref
    a: Ref
    b: Ref | None = None


class Block(NamedTuple):
    """A component's statements and ``(axis, temp)`` terms, or a shared
    block (no terms) that the components naming it in ``uses`` read."""

    name: str
    body: tuple[Stmt, ...]
    terms: tuple[tuple[int, Ref], ...] = ()
    uses: str | None = None


def temp(name: str) -> Ref:
    return Ref("temp", name)


WORK, RATE, INCR = temp("work"), temp("rate"), temp("incr")
_C1, _C2, _DT = (Ref("scalar", n) for n in ("c1", "c2", "dt"))

#: Scalars with a fixed value, which no caller supplies.
CONSTANTS = {"half": 0.5, "one": 1.0}
_HALF, _ONE = (Ref("scalar", n) for n in CONSTANTS)

#: Eq. (1a): velocity -> (buoyancy, ((axis, stress, forward), ...)); the
#: direction follows the relative staggering of the two fields.
VELOCITY = {
    "vx": ("bx", ((0, "sxx", True), (1, "sxy", False), (2, "sxz", False))),
    "vy": ("by", ((0, "sxy", False), (1, "syy", True), (2, "syz", False))),
    "vz": ("bz", ((0, "sxz", False), (1, "syz", False), (2, "szz", True))),
}

#: Eq. (1b), shear part: stress -> (modulus, ((axis, velocity), ...)), all
#: forward.  The normal stress of axis ``a`` takes ``lam2mu`` times the
#: backward d(v_a)/dx_a and ``lam`` times the other two.
SHEAR = {
    "sxy": ("mu_xy", ((0, "vy"), (1, "vx"))),
    "sxz": ("mu_xz", ((0, "vz"), (2, "vx"))),
    "syz": ("mu_yz", ((1, "vz"), (2, "vy"))),
}


def eq3(out: Ref, field: str, axis: int, fwd: bool,
        order: int = 4) -> tuple[Stmt, ...]:
    """Eq. (3): ``out = (f[+1] - f[0]) * c1 + (f[+2] - f[-1]) * c2``, the
    second product formed in ``work`` (2nd order: the first product only);
    backward derivatives shift every tap down one cell."""
    if order not in (2, 4):
        raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")
    f = [Ref("tap", field, axis, d - (not fwd)) for d in (1, 0, 2, -1)]
    return ((Stmt("sub", out, f[0], f[1]), Stmt("mul", out, out, _C1))
            + (() if order == 2 else (
                Stmt("sub", WORK, f[2], f[3]), Stmt("mul", WORK, WORK, _C2),
                Stmt("add", out, out, WORK))))


def _relax(comp: str) -> tuple[Stmt, ...]:
    """The memory variable ``zeta`` of ``comp`` relaxes the rate (normal
    stresses with ``delta_p``, shear with ``delta_s``): ``zeta' = a*zeta +
    b*(delta*rate)``, ``rate -= (zeta + zeta') * 0.5``, ``zeta = zeta'``
    (``* 1.0``: a copy), ``u`` and ``zeta'`` formed in ``znew``."""
    z, znew = Ref("memory", f"zeta_{comp}"), temp("znew")
    delta = Ref("coef", "delta_p" if comp in ("sxx", "syy", "szz")
                else "delta_s")
    return (Stmt("mul", WORK, delta, RATE),
            Stmt("mul", WORK, Ref("coef", "zeta_b"), WORK),
            Stmt("mul", znew, Ref("coef", "zeta_a"), z),
            Stmt("add", znew, znew, WORK),
            Stmt("add", WORK, z, znew),
            Stmt("mul", WORK, WORK, _HALF),
            Stmt("sub", RATE, RATE, WORK),
            Stmt("mul", z, znew, _ONE))


def _integrate(comp: str, terms, anelastic: bool) -> tuple[Stmt, ...]:
    """Sum a stress's terms into the rate, relax it (``anelastic``),
    ``+= rate * dt``."""
    f, (t0, t1, *rest) = Ref("field", comp), [t for _, t in terms]
    return (Stmt("add", RATE, t0, t1),
            *(Stmt("add", RATE, RATE, t) for t in rest),
            *(_relax(comp) if anelastic else ()),
            Stmt("mul", INCR, RATE, _DT), Stmt("add", f, f, INCR))


@cache
def halves(order: int = 4,
           anelastic: bool = False) -> dict[str, tuple[Block, ...]]:
    """``{"velocity": blocks, "stress": blocks}`` at FD ``order``, the
    stresses relaxed by memory variables when ``anelastic``."""
    t = [temp(f"t{n}") for n in range(3)]
    dv = [temp(f"dv{a}") for a in range(3)]
    shared = [s for a, v in enumerate(VELOCITY_FIELDS)
              for s in eq3(dv[a], v, a, False, order)]
    velocity, stress = [], [Block("dv", tuple(shared))]
    for comp, (b, taps) in VELOCITY.items():
        f = Ref("field", comp)
        body = [s for (axis, src, fwd), tn in zip(taps, t) for s in (
            *eq3(tn, src, axis, fwd, order),
            Stmt("mul", tn, tn, Ref("coef", b)))]
        body += [s for tn in t for s in (Stmt("mul", INCR, tn, _DT),
                                         Stmt("add", f, f, INCR))]
        velocity.append(Block(comp, tuple(body), tuple(enumerate(t))))
    for own, comp in enumerate(("sxx", "syy", "szz")):
        terms = tuple(enumerate(t))
        body = [Stmt("mul", t[a], dv[a],
                     Ref("coef", "lam2mu" if a == own else "lam"))
                for a in range(3)]
        stress.append(Block(comp, (*body, *_integrate(comp, terms, anelastic)),
                            terms, uses="dv"))
    for comp, (mod, taps) in SHEAR.items():
        terms = tuple((axis, tn) for (axis, _), tn in zip(taps, t))
        body = [s for (axis, src), tn in zip(taps, t) for s in (
            *eq3(tn, src, axis, True, order),
            Stmt("mul", tn, tn, Ref("coef", mod)))]
        stress.append(Block(comp, (*body, *_integrate(comp, terms, anelastic)),
                            terms))
    return {"velocity": tuple(velocity), "stress": tuple(stress)}


def scalars(h: float, dt: float, order: int = 4) -> dict[str, float]:
    """``c1 = C1/h`` (``1/h`` at 2nd order), ``c2 = C2/h`` in double — each
    backend rounds them once to the field dtype — ``dt`` and the
    :data:`CONSTANTS`."""
    return {"c1": (C1 if order == 4 else 1.0) / float(h),
            "c2": C2 / float(h), "dt": float(dt), **CONSTANTS}


def operands(blocks, *kinds: str) -> tuple[str, ...]:
    """The names of the operands of ``kinds`` that ``blocks`` read, kind by
    kind, each sorted (``coef``: the arrays a backend binds)."""
    read = {(r.kind, r.name) for b in blocks for s in b.body
            for r in (s.a, s.b) if r}
    return tuple(n for k in kinds for n in sorted(n for j, n in read if j == k))


def temporaries(blocks) -> list[str]:
    """The temporaries ``blocks`` write, in first-write order."""
    return list(dict.fromkeys(s.out.name for b in blocks for s in b.body
                              if s.out.kind == "temp"))


#: Every medium array the update reads.
MEDIUM = operands((b for h in halves().values() for b in h), "coef")

#: The axis of each per-axis term, per component.
TERM_AXES = {b.name: tuple(a for a, _ in b.terms)
             for h in halves().values() for b in h if b.terms}


def medium_arrays(medium) -> dict:
    """``{name: array}`` of the :data:`MEDIUM` arrays; a backend binding a
    medium that lacks one is refused here, not mid-step."""
    missing = [n for n in MEDIUM if not hasattr(medium, n)]
    if missing:
        raise ValueError("medium lacks update coefficients: "
                         + ", ".join(missing))
    return {n: getattr(medium, n) for n in MEDIUM}
