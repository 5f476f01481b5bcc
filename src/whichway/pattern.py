"""Joint particle-detector state at the screen and its intensity patterns.

Two independent routes compute the same physics: ``intensity_direct`` expands
the squared norm of the superposed branch packets with the detector inner
products, while ``intensity_closed_form`` evaluates the Gaussian closed form
on the path qubit's state (w1, w2, c).  They must agree to ~1e-10 relative on
any grid, which the test suite enforces; keep them independent.

``conditional_patterns`` projects the detector side onto a measurement basis
before squaring, producing the eraser's conditioned fringe/antifringe pair.

The direct and conditional routes start from the two evolved branch packets.
The packets depend only on the grid and the geometry; the detector only
weights their moduli and their cross term, through ``JointState.path_state``,
so patterns for many detector states on one grid and geometry evolve them
once and combine them per state: ``_packets`` keeps the packets of the last
grid and geometry asked for, keyed by value like ``default_grid``, and
``_which_way_sum`` the which-way sum w1 |g1|^2 + w2 |g2|^2 of the last
packets and path weights.  The direct pattern on a grid adds that sum to
the cross term.

Each route hands its samples its own which-way reference, which the
visibility estimator reads the pattern against (``PatternSamples.which_way``):
the closed form its normalized envelope, and the direct route and each
eraser branch the packets they were combined from, whose which-way sum is
doubled and normalized on request, with no second combine after a direct
pattern.  So a V read from closed-form samples evolves no packet.

The packets' cross phase phi takes its cos and sin from t = tan(phi/2), as
(1 - t^2)/(1 + t^2) and 2t/(1 + t^2), which NumPy computes several times
faster than cos and sin.  The closed form keeps ``np.cos``: it stays an
oracle derived apart from the packets, and its interference term keeps
cos's relative accuracy at the zeros of the cosine, which the half-angle
form does not have.

Each kernel call computes its constants once and runs through
``_blockwise``: one ``np.errstate``, the outputs and one block-sized scratch
allocated up front, and every block of ``_BLOCK`` points written straight
into the output slices with ``out=``, the scratch reused from block to
block.  On positions the direct route evolves each block's packets into the
scratch and combines them from there; an eraser combines both of its
branches in one pass over the kept packets.  Every step is elementwise, so
the values are those of one evaluation over all the points, bit for bit.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce

import numpy as np

from ._record import Record, init_field
from .errors import NumericFailure, ValidationError
from .packets import (
    SMALLEST_NORMAL,
    Geometry,
    effective_tau,
    evolution_constants,
    grid_points,
    point_count,
)
from .qubit import DetectorPair, DetectorState, MeasurementBasis, inner_product

#: Raw intensities in [CLAMP_FLOOR m, 0), m the larger of 1 and the largest
#: raw value, are rounding residue and are clamped to 0; anything below is a
#: numeric failure, not noise.
CLAMP_FLOOR = -1e-15

_SQRT_HALF = math.sqrt(0.5)
#: Points per block of the elementwise kernels: a call's one block-sized
#: scratch stays in cache, so no kernel call makes a grid-sized temporary.
#: At 16384 points the direct route's live block arrays (four
#: packet rows, one scratch row, the positions and the output, 7 x 128 KiB
#: = 896 KiB) fit a 2 MiB per-core L2 cache, and its traced peak on 2^18
#: points, 1.31 times the positions, stays under the 1.5 that
#: ``TestBlockedKernelMemory`` allows (1.46 at 24576 points, 1.63 at 32768).
_BLOCK = 16384


class ScreenGrid(Record):
    """Uniform grid of screen positions (meters).

    The positions and their trapezoid weights are computed when the grid is
    built and are read-only.  Equal grids have the same positions, bit for
    bit, so the kernels' caches key on the grid's value.  Raises
    MemoryError when NumPy refuses the positions' size.
    """

    _fields = ("x_min", "x_max", "n_points")
    __slots__ = (*_fields, "_xs", "_weights")

    def __init__(self, x_min: float, x_max: float, n_points: int):
        n_points = grid_points(x_min, x_max, n_points)
        init_field(self, "x_min", x_min)
        init_field(self, "x_max", x_max)
        init_field(self, "n_points", n_points)
        init_field(self, "_values", (x_min, x_max, n_points))
        try:
            xs = np.linspace(x_min, x_max, n_points)
        except ValueError as exc:  # NumPy refuses an array past its size limit
            raise MemoryError(str(exc)) from None
        h = xs[1] - xs[0]
        wts = np.full(n_points, h)  # trapezoid rule: sum(weights * f) integrates f
        wts[0] = wts[-1] = 0.5 * h
        init_field(self, "_xs", _read_only(xs))
        init_field(self, "_weights", _read_only(wts))

    def __reduce__(self):
        # rebuilt from the fields, so the copy's arrays are read-only too
        return ScreenGrid, self._values

    def xs(self) -> np.ndarray:
        """The positions, read-only."""
        return self._xs

    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class JointState(Record):
    """Entangled particle-detector state evolved to the screen.

    path_amps are the complex amplitudes multiplying the two branches
    (detector state d1 rides the packet centered at +slit_sep/2); they must
    be normalized.  The default is the symmetric illumination.
    """

    __slots__ = _fields = ("geom", "pair", "path_amps")

    def __init__(self, geom: Geometry, pair: DetectorPair,
                 path_amps: tuple[complex, complex] = (_SQRT_HALF, _SQRT_HALF)):
        amps = tuple(complex(a) for a in path_amps)
        if len(amps) != 2 or not all(cmath.isfinite(a) for a in amps):
            raise ValidationError("path_amps must be two finite complex numbers")
        norm = abs(amps[0]) ** 2 + abs(amps[1]) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"path amplitudes not normalized: {norm!r}")
        init_field(self, "geom", geom)
        init_field(self, "pair", pair)
        init_field(self, "path_amps", amps)
        init_field(self, "_values", (geom, pair, amps))

    def path_state(self, outcome: DetectorState | None = None) -> tuple[float, float, complex]:
        """(w1, w2, c), the path qubit's state: what the screen sees of the
        detector.  Each pattern is 2 (w1 |g1|^2 + w2 |g2|^2 + 2 Re(c conj(g1) g2)).

        Unconditioned it is (|a1|^2, |a2|^2, conj(a1) a2 <d1|d2>), and |c| sets
        the fringe visibility.  Given a detector outcome b it is the state
        conditioned on b, unnormalized: (|k1|^2, |k2|^2, conj(k1) k2) with
        k_j = <b|d_j> a_j.  The outcomes of a basis add up to the former.
        """
        a1, a2 = self.path_amps
        if outcome is None:
            ip = inner_product(self.pair.d1, self.pair.d2)
            return abs(a1) ** 2, abs(a2) ** 2, a1.conjugate() * a2 * ip
        k1 = inner_product(outcome, self.pair.d1) * a1
        k2 = inner_product(outcome, self.pair.d2) * a2
        return abs(k1) ** 2, abs(k2) ** 2, k1.conjugate() * k2


class PatternSamples(Record, eq=False):
    """Screen-intensity samples (probability density per meter).

    norm_constant is the raw trapezoid integral divided out during
    normalization; the two branches of an eraser result share theirs, so
    that the pair sums to the unconditioned pattern.  reference is what the
    route that made the samples gives for their which-way reference: the
    reference itself, read-only, for the closed form (its normalized
    envelope), or (packets, w1, w2) for the direct route and each eraser
    branch, the ``BranchPackets`` the pattern was combined from and the
    weights of their moduli |g1|^2 and |g2|^2, summed only when
    ``which_way`` is called.  The record sets a reference array read-only,
    and a pickled or copied record's is read-only too.  Samples that hold
    packets keep them alive: 256 KiB at 8192 points, shared by every
    pattern on one grid and geometry.
    """

    __slots__ = _fields = ("grid", "intensity", "norm_constant", "reference")

    def __init__(self, grid: ScreenGrid, intensity: np.ndarray, norm_constant: float,
                 reference: np.ndarray | tuple[BranchPackets, float, float]):
        if isinstance(reference, np.ndarray):
            _read_only(reference)
        init_field(self, "grid", grid)
        init_field(self, "intensity", intensity)
        init_field(self, "norm_constant", norm_constant)
        init_field(self, "reference", reference)

    def __reduce__(self):
        # rebuilt through __init__, as BranchPackets is
        return PatternSamples, (self.grid, self.intensity, self.norm_constant, self.reference)

    def which_way(self) -> np.ndarray:
        """The pattern with its cross term removed, as a fresh array.

        It is what the screen shows when the detector states are orthogonal
        (a perfect which-way record), on this pattern's normalization, from
        the route that made the pattern: a copy of the closed form's
        envelope, or ``_which_way_sum`` of the kept packets doubled and
        divided by norm_constant, so after a direct pattern on the same
        grid it combines nothing.  Raises NumericFailure when it leaves the
        float range.
        """
        ref = self.reference
        if isinstance(ref, tuple):
            with np.errstate(over="ignore"):
                ref = np.multiply(_which_way_sum(*ref), 2.0)
                ref /= self.norm_constant
        else:
            ref = ref.copy()
        if not math.isfinite(ref.max()):  # a NaN shows in the maximum too
            raise NumericFailure("the which-way reference is outside the float range")
        return ref


class EraserResult(Record, eq=False):
    """Conditioned patterns for the two outcomes of a detector measurement.

    i_b and i_b_perp share the normalization of their sum i_sum, the
    unconditioned pattern; ``conditional_patterns`` says what each
    integrates to.
    """

    __slots__ = _fields = ("i_b", "i_b_perp", "i_sum")

    def __init__(self, i_b: PatternSamples, i_b_perp: PatternSamples, i_sum: PatternSamples):
        init_field(self, "i_b", i_b)
        init_field(self, "i_b_perp", i_b_perp)
        init_field(self, "i_sum", i_sum)


def fringe_width(geom: Geometry) -> float:
    """Spacing of neighbouring fringes:
    wavelength*L/d + 16 pi^2 eps^4 / (wavelength*d*L).

    Raises NumericFailure unless the width is a finite positive float.
    """
    lam, d, dist, eps = geom.wavelength, geom.slit_sep, geom.screen_dist, geom.packet_width
    try:
        width = lam * dist / d + 16.0 * math.pi**2 * eps**4 / (lam * d * dist)
    except (OverflowError, ZeroDivisionError):  # eps**4 overflows, or lam*d*L underflows
        width = math.inf
    if not (math.isfinite(width) and width > 0.0):
        raise NumericFailure(f"fringe width {width!r} m is outside the float range")
    return width


#: Points of a default grid.
DEFAULT_POINTS = 8192


@lru_cache(maxsize=1)
def default_grid(geom: Geometry, n_points: int = DEFAULT_POINTS) -> ScreenGrid:
    """Centered grid spanning +-5 fringe widths.

    Wide enough to hold >= 10 oscillation periods for stable visibility
    extraction, fine enough to satisfy the fringe-resolution guard.  A call
    that repeats the previous call's arguments returns the same grid.  The
    cache holds that one grid, its positions and weights (128 KiB at 8192
    points), until a call with other arguments; ``_packets`` keeps the last
    packets (256 KiB) the same way and ``_which_way_sum`` their last
    which-way sum (64 KiB), so a loop over detector states on one geometry
    evolves the packets and sums their moduli once.
    Raises NumericFailure when the span or the spacing the geometry implies
    is not a normal float, and ValidationError for a bad n_points.
    """
    n_points = point_count(n_points)
    half_span = 5.0 * fringe_width(geom)
    spacing = 2.0 * half_span / (n_points - 1)
    if not SMALLEST_NORMAL <= spacing < math.inf:
        raise NumericFailure(
            f"default grid of +-{half_span!r} m over {n_points} points has spacing "
            f"{spacing!r} m, not a normal float"
        )
    return ScreenGrid(-half_span, half_span, n_points)


def _eval_checked(x, fn, count, scratch):
    """fn through _blockwise at a position or an array of them: floats for
    a position, arrays for an array."""
    outs = _blockwise(fn, (np.atleast_1d(np.asarray(x, dtype=float)),), count, scratch)
    if np.ndim(x) == 0:
        return float(outs[0][0]) if count == 1 else tuple(float(o[0]) for o in outs)
    return outs[0] if count == 1 else tuple(outs)


def _blockwise(fn, arrays, count, scratch):
    """count fresh arrays shaped like arrays[0], which fn fills _BLOCK points
    at a time.

    fn(ins, outs, work) writes an elementwise map of the blocks ins of the
    arrays into the blocks outs of the outputs, with out= and in place.
    work holds ``scratch`` arrays shaped like the block, allocated once per
    call and reused by every block, so the call holds its outputs and one
    block's scratch, never a grid-sized temporary, and every value equals
    that of one block of all the points.  Up to _BLOCK points the call is
    that one block.  The arrays are cut along their first axis: a block of
    a 2-D array is a run of its rows.  An empty input is one empty block,
    so fn still raises what it raises.  Values that leave the float range
    come out non-finite without a warning, under the call's one np.errstate;
    normalization refuses them.
    """
    shape = arrays[0].shape
    n = shape[0]
    outs = [np.empty(shape) for _ in range(count)]
    work = np.empty((scratch, min(n, _BLOCK)) + shape[1:])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n <= _BLOCK:
            fn(arrays, outs, work)
        else:
            for lo in range(0, n, _BLOCK):
                hi = min(n, lo + _BLOCK)
                fn([a[lo:hi] for a in arrays], [o[lo:hi] for o in outs], work[:, :hi - lo])
    return outs


class BranchPackets(Record, eq=False):
    """What the screen intensity needs of both evolved packets on one grid.

    mod1 = |g1|^2, mod2 = |g2|^2, and cross_re, cross_im the real and
    imaginary parts of conj(g1) g2; g1 is centered at +slit_sep/2 (the branch
    tied to detector state d1), g2 at -slit_sep/2.  The record sets all four
    arrays read-only, and a pickled or copied record's arrays are read-only
    too.
    """

    __slots__ = _fields = ("mod1", "mod2", "cross_re", "cross_im")

    def __init__(self, mod1: np.ndarray, mod2: np.ndarray, cross_re: np.ndarray,
                 cross_im: np.ndarray):
        init_field(self, "mod1", _read_only(mod1))
        init_field(self, "mod2", _read_only(mod2))
        init_field(self, "cross_re", _read_only(cross_re))
        init_field(self, "cross_im", _read_only(cross_im))

    def __reduce__(self):
        # rebuilt through __init__, so a copy's arrays are read-only too
        return BranchPackets, (self.mod1, self.mod2, self.cross_re, self.cross_im)


def _packet_constants(geom: Geometry) -> tuple[float, float, float, float, float]:
    """(c1, c2, Im(q) (c2 - c1) / 2, -Re(q), |A_t|^2) for ``_write_packets``:
    the packets' centers and, with q = 1/beta, their phase and decay rates
    and squared prefactor.  Raises NumericFailure when beta underflows to 0.
    """
    prefactor, beta = evolution_constants(geom.packet_width, effective_tau(geom))
    if beta == 0:
        raise NumericFailure("the evolved packets' beta underflows to 0 for this geometry")
    c1, c2 = +0.5 * geom.slit_sep, -0.5 * geom.slit_sep
    q = 1.0 / beta
    return c1, c2, 0.5 * q.imag * (c2 - c1), -q.real, abs(prefactor) ** 2


def _write_packets(xs, packets, den, constants):
    """The packets g_j = A_t exp(-(x - c_j)^2 / beta) at xs, in real
    arithmetic, written into packets = (mod1, mod2, cross_re, cross_im)
    with den as scratch; constants are ``_packet_constants``.

    With q = 1/beta and u_j = (x - c_j)^2:
    |g_j|^2 = |A_t|^2 exp(-2 Re(q) u_j) and
    conj(g1) g2 = |A_t|^2 exp(-Re(q) (u1 + u2)) exp(i Im(q) (u1 - u2)).
    The phase phi = Im(q) (u1 - u2) takes u1 - u2 = (c2 - c1) 2x (c1 + c2 is
    exactly 0), a form that does not cancel far from the slits.  Its cos and
    sin come from one t = tan(phi/2), as (1 - t^2)/(1 + t^2) and
    2t/(1 + t^2): NumPy runs float64 tan in a SIMD loop but cos and sin in
    scalar ones.  phi/2 is exact, the 0.5 being folded into the phase
    constant, and the form is within about 2e-16 of np.cos and np.sin,
    absolute.  Near the zeros of cos it is not as accurate relative to the
    value, which is why the closed form keeps np.cos.
    """
    c1, c2, half_phase, decay, amp2 = constants
    mod1, mod2, cross_re, cross_im = packets
    t = np.multiply(xs, 2.0, out=cross_im)  # phi/2, then its tan
    t *= half_phase
    np.tan(t, out=t)
    np.subtract(xs, c1, out=mod1)
    mod1 *= mod1
    np.subtract(xs, c2, out=mod2)
    mod2 *= mod2
    for u in (mod1, mod2):  # u_j becomes exp(-Re(q) u_j)
        u *= decay
        np.exp(u, out=u)
    np.multiply(t, t, out=cross_re)  # cos = (1 - t^2) / (1 + t^2)
    np.add(cross_re, 1.0, out=den)
    np.subtract(1.0, cross_re, out=cross_re)
    cross_re /= den
    t *= 2.0  # sin = 2 t / (1 + t^2)
    t /= den
    mag = np.multiply(mod1, mod2, out=den)
    mag *= amp2
    cross_re *= mag
    cross_im *= mag
    for e in (mod1, mod2):  # exp(-Re(q) u_j) becomes |g_j|^2
        e *= e
        e *= amp2


def _evolve(xs: np.ndarray, geom: Geometry) -> BranchPackets:
    """Both branch packets of ``geom`` at xs (see ``_write_packets``), as
    read-only arrays.  Raises NumericFailure when beta underflows to 0."""
    constants = _packet_constants(geom)
    arrays = _blockwise(lambda ins, outs, work: _write_packets(ins[0], outs, work[0], constants),
                        (xs,), 4, 1)
    return BranchPackets(*arrays)


@lru_cache(maxsize=1)
def _packets(grid: ScreenGrid, geom: Geometry) -> BranchPackets:
    """Both branch packets of ``geom`` evolved onto ``grid``.  The packets of
    the last grid and geometry asked for are kept, so patterns for many
    detector states on one grid and geometry evolve them once."""
    return _evolve(grid.xs(), geom)


@lru_cache(maxsize=1)
def _which_way_sum(packets: BranchPackets, w1: float, w2: float) -> np.ndarray:
    """w1 |g1|^2 + w2 |g2|^2 of packets, read-only.  The sum for the last
    arguments is kept, keyed on the packets' identity: ``_packets`` hands
    out one object while it keeps them, so an overlap or phase sweep sums
    the moduli once."""
    return _read_only(_combine(packets, [(w1, w2, None)])[0])


def _write_combine(out, packets, state, tmp, kept_sum=None):
    """2 (P + 2 Re(c conj(g1) g2)) into out, with tmp as scratch, where
    packets are (mod1, mod2, cross_re, cross_im), (w1, w2, c) is the path
    state and P = w1 |g1|^2 + w2 |g2|^2 the packets' which-way sum; P itself
    when c is None.  A kept_sum, which must be that P and comes with a c, is
    added to the cross term's real part, which gives the bits of adding that
    part to P, as addition commutes."""
    mod1, mod2, cross_re, cross_im = packets
    w1, w2, c = state
    if kept_sum is not None:
        np.multiply(2.0 * c.real, cross_re, out=out)
        out += kept_sum
    else:
        np.multiply(w1, mod1, out=out)
        out += np.multiply(w2, mod2, out=tmp)
        if c is None:
            return
        out += np.multiply(2.0 * c.real, cross_re, out=tmp)
    out -= np.multiply(2.0 * c.imag, cross_im, out=tmp)
    out *= 2.0


def _combine(packets: BranchPackets, states, kept_sum: np.ndarray | None = None) -> list:
    """For each path state (w1, w2, c) of states, 2 (P + 2 Re(c conj(g1) g2))
    as a fresh array, where P = w1 |g1|^2 + w2 |g2|^2 is the packets'
    which-way sum; P itself when c is None (see ``_write_combine``).  One
    pass over the packets combines every state.  A kept_sum, which must be
    that P and comes with one state with a c, is added to the cross term
    instead of combining P."""
    arrays = [packets.mod1, packets.mod2, packets.cross_re, packets.cross_im]
    if kept_sum is not None:
        arrays.append(kept_sum)

    def block(ins, outs, work):
        for out, state in zip(outs, states):
            _write_combine(out, ins[:4], state, work[0], *ins[4:])

    return _blockwise(block, arrays, len(states), 1)


def intensity_direct(x, js: JointState):
    """Screen intensity via the four-term amplitude expansion.

    The packets' |g1|^2, |g2|^2 and conj(g1) g2, in real arithmetic, weighted
    by ``js.path_state()``.  x is a position, an array of them, or a
    ScreenGrid: on a grid it reads ``_packets`` and ``_which_way_sum``, so
    calls for many detector states on one grid, geometry and path weights
    evolve the packets and sum their moduli once.  On positions the packets
    are evolved into one block's scratch and combined from there into the
    output, block by block, and never held for all the points.
    """
    geom = js.geom
    state = js.path_state()
    if isinstance(x, ScreenGrid):
        packets = _packets(x, geom)
        return _combine(packets, [state], _which_way_sum(packets, *state[:2]))[0]
    constants = _packet_constants(geom)

    def block(ins, outs, work):
        packets, tmp = work[:4], work[4]
        _write_packets(ins[0], packets, tmp, constants)
        _write_combine(outs[0], packets, state, tmp)

    return _eval_checked(x, block, 1, 5)


def intensity_closed_form(x, js: JointState):
    """Screen intensity via the closed form on the path state
    ``js.path_state()``: the Gaussian hump sum plus the cosine cross term
    (see ``_closed_parts``).  It reads no packet and no detector state."""
    spread, state = _spread(js.geom), js.path_state()

    def block(ins, outs, work):  # the envelope in the output, then the sum
        envelope, interference = _closed_parts(ins[0], spread, state, (outs[0], *work))
        envelope += interference

    return _eval_checked(x, block, 1, 2)


def closed_form_parts(x, js: JointState):
    """(envelope, interference) decomposition of the closed-form intensity.

    The envelope is the which-way hump sum; the interference term carries
    the cosine weighted by the path state's coherence.
    envelope + interference == closed form.
    """
    spread, state = _spread(js.geom), js.path_state()
    return _eval_checked(
        x, lambda ins, outs, work: _closed_parts(ins[0], spread, state, (*outs, work[0])), 2, 1)


def _spread(geom: Geometry) -> tuple[float, float, float, float]:
    """(d, sigma^2, kappa, 1/sqrt(2 pi sigma^2)) of the closed form for
    ``geom`` (see ``_closed_parts``), d being the slit separation.  Raises
    NumericFailure when they leave the float range."""
    eps, tau = geom.packet_width, effective_tau(geom)
    try:
        sig2 = eps * eps + (tau / (2.0 * eps)) ** 2
        kap = geom.slit_sep * tau / (4.0 * eps**4 + tau * tau)
        pref = 1.0 / math.sqrt(2.0 * math.pi * sig2)
    except OverflowError:  # a float power past the float range raises
        raise NumericFailure("the closed form's spread overflows for this geometry") from None
    except ZeroDivisionError:  # and so does a division by a float that underflows to 0
        raise NumericFailure("the closed form's spread underflows for this geometry") from None
    return geom.slit_sep, sig2, kap, pref


def _closed_parts(xs: np.ndarray, spread: tuple[float, float, float, float],
                  state: tuple[float, float, complex], out):
    """The closed form's envelope and interference term at positions xs for
    the path state (w1, w2, c), from the free Gaussian alone, written into
    out, arrays (envelope, interference, scratch) shaped like xs; spread is
    ``_spread`` of the geometry.

    A packet of width eps leaving the slit at c_j spreads, over the
    evolution tau, into psi_j = N exp(-(x - c_j)^2 / (4 eps^2 + 2i tau)).
    Splitting 1/(4 eps^2 + 2i tau) = 1/(4 sigma^2) - i kappa/(2d), with
    sigma^2 = eps^2 + (tau/2eps)^2 and kappa = d tau / (4 eps^4 + tau^2),
    psi_j = N exp(-(x - c_j)^2 / 4 sigma^2) exp(+i kappa (x - c_j)^2 / 2d),
    with one N for both packets; |N|^2 = 1/sqrt(2 pi sigma^2) makes each
    |psi_j|^2 integrate to 1.
    The joint state a1 psi_1 |d1> + a2 psi_2 |d2> shows the screen
    |a1 psi_1|^2 + |a2 psi_2|^2 + 2 Re(conj(a1) a2 <d1|d2> conj(psi_1) psi_2),
    which is w1 |psi_1|^2 + w2 |psi_2|^2 + 2 Re(c conj(psi_1) psi_2) with
    (w1, w2, c) the path state; a detector outcome conditions the same
    expression through its own (w1, w2, c).  With c_1 = +d/2, c_2 = -d/2
    and (x -+ d/2)^2 = x^2 + d^2/4 -+ x d:

    - |psi_1,2|^2 = gauss e^{+-x d / 2 sigma^2}, where
      gauss = exp(-(x^2 + d^2/4) / 2 sigma^2) / sqrt(2 pi sigma^2), and
      |psi_1| |psi_2| = gauss;
    - conj(psi_1) psi_2 has the phase
      kappa ((x + d/2)^2 - (x - d/2)^2) / 2d = +kappa x, N's phase
      cancelling; c multiplies this product, whose conjugated packet is
      the one at +d/2, so arg c adds to kappa x.

    So envelope = gauss (w1 e^{+x d/2 sigma^2} + w2 e^{-x d/2 sigma^2}) and
    interference = 2 Re(c gauss e^{i kappa x}) = gauss 2|c| cos(kappa x + arg c).
    Their sum is the direct route's raw pattern, whose packets carry
    |A_t|^2 = |N|^2 / 2 and which doubles its sum.  For equal path
    amplitudes and a pure detector pair, w1 = w2 = 1/2 and
    c = <d1|d2>/2 = (s/2) e^{-i theta}, theta being arg<d2|d1>, so
    envelope = gauss cosh(x d / 2 sigma^2) and
    interference = gauss s cos(kappa x - theta).

    e^{-x d/2 sigma^2} is taken as 1/e^{+x d/2 sigma^2}.  Where
    e^{+x d/2 sigma^2} overflows or underflows, gauss underflows too, and
    the envelope comes out inf or NaN, which normalization refuses.
    """
    w1, w2, c = state
    slit_sep, sig2, kap, pref = spread
    envelope, interference, gauss = out
    np.multiply(xs, xs, out=gauss)
    gauss += 0.25 * slit_sep * slit_sep
    gauss *= -0.5 / sig2
    np.exp(gauss, out=gauss)
    gauss *= pref
    grow = np.multiply(xs, 0.5 * slit_sep / sig2, out=interference)  # e^{+x d / 2 sigma^2}
    np.exp(grow, out=grow)
    np.divide(w2, grow, out=envelope)
    envelope += np.multiply(grow, w1, out=grow)
    envelope *= gauss
    np.multiply(xs, kap, out=interference)
    interference += cmath.phase(c)
    np.cos(interference, out=interference)
    interference *= 2.0 * abs(c)
    interference *= gauss
    return envelope, interference


def _check_fringe_resolution(grid: ScreenGrid, geom: Geometry):
    """Refuse grids too coarse to resolve the fringes (spacing > fringe width / 8)."""
    w = fringe_width(geom)
    if grid.spacing() > w / 8.0:
        raise ValidationError(
            f"grid spacing {grid.spacing():g} m cannot resolve fringes of width "
            f"{w:g} m (need spacing <= w/8); refusing to alias"
        )


def _clamp_and_normalize(weights: np.ndarray, branches):
    """Clamp rounding residue and normalize to unit integral, in place.

    Each branch is an unnormalized intensity on the grid whose trapezoid
    weights are ``weights``.  Negative values are rounding residue and are
    set to 0 down to the floor CLAMP_FLOOR m, where m is the larger of 1 and
    the largest raw value of any branch: the residue scales with the values
    that cancel.  Non-finite values or anything below the floor raise
    NumericFailure.  Every branch is divided by the trapezoid integral of the
    branches' sum.  The branches are changed in place, so callers pass arrays
    of their own.  Returns them in order, then that integral.
    """
    for raw in branches:
        # NaN and -inf show in the minimum, +inf in the maximum
        low = raw.min()
        if not (math.isfinite(low) and math.isfinite(raw.max())):
            raise NumericFailure("non-finite intensity values on the grid")
        if low < CLAMP_FLOOR:
            # the relative floor needs the largest value of all the branches
            floor = CLAMP_FLOOR * max(1.0, *(float(b.max()) for b in branches))
            if low < floor:
                raise NumericFailure(
                    f"intensity {float(low)!r} below the clamp floor {floor!r}; "
                    "this is a bug, not rounding"
                )
        if low < 0.0:  # -0.0 is not below 0 and stays
            raw[raw < 0.0] = 0.0
    total = float(weights @ reduce(np.add, branches))
    if not (math.isfinite(total) and total > 0.0):
        raise NumericFailure(f"pattern integral {total!r} is not a positive number")
    for arr in branches:
        arr /= total
    return (*branches, total)


def pattern_on_grid(grid: ScreenGrid, js: JointState) -> PatternSamples:
    """Evaluate the screen pattern on a grid by the direct route and normalize
    it to unit integral.

    Grids too coarse to resolve the fringes are rejected whenever the
    detector overlap is nonzero (aliased fringes silently corrupt visibility
    estimates).  The samples' reference is the packets the pattern was
    combined from, with its path weights.
    """
    if js.pair.overlap_mag > 0.0:
        _check_fringe_resolution(grid, js.geom)
    intensity, total = _clamp_and_normalize(grid._weights, [intensity_direct(grid, js)])
    reference = (_packets(grid, js.geom), *js.path_state()[:2])  # the packets just combined
    return PatternSamples(grid, intensity, total, reference)


def closed_form_on_grid(grid: ScreenGrid,
                        js: JointState) -> tuple[PatternSamples, np.ndarray, np.ndarray]:
    """(samples, envelope, interference): the closed form's pattern on a grid,
    normalized to unit integral, and its two parts divided by the same
    integral, from one evaluation of the closed form.  The envelope is
    read-only: it is the samples' which-way reference.

    The grid is checked as ``pattern_on_grid`` checks it, before anything is
    evaluated.
    """
    if js.pair.overlap_mag > 0.0:
        _check_fringe_resolution(grid, js.geom)
    envelope, interference = closed_form_parts(grid.xs(), js)
    intensity, total = _clamp_and_normalize(grid._weights, [envelope + interference])
    envelope /= total
    interference /= total
    samples = PatternSamples(grid, intensity, total, envelope)  # which sets it read-only
    return samples, envelope, interference


def conditional_patterns(grid: ScreenGrid, js: JointState, basis: MeasurementBasis) -> EraserResult:
    """Patterns conditioned on each outcome of a detector-basis measurement.

    The two branches share one normalization constant (the one that makes
    their sum integrate to 1), so i_b + i_b_perp reproduces the unconditioned
    pattern pointwise.  A branch with the path state (w1(b), w2(b), c(b))
    given its outcome b integrates, over a grid that holds both packets, to
    (w1(b) + w2(b) + 2 Re c(b) o) / (w1 + w2 + 2 Re c o), where (w1, w2, c)
    is the unconditioned path state and o = exp(-d^2 / 8 eps^2) the packets'
    overlap at the slits.  That is w1(b) + w2(b), the outcome weight the
    eraser observable reads, only when the packets do not overlap there.
    """
    _check_fringe_resolution(grid, js.geom)
    packets = _packets(grid, js.geom)
    states = [js.path_state(b) for b in (basis.b1, basis.b2)]  # given each outcome
    i_b, i_p, total = _clamp_and_normalize(grid._weights, _combine(packets, states))
    return EraserResult(
        i_b=PatternSamples(grid, i_b, total, (packets, *states[0][:2])),
        i_b_perp=PatternSamples(grid, i_p, total, (packets, *states[1][:2])),
        i_sum=PatternSamples(grid, i_b + i_p, total, (packets, *js.path_state()[:2])),
    )
