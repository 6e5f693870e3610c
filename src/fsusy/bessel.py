"""High-precision cylinder functions: certified series and tilted contours.

The numeric layer needs the decaying Macdonald function K_nu and the two
Hankel functions H1/H2 at real order and positive real argument.  Nothing
here trusts a library implementation of them.

`bessel_eval` returns K and H1 from their ascending series: each term of
I_nu and J_nu is one seed (x/2)^nu/Gamma(nu+2) times a coefficient c_k
whose ratios are ratios of integers at exact order and argument, so the
sums of the c_k run in fixed point on Python integers, one truncation
and one counted unit of error a step, each closed by a geometric bound
on its tail, and become intervals once, multiplied by the enclosed seed:
raw libmpi tuples (lo, hi) at the precision each call is handed, built
by the calls mpmath's interval context makes for the same expressions,
with no global interval state.  K and Y follow by the reflection
formulas at non-integer order (DLMF 10.27.4, 10.4.7) and by the digamma
series at integer order, with psi(k+1) = H_k - euler.  Every rounding
and every input is enclosed, so the box around the result is a
certified error bound that widens by itself where sin(nu pi) cancels
near an integer order.  At real order and argument H2 = conj(H1) (DLMF
10.11), so H2 is the exact conjugate of H1.  mpmath supplies only the
arithmetic and elementary calls (power, gamma, log, sin, cos, and the
fixed-point exp and cos/sin basecases behind them); its own Bessel
implementations are never imported here.

One precision policy, `_certified`, turns a box into a value, for
`bessel_eval` and for every kernel value: it sizes the working precision
from the relative target, retries once with the bits the first run
lost, and reports the box's radius as the error bound, which the target
check reads directly.

The tilted contour integrals are the kernels' independent integral
route: the Hankel cosh kernel on u(t) = t + i theta tanh(t), theta =
0.35 pi,

    H1_nu(x) = exp(-i nu pi/2)/(pi i) * integral exp(i x cosh u + nu u) du,

and its sinh companion on the constant tilt theta = pi/2, where the
integrand is the real exp(-x cosh t + nu t) times the constant
exp(i nu pi/2) (DLMF 10.32.9).  There the oscillation turns into
double-exponential decay, and the integrand stays analytic and decaying
in a strip |Im t| < a around the real axis, so the plain trapezoid rule
converges geometrically.  Each family states its tilt and strip next to
its contour function.  One pass of nodes runs at a step fixed beforehand
by the strip bound 2M/(exp(2 pi a/h) - 1) (Trefethen and Weideman 2014)
and to a cutoff fixed by an analytic tail bound, and the returned error
is the sum of three stated terms: discretisation, tail and rounding.
Both contours share that engine, run at phase +1 only, and sum each
trapezoid node pair +-t from one evaluation, which the engine hands
exp(kh) and exp(|nu| kh), each one multiplication from the node before.
The nodes run below the mpf layer, on integers at the binary point
w = mp.prec with mpmath's fixed-point exp and cos/sin basecases
(Johansson, ARITH 2015), so the rounding term counts absolute units of
2^-w; the sums are exact and become mpf once.  The set-up that fixes
the step and cutoff runs in binary64 on logarithms, padded outward.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_euler,
    mpf_le,
    mpi_abs,
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_gamma,
    mpi_log,
    mpi_mid,
    mpi_mul,
    mpi_pow,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
)
from mpmath.libmp.libelefun import cos_sin_basecase, exp_basecase, ln2_fixed, pi_fixed
from mpmath.libmp.libmpi import mpi_pi

__all__ = [
    "ComplexValue",
    "PrecisionError",
    "bessel_eval",
]

KINDS = ("K", "H1", "H2")

# orders are kept inside the open interval (-2, 2); the artifact never
# needs more and the series bookkeeping below assumes it
ORDER_LIMIT = 2


class PrecisionError(ArithmeticError):
    """The requested relative error could not be certified.

    `achieved` carries the bound that was reached, so callers can decide
    whether to retry at higher working precision.
    """

    def __init__(self, message: str, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class ComplexValue:
    """A complex number with an attached upper bound on its absolute error."""

    re: mp.mpf
    im: mp.mpf
    err_estimate: mp.mpf

    def to_mpc(self) -> mp.mpc:
        # construct above the parts' own mantissa widths so the ambient
        # context cannot round them away
        bits = max(mp.mp.prec, self.re._mpf_[3], self.im._mpf_[3]) + 8
        with mp.workprec(bits):
            return mp.mpc(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def abs(self) -> mp.mpf:
        return mp.sqrt(self.re * self.re + self.im * self.im)

    def rel_err(self) -> mp.mpf:
        scale = self.abs()
        if scale == 0:
            return mp.inf if self.err_estimate > 0 else mp.mpf(0)
        return self.err_estimate / scale

    def pretty(self) -> str:
        return "(%s %s %si) +- %s" % (
            mp.nstr(self.re, 20),
            "+" if self.im >= 0 else "-",
            mp.nstr(abs(self.im), 20),
            mp.nstr(self.err_estimate, 3),
        )


# -- trapezoid engine --
#
# Both contours run the full-line trapezoid rule h * sum_{|k| <= N} f(kh)
# in one pass, at a step and cutoff fixed before any node is evaluated.
# The set-up runs in binary64 and carries each exponential as its
# logarithm, so nothing overflows or underflows at any target; each upper
# bound it returns is widened by _PAD and each lower bound narrowed by it,
# far above the rounding of the few hundred operations behind them.  The
# nodes run in fixed point: integers at the binary point w = mp.prec, the
# elementary functions from mpmath's fixed-point basecases with the guard
# bits mpf_exp and mpf_cos_sin use, the sums exact, and one conversion to
# mpf after the pass.  The error is the sum of three stated terms:
#
#   discretisation  2M/(exp(2 pi a/h) - 1), where f is analytic in the strip
#                   |Im t| < a and integral |f(t + iy)| dt <= M there
#                   (Trefethen and Weideman, "The exponentially convergent
#                   trapezoidal rule", SIAM Review 56 (2014), Thm 5.1);
#   tail            h * sum_{|k| > N} |f(kh)|, at most the integral of a
#                   falling envelope of |f| beyond the cutoff T = Nh;
#   rounding        absolute, in units of 2^-w, times h: per node pair, 2
#                   units for its last truncation to the grid, and per
#                   unit of |f(t)| + |f(-t)| at node k,
#                   - 20 units for the pair's own arithmetic: under 1 per
#                     truncation and at most 2 per basecase result;
#                   - 4k units for the k products behind e^(growth*kh),
#                     each under 4 with its factor's own rounding;
#                   - 4k + 8 units of shift weighted by the phase
#                     sensitivity |f'/f| <= du*(x cosh t + 3), |u'| <= du
#                     on the contour: 4k from the products behind e^(kh),
#                     which move t, and 8 from the rounding of the phase.
#                   Terms of second order in 2^-w are far inside _PAD.
#
# The absolute target eps splits as eps/2 to the discretisation, which
# sizes h, eps/4 to the tail, which sizes T, and the rest to rounding.

# widening of the bound terms, far above the rounding of the few
# operations that compute them
_PAD = 1 + 2.0**-30
_LOG_PAD = math.log1p(2.0**-30)
_LOG2 = math.log(2)

# guard bits of the fixed-point basecases, as mpf_exp and mpf_cos_sin
# take them
_EXP_GUARD = 14
_COS_GUARD = 10


def _log(value):
    """log of a positive mpf in binary64, at any exponent."""
    _, man, exp, _ = mp.mpf(value)._mpf_
    return math.log(man) + exp * _LOG2


def _log_add(*logs):
    """log(sum(exp(v) for v in logs)) without overflow or underflow."""
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _dyadic(value):
    """(m, s) with value = m * 2^-s exactly, s >= 0, for a value `_exact`
    reads: so value * n rounds down to the integer m * n >> s."""
    v = _exact(value)
    return v.numerator, v.denominator.bit_length() - 1


def _exp_fixed(y, w):
    """exp(y * 2^-w) for an integer y as (m, q) with exp = m * 2^(q - w):
    q = floor(y 2^-w / ln 2) and m in [2^w, 2^(w+1)] within 2 units of
    2^w * exp of the rest, so m * 2^q carries a relative error of at most
    2 units; a caller that shifts right by -q loses under one unit more,
    and a value below one unit underflows to 0."""
    wg = w + _EXP_GUARD
    q, r = divmod(y << _EXP_GUARD, ln2_fixed(wg))
    return exp_basecase(r, wg) >> _EXP_GUARD, q


def _cos_sin_fixed(z, w):
    """(cos, sin) of z * 2^-(w + _COS_GUARD) >= 0 as integers at w bits,
    each within 2 units.  The argument is reduced by quadrants of pi/2
    held to _COS_GUARD more bits, so quadrant q shifts it by at most
    q * 2^-(2 _COS_GUARD) units: under a fifth of a unit for phases
    below 2^18."""
    wg = w + _COS_GUARD
    q, r = divmod(z << _COS_GUARD, pi_fixed(wg + _COS_GUARD) >> 1)
    c, s = cos_sin_basecase(r >> _COS_GUARD, wg)
    q &= 3
    if q:
        c, s = ((-s, c), (-c, -s), (s, -c))[q - 1]
    return c >> _COS_GUARD, s >> _COS_GUARD


def _cosh_tail(c, b, start):
    """log of a bound on integral_start^inf exp(-c cosh v + b v) dv, for
    c > 0 and start >= 0, in binary64 and widened by _PAD.

    Up to v1, where the exponent's slope c sinh v - b reaches 1,
    cosh v >= cosh(start) bounds the integrand by exp(-c cosh(start) + b v);
    from v1 on, convexity puts cosh v above its tangent line at v1."""
    v1 = max(start, math.asinh((b + 1) / c))
    far = b * v1 - c * math.cosh(v1) - math.log(c * math.sinh(v1) - b)
    width = v1 - start
    if not width:
        return far + _LOG_PAD
    rise = math.expm1(b * width) / b if b else width
    return _log_add(b * start - c * math.cosh(start) + math.log(rise), far) + _LOG_PAD


def _tail_cutoff(decay_scale, growth, log_spread, start, log_share):
    """The cutoff T >= start past which both tails of the envelope
    exp(log_spread - decay_scale*cosh t + growth*|t|) hold at most
    exp(log_share), in binary64.

    T also lies where the envelope falls with slope at least 1, so each
    node past T weighs less than the envelope's integral over the step
    before it.  Four rounds of the fixed point
    T = acosh((log(2*spread/share) + growth*T - log(slope))/decay_scale)
    settle on the edge to rounding; steps of 2^-10 T take up that rounding."""
    c, b = decay_scale, growth
    t = start = max(start, math.asinh((b + 1) / c))
    log_target = _LOG2 + log_spread - log_share
    for _ in range(4):
        inner = (log_target + b * t - math.log(c * math.sinh(t) - b)) / c
        t = max(start, math.acosh(max(1, inner)))
    while _LOG2 + log_spread + _cosh_tail(c, b, t) > log_share:
        t += t / 1024
    return t


def _trapezoid_rule(pair, growth, strip, log_mass, cutoff, eps_abs, sensitivity):
    """One pass of the full-line trapezoid rule h * sum_{|k| <= N} f(kh)
    at w = mp.prec fixed-point bits, for f analytic in the strip |Im t| <
    strip, where integral |f(t + iy)| dt <= exp(log_mass): h is the widest
    step on the grid 2^-w that divides the cutoff within a grid unit and
    keeps the discretisation term 2*mass/(exp(2*pi*strip/h) - 1) within
    eps_abs.  Raises ArithmeticError if f fails to decay at the cutoff
    (wrong tilt for the data).

    Returns (value, size, terms): size is h * sum of the node pairs'
    bounds, over |f| at the nodes taken, and terms records the "cutoff"
    N*h, the "step" h, the "node_pairs" N + 1, the "strip", the
    "discretisation" term and the "rounding" term, for an integrand with
    |f'/f| <= du*(arg*cosh t + 3), sensitivity = (arg, du).

    The integrand arrives as its node pair, on integers at w bits:
    pair(t, e, g) at t = kh >= 0 returns f(t) + f(-t) as (re, im) and an
    upper bound on |f(t)| + |f(-t)|, where e = exp(t) and g =
    exp(growth*t) are each one multiplication from the node before, so a
    node costs no exp of the engine's own.  The rule sums f(0) +
    sum_{k=1..N} (f(kh) + f(-kh)): the full-line rule's nodes and sums,
    with one pair evaluation per two nodes."""
    w = mp.mp.prec
    ratio = _LOG2 + log_mass - _log(eps_abs)
    # log1p(exp(ratio)), the log of 1 + 2*mass/eps_abs
    log_1p = max(ratio, 0) + math.log1p(math.exp(-abs(ratio)))
    n = math.ceil(cutoff * log_1p / (2 * math.pi * strip))
    num, den = (cutoff / n).as_integer_ratio()
    step = (num << w) // den
    m, q = _exp_fixed(step, w)
    e_step = m << q
    num, shift = _dyadic(growth)
    m, q = _exp_fixed(num * step >> shift, w)
    g_step = m << q
    one = e = g = 1 << w
    re0, im0, head = pair(0, e, g)
    re = im = 0
    # the rounding's moments over the pairs' bounds: sum of bound, of
    # k*bound, and of both again times e^t + 1 >= 2 cosh t
    moments = [head, 0, 2 * head << w, 0]
    bound = head
    for k in range(1, n + 1):
        e = e * e_step >> w
        g = g * g_step >> w
        value, part, bound = pair(k * step, e, g)
        re += value
        im += part
        weighted = bound * (e + one)
        moments[0] += bound
        moments[1] += k * bound
        moments[2] += weighted
        moments[3] += k * weighted
    # the last pair, at the cutoff, must have fallen far below the first
    if not bound < (head >> 1) // 500000 + int(mp.ldexp(eps_abs, w)):
        raise ArithmeticError("tilted integrand fails to decay at the cutoff")
    # the t = 0 pair is the one node f(0) = f(-0), counted twice
    scale = -2 * w - 1
    value = mp.mpc(mp.ldexp((re0 + 2 * re) * step, scale), mp.ldexp((im0 + 2 * im) * step, scale))
    h = mp.ldexp(step, -w)
    z = 2 * math.pi * strip / float(h)
    # log of expm1(z), the discretisation's denominator
    log_den = z + math.log(-math.expm1(-z))
    # units of 2^-w (see above): per unit of a pair's bound at node k,
    # 20 + 4k for its arithmetic and growth products, and 4k + 8 of shift
    # weighted by du*(arg*cosh t + 3); per node pair, its last truncation
    arg, du = sensitivity
    plain, ramp, weighted, weighted_ramp = moments
    shifts = mp.mpf(4 * ramp + 8 * plain)
    relative = mp.mpf(20 * plain + 4 * ramp) + du * (
        3 * shifts + arg * mp.ldexp(4 * weighted_ramp + 8 * weighted, -w - 1)
    )
    units = mp.ldexp(relative, -w) + 2 * (n + 1)
    terms = {
        "cutoff": n * h,
        "step": h,
        "node_pairs": n + 1,
        "strip": strip,
        "discretisation": mp.exp(_LOG2 + log_mass - log_den + _LOG_PAD),
        "rounding": mp.ldexp(_PAD * h * units, -w),
    }
    return value, mp.ldexp((2 * plain - head) * step, scale), terms


def _tilted_quadrature(pair, bounds, strip, eps_abs):
    """integral of f over the real line for an analytic integrand on a
    tilted contour: `_trapezoid_rule` in the strip |Im t| < strip,
    truncated at the shortest cutoff whose tails stay within eps_abs/4,
    with the discretisation term held within eps_abs/2.  Returns (value,
    error_bound, terms); the bound is the sum of terms' "discretisation",
    "tail" and "rounding" (see above), and terms also records the
    cutoff, step, node pairs and strip.  Raises ArithmeticError if f
    fails to decay at the cutoff.

    bounds = (arg, du, decay_scale, growth, log_spread, start, log_mass)
    states what is known of f, all in binary64 but the exact growth:
    |f'/f| <= du*(arg*cosh t + 3); the envelope |f(t)| <=
    exp(log_spread - decay_scale*cosh t + growth*|t|) for |t| >= start;
    and integral |f(t + iy)| dt <= exp(log_mass) in the strip."""
    arg, du, decay_scale, growth, log_spread, start, log_mass = bounds
    b = float(growth)
    share = _log(eps_abs) - 2 * _LOG2
    cutoff = _tail_cutoff(decay_scale, b, log_spread, start, share)
    value, _, terms = _trapezoid_rule(
        pair, growth, strip, log_mass, cutoff, eps_abs / 2, (arg, du)
    )
    cutoff = float(terms["cutoff"])
    terms["tail"] = mp.exp(_LOG2 + log_spread + _cosh_tail(decay_scale, b, cutoff))
    return value, terms["discretisation"] + terms["tail"] + terms["rounding"], terms


# -- the cosh contour --

# the tilt theta of the cosh contour, in units of pi, and the half-width
# of its strip as a share of theta
_COSH_TILT = 0.35
_COSH_STRIP = 0.9

# the cosh contour's strip geometry is enclosed on cells of this width in
# Re t out to _FAR, and by one closed form beyond
_CELL = 0.125
_FAR = 3


@functools.cache
def _cosh_strip_cells():
    """The geometry of the cosh contour u(t) = t + i*theta*tanh(t) over
    the strip t = s + iy, |y| <= a = _COSH_STRIP*theta, which depends on
    neither the argument nor the drift.

    With tanh t = (sinh 2s + i sin 2y)/(cosh 2s + cos 2y) and a > pi/4,
    so that c = cos 2a < 0, cosh 2s + cos 2y >= cosh 2s + c > 0.  On
    s >= 0:
    - Re u = s - theta*Im tanh t lies within delta = theta/(cosh 2s + c)
      of s, as sin 2y peaks at 1 inside the strip;
    - Im u = y + theta*Re tanh t lies in [theta*tanh s - a, a +
      theta*r(s)], r(s) = sinh 2s/(cosh 2s + c), which peaks inside at
      cosh 2s = -1/c, at 1/sin 2a; that range stays inside (-pi/2,
      3pi/2), so sin(Im u) reaches 1 where it holds pi/2, and otherwise
      lies between its values at the ends;
    - |u'| = |1 + i*theta*sech^2 t| <= 1 + 2*theta/(cosh 2s + c).
    |exp(i*x*cosh u)| = exp(-x*G), G = sinh(Re u)*sin(Im u), whose least
    value on a cell is the interval product of the two ranges, as
    sinh(Re u) changes sign on the first cells.

    Returns (cells, far): per cell [s0, s0 + _CELL] of s >= 0, the tuple
    (least G, least Re u, greatest Re u, greatest |u'|); and for s >= _FAR
    the tuple (delta, sigma, greatest |u'|) with G >= sigma*sinh(s - delta),
    sigma the smaller of sin(Im u) at the two ends of its range there.
    u(-t) = -u(t) mirrors both to s <= 0 with Re u negated.  Computed
    once, in binary64, and widened by 2^-40 over that rounding."""
    slack = 2.0**-40
    theta = _COSH_TILT * math.pi
    a = _COSH_STRIP * theta
    c = math.cos(2 * a)
    peak = math.acosh(-1 / c) / 2

    def im_range(lo, hi):
        # Im u over s in [lo, hi]; r(s) rises to `peak` and falls after
        top = min(max(peak, lo), hi)
        return theta * math.tanh(lo) - a, a + theta * math.sinh(2 * top) / (math.cosh(2 * top) + c)

    def sin_range(lo, hi):
        ends = math.sin(lo), math.sin(hi)
        return min(ends), 1 if lo <= math.pi / 2 <= hi else max(ends)

    cells = []
    for j in range(int(_FAR / _CELL)):
        lo, hi = j * _CELL, (j + 1) * _CELL
        den = math.cosh(2 * lo) + c
        delta = theta / den
        re_lo, re_hi = lo - delta, hi + delta
        g_lo = min(
            p * q
            for p in (math.sinh(re_lo), math.sinh(re_hi))
            for q in sin_range(*im_range(lo, hi))
        )
        cells.append((g_lo - slack, re_lo - slack, re_hi + slack, 1 + 2 * theta / den + slack))
    den = math.cosh(2 * _FAR) + c
    sigma = sin_range(*im_range(_FAR, max(peak, _FAR)))[0] - slack
    far = (theta / den + slack, sigma, 1 + 2 * theta / den + slack)
    return tuple(cells), far


def _cosh_bounds(x, a):
    """The trapezoid bounds (see _tilted_quadrature) of the cosh contour
    integrand at argument x and drift a, in binary64.

    On the real line |f(t)| = exp(-x*sinh|t|*sin(theta*tanh|t|) + a*t)*|u'|
    and |u'| <= 1 + theta; past |t| = 2 the tilt is within 4% of theta,
    and sinh t >= cosh t - exp(-2) turns the decay into the cosh envelope.
    In the strip, the enclosed geometry bounds sup_y |f(s + iy)| by
    exp(-x*G + |a|*|Re u|)*|u'| on each cell, and past _FAR by
    exp(-x*sigma*sinh(s - delta) + |a|*(s + delta))*|u'|, integrated as a
    cosh tail from v0 = _FAR - delta on after sinh v >= cosh v - exp(-v0)."""
    theta = _COSH_TILT * math.pi
    x, b = float(x), float(abs(a))
    cells, (delta, sigma, du) = _cosh_strip_cells()
    logs = []
    for g_lo, re_lo, re_hi, d_hi in cells:
        base = math.log(d_hi * _CELL) - x * g_lo
        logs += (base + b * re_hi, base - b * re_lo)
    c = x * sigma / _PAD
    start = _FAR - delta
    for drift in (b, -b):
        logs.append(math.log(du) + 2 * b * delta + c * math.exp(-start) + _cosh_tail(c, drift, start))
    decay = x * math.sin(theta * math.tanh(2))
    log_spread = math.log(1 + theta) + decay * math.exp(-2) + _LOG_PAD
    return x, 1 + theta, decay / _PAD, abs(a), log_spread, 2, _log_add(*logs) + _LOG_PAD


def _contour_cosh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*cosh u + drift*u) du on the tilted contour
    u(t) = t + i*theta*tanh(t), theta = _COSH_TILT*pi.

    The tilt turns the oscillation into exp(-arg*sin(theta tanh t)*|sinh t|)
    decay; the opposite tilt would make the same factor grow.  Returns
    (value, error_bound, terms), terms with the tilt "theta"; see
    _tilted_quadrature and _cosh_bounds.

    u(-t) = -u(t), so cosh u and du/dt are even in t: the node pair is
    exp(i*arg*cosh u)*du times 2*cosh(drift*u), which is even in the drift,
    and |exp(+-drift*u)| = exp(+-drift*t).  Its three phases, Im u =
    theta*tanh t, |drift|*Im u and arg*cosh t*cos(Im u), are >= 0 on t >= 0."""
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    w = mp.mp.prec
    wc = w + _COS_GUARD
    square = 1 << 2 * w
    one = 1 << w
    mx, sx = _dyadic(x)
    mb, sb = _dyadic(abs(a))
    mt, st = _dyadic(_COSH_TILT)
    tilt = mt * pi_fixed(wc) >> st  # theta at wc bits

    def pair(t, e, g):
        inv = square // e
        ch2, sh2 = e + inv, e - inv  # 2 cosh t, 2 sinh t
        phi = tilt * sh2 // ch2  # Im u, at wc bits
        c_phi, s_phi = _cos_sin_fixed(phi, w)
        # exp(i*x*cosh u) * du, with cosh u = ch*c_phi + i*sh*s_phi and
        # du = 1 + i*d, d = theta/ch^2; its modulus m*2^(q - w) <= 1
        # keeps its scale 2^q apart until the last truncation
        m, q = _exp_fixed(-(mx * sh2 * s_phi >> sx + w + 1), w)
        c, s = _cos_sin_fixed(mx * ch2 * c_phi >> sx + w + 1 - _COS_GUARD, w)
        d = (tilt << 2 * w + 2 - _COS_GUARD) // (ch2 * ch2)
        re, im = m * c >> w, m * s >> w
        re, im = re - (im * d >> w), im + (re * d >> w)
        # 2*cosh(drift*u) = (g + 1/g)*cos(b*phi) + i*(g - 1/g)*sin(b*phi),
        # g = exp(b*t), b = |drift|
        inv = square // g
        both = g + inv
        c_a, s_a = _cos_sin_fixed(mb * phi >> sb, w)
        d_re, d_im = both * c_a >> w, (g - inv) * s_a >> w
        shift = w - q
        return (
            re * d_re - im * d_im >> shift,
            re * d_im + im * d_re >> shift,
            (m * (one + d) >> w) * both >> shift,
        )

    strip = _COSH_STRIP * _COSH_TILT * math.pi
    value, bound, terms = _tilted_quadrature(pair, _cosh_bounds(x, a), strip, eps_abs)
    terms["theta"] = _COSH_TILT * mp.pi
    return value, bound, terms


# -- the sinh contour --

# the tilt theta of the sinh contour, in units of pi, and the half-width
# of its strip as a share of theta
_SINH_TILT = 0.5
_SINH_STRIP = 0.95


def _sinh_bounds(x, a):
    """The trapezoid bounds (see _tilted_quadrature) of the sinh contour
    integrand at argument x and drift a, in binary64.  At height y in the
    strip, |f(t + iy)| = exp(-x*sin(theta + y)*cosh t + a*t) exactly, and
    sin(theta + y) >= sin(theta - a_s), so mass bounds
    2*K_a(x*sin(theta - a_s)), and y = 0 gives the envelope.  u' = 1."""
    x, b = float(x), float(a)
    z = x * math.sin((1 - _SINH_STRIP) * _SINH_TILT * math.pi) / _PAD
    log_mass = _log_add(_cosh_tail(z, b, 0), _cosh_tail(z, -b, 0)) + _LOG_PAD
    return x, 1, x / _PAD, abs(a), 0.0, 0, log_mass


def _contour_sinh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*sinh u + drift*u) du on the constant tilt
    u = t + i*theta, theta = _SINH_TILT*pi = pi/2.

    There sinh u = i*cosh t, so the integrand is the real
    exp(-arg*cosh t + drift*t) times the constant exp(i*drift*pi/2) (DLMF
    10.32.9); the opposite tilt would make it grow like exp(+arg*cosh t).
    Returns (value, error_bound, terms), terms with the tilt "theta"; see
    _tilted_quadrature and _sinh_bounds.

    The node pair is the real exp(-arg*cosh t)*2*cosh(drift*t), and the
    constant multiplies the sum once."""
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    w = mp.mp.prec
    square = 1 << 2 * w
    mx, sx = _dyadic(x)

    def pair(t, e, g):
        # exp(-x*cosh t) = m*2^(q - w), scaled after the product
        m, q = _exp_fixed(-(mx * (e + square // e) >> sx + 1), w)
        value = m * (g + square // g) >> w - q
        return value, 0, value

    strip = _SINH_STRIP * _SINH_TILT * math.pi
    value, _, terms = _tilted_quadrature(pair, _sinh_bounds(x, a), strip, eps_abs)
    # exp(i*pi*drift/2) and the product with it round within 4 units of |value|
    terms["rounding"] += 4 * mp.eps * _PAD * abs(value)
    terms["theta"] = _SINH_TILT * mp.pi
    bound = terms["discretisation"] + terms["tail"] + terms["rounding"]
    return value * mp.expjpi(a * _SINH_TILT), bound, terms


# -- the series: fixed-point sums times an interval seed --

_TAIL_BITS = 16
# guard bits of the fixed-point ascending sums above their interval precision
_SUM_GUARD = 24


# the raw interval [0, 0]
_ZERO = (fzero, fzero)


def _int_mpi(n, prec):
    """The raw interval an integer converts to at prec, as ctx_iv converts it."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def _enclose_mpi(value, prec):
    """A raw interval (lo, hi) at prec around the exact number an input
    stands for (see `_exact`), so no input is rounded to a float on the way
    in: numerator over denominator, each enclosed as ctx_iv encloses an int."""
    value = _exact(value)
    return mpi_div(_int_mpi(value.numerator, prec), _int_mpi(value.denominator, prec), prec)


def _fixed_interval(centre, radius, w, prec):
    """The raw interval (centre -+ radius) * 2^-w of integers at prec,
    rounded outward."""
    return (
        from_man_exp(centre - radius, -w, prec, round_floor),
        from_man_exp(centre + radius, -w, prec, round_ceiling),
    )


def _ceil_div(n, d):
    return -(-n // d)


def _ratio_terms(nu, half, sign, w):
    """The terms c_0, c_1, ... of `_ascending_sums` in fixed point at w
    bits, without end: yields (k, C_k, e_k) with |C_k - 2^w c_k| <= e_k.
    The ratio sign*(x/2)^2/(k(k+nu)) is N/D = step/(b2*k*(k*q + p)) for
    nu = p/q and x/2 = a/b, so each step truncates once."""
    p, q = nu.numerator, nu.denominator
    a2, b2 = half.numerator**2, half.denominator**2
    step = sign * a2 * q
    yield 0, ((p + q) << w) // q, 1
    c = (sign * a2 << w) // b2
    e = 1
    yield 1, c, e
    k = 1
    while True:
        k += 1
        den = b2 * k * (k * q + p)
        c, e = c * step // den, _ceil_div(e * abs(step), den) + 1
        yield k, c, e


def _ratio_sums(nu, half, sign, prec, digamma=False):
    """The fixed-point sums behind `_ascending_sums`, at w = prec +
    _SUM_GUARD bits: returns (w, k, sums), where k is the last term taken
    and sums holds, for sum_k c_k and, with digamma=True, sum_k c_k h_k,
    the triple (centre, rounding, tail) of integers in units of 2^-w: the
    partial sum to k lies within `rounding` of centre, and the rest of the
    series within `tail`."""
    w = prec + _SUM_GUARD
    p, q = nu.numerator, nu.denominator
    a2, b2 = half.numerator**2, half.denominator**2
    one = 1 << w
    total = err = weighted = werr = 0
    if digamma:
        h = sum(one // j for j in range(1, p + 1))
        eh = p
    for k, c, e in _ratio_terms(nu, half, sign, w):
        total += c
        err += e
        if digamma:
            if k:
                h += one // k + one // (k + p)
                eh += 2
            weighted += c * h >> w
            werr += _ceil_div(abs(c) * eh + e * (h + eh), one) + 1
        if not k or abs(c) << prec - _TAIL_BITS > abs(total):
            continue
        # rho = a2*q/rho_den, and k+1+nu > 0 when its numerator is
        ahead = (k + 1) * q + p
        rho_den = b2 * (k + 1) * ahead
        if ahead > 0 and 2 * a2 * q <= rho_den:
            break
    size = 2 * a2 * q * (abs(c) + e)
    sums = [(total, err, _ceil_div(size, rho_den))]
    if digamma:
        sums.append((weighted, werr, _ceil_div(size * (h + eh + 4 * one), rho_den * one)))
    return w, k, sums


def _ascending_sums(nu, half, sign, prec, digamma=False):
    """Raw interval enclosures at prec of sum_k u_k and, with digamma=True, of
    sum_k u_k w_k, for exact Fractions nu and half = x/2, where

        u_k = sign^k (x/2)^(2k+nu) / (k! Gamma(k+nu+1)),
        w_k = psi(k+1) + psi(k+nu+1)    (integer nu >= 0 only),

    so the plain sum is I_nu for sign +1 and J_nu for sign -1 (DLMF
    10.25.2, 10.2.2).  Every term is seed * c_k with seed = (x/2)^nu /
    Gamma(nu+2), c_0 = nu+1, c_1 = sign (x/2)^2 and c_k = c_(k-1) *
    sign (x/2)^2/(k(k+nu)): u_0 and u_1 both come from Gamma(nu+2), away
    from the pole of Gamma(nu+1) at nu = -1.  The c_k are rational, so
    each ratio is N/D for integers N and D, and `_ratio_sums` runs the
    sums in fixed point at w = prec + _SUM_GUARD bits: C_k =
    floor(C_(k-1) N/D), one truncation a step, lies within e_k =
    ceil(e_(k-1) |N|/D) + 1 units of 2^w c_k.  With psi(k+1) = H_k -
    euler, w_k = h_k - 2 euler for h_k = H_k + H_(k+nu), so the weighted
    sum is seed * (sum c_k h_k - 2 euler sum c_k); h_k runs in the same
    fixed point, one unit a harmonic step, and each product c_k h_k
    truncates once.

    Once k+1+nu > 0 the ratio rho to the next term falls with k, so where
    rho <= 1/2 the rest of the plain sum is at most 2 rho |c_k|; h grows
    by at most 2 a step, so the rest of the weighted one is at most
    2 rho |c_k| (h_k + 4).  The sums stop once a term falls
    2^-(prec - _TAIL_BITS) below the plain sum and are closed by these
    tails, so the tails spend about _TAIL_BITS of the guard bits
    `_working_bits` carries above the target instead of summing on into
    the rounding noise.  Each sum becomes an interval once and is
    multiplied once by the enclosed seed: (x/2)^n/(n+1)! exactly at
    integer order, else (x/2)^nu over Gamma of the exact nu+2, with the
    libmpi calls mpmath's interval context makes for power and gamma."""
    w, _, sums = _ratio_sums(nu, half, sign, prec, digamma)
    boxes = [_fixed_interval(centre, rounding + tail, w, prec) for centre, rounding, tail in sums]
    if digamma:
        seed = _enclose_mpi(half**nu.numerator / factorial(nu.numerator + 1), prec)
        plain, weighted = boxes
        euler = mpf_euler(prec, round_floor), mpf_euler(prec, round_ceiling)
        twice = mpi_mul(mpi_mul(_int_mpi(2, prec), euler, prec), plain, prec)
        return [mpi_mul(seed, plain, prec), mpi_mul(seed, mpi_sub(weighted, twice, prec), prec)]
    power = mpi_pow(_enclose_mpi(half, prec), _enclose_mpi(nu, prec), prec)
    seed = mpi_div(power, mpi_gamma(_enclose_mpi(nu + 2, prec), prec), prec)
    return [mpi_mul(seed, boxes[0], prec)]


def _series_boxes(kind, order, arg, prec):
    """Raw interval enclosures (real part, imaginary part) of K or H1 at
    prec, each step the libmpi call ctx_iv makes for the same expression.

    Non-integer orders use the reflection formulas
    Y = (J_nu cos(nu pi) - J_-nu)/sin(nu pi) and
    K = (pi/2)(I_-nu - I_nu)/sin(nu pi) (DLMF 10.4.7, 10.27.4); the
    cancellation near an integer order widens the box by itself.
    Exactly integer orders take the digamma series (DLMF 10.8.1, 10.31.1)
    with Y_-n = (-1)^n Y_n, J_-n = (-1)^n J_n and K_-n = K_n."""
    nu = _exact(order)
    half = _exact(arg) / 2
    sign = 1 if kind == "K" else -1
    pi, two = mpi_pi(prec), _int_mpi(2, prec)
    if nu.denominator == 1:
        turn = _int_mpi((-1) ** nu.numerator if nu < 0 else 1, prec)
        n = abs(nu.numerator)
        plain, weighted = _ascending_sums(Fraction(n), half, sign, prec, digamma=True)
        # the finite part is an exact rational
        step = -sign * half**2
        finite = sum(Fraction(factorial(n - k - 1), factorial(k)) * step**k for k in range(n))
        finite = _enclose_mpi(finite / half**n, prec)
        log_half = mpi_log(_enclose_mpi(half, prec), prec)
        if kind == "K":
            # finite/2 + (-1)^(n+1) log(x/2) I_n + (-1)^n weighted/2
            log_part = mpi_mul(_int_mpi((-1) ** (n + 1), prec), log_half, prec)
            log_part = mpi_mul(log_part, plain, prec)
            rest = mpi_div(mpi_mul(_int_mpi((-1) ** n, prec), weighted, prec), two, prec)
            return mpi_add(mpi_add(mpi_div(finite, two, prec), log_part, prec), rest, prec), _ZERO
        y = mpi_mul(mpi_mul(two, log_half, prec), plain, prec)
        y = mpi_div(mpi_sub(mpi_sub(y, finite, prec), weighted, prec), pi, prec)
        return mpi_mul(turn, plain, prec), mpi_mul(turn, y, prec)
    cos, sin = mpi_cos_sin(mpi_mul(pi, _enclose_mpi(nu, prec), prec), prec)
    if mpf_le(sin[0], fzero) and mpf_le(fzero, sin[1]):
        # an order the working precision cannot tell from an integer has
        # no reflection value there
        whole = mp.ninf._mpf_, mp.inf._mpf_
        return whole, whole
    (plus,) = _ascending_sums(nu, half, sign, prec)
    (minus,) = _ascending_sums(-nu, half, sign, prec)
    if kind == "K":
        diff = mpi_mul(mpi_div(pi, two, prec), mpi_sub(minus, plus, prec), prec)
        return mpi_div(diff, sin, prec), _ZERO
    return plus, mpi_div(mpi_sub(mpi_mul(plus, cos, prec), minus, prec), sin, prec)


def _box_value(parts, bits):
    """The midpoint of the raw interval boxes `parts` (real part, imaginary
    part) at bits, and a bound on its distance to all of them: the two
    half-widths' hypotenuse, rounded up at 53 bits.  The libmpi calls are
    those mpmath's interval context makes for the midpoint, the
    half-widths and the square root of their sum of squares."""
    mids = [mpi_mid(part, bits) for part in parts]
    total = _ZERO
    for part, mid in zip(parts, mids):
        half = mpi_abs(mpi_sub(part, (mid, mid), bits), bits)
        total = mpi_add(total, mpi_mul(half, half, 53), 53)
    return mp.make_mpc(tuple(mids)), mp.make_mpf(mpi_sqrt(total, 53)[1])


def _series_value(kind, order, arg, bits):
    """K or H1 from the series on intervals at `bits`: the midpoint, and a
    certified bound on its distance to the true value."""
    return _box_value(_series_boxes(kind, order, arg, bits), bits)


# -- the precision policy --


def _exact(value, label="value") -> Fraction:
    """The rational number an input stands for: an int, a Fraction or a
    decimal or ratio string as written, an mpf or a float as the dyadic
    number it holds.  A complex, infinite or NaN input is a ValueError
    that names `label`."""
    if isinstance(value, (int, Fraction, str)):
        try:
            return Fraction(value)
        except ValueError:
            pass
    v = mp.mpmathify(value)
    if isinstance(v, mp.mpc) or not mp.isfinite(v):
        raise ValueError(f"{label} must be a finite real number, got {value!r}")
    sign, man, exp, _ = v._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def _gap_bits(order) -> int:
    """About the bits the reflection formulas lose to sin(nu pi): a bound on
    -log2 of the exact order's distance to the nearest integer (0 at one)."""
    gap = abs(order - round(order))
    return gap and gap.denominator.bit_length() - gap.numerator.bit_length() + 1


@functools.lru_cache(maxsize=256)
def _target(precision):
    """A relative-error target in (0, 1), read at a fixed 64 bits so that
    no value depends on the caller's mp.prec; each distinct input is read
    once."""
    with mp.workprec(64):
        target = mp.mpf(precision)
    if not 0 < target < 1:
        raise ValueError(f"precision must be a relative error in (0, 1), got {target}")
    return target


def _working_bits(precision, arg) -> int:
    # ceil(-log2 precision), read off the mantissa's bit count: precision =
    # man * 2^exp lies in [2^(exp+bc-1), 2^(exp+bc)), at its floor exactly
    # when it is a power of two.  Guard digits: series cancellation grows
    # like exp(arg) for J/Y
    _, man, exp, bc = mp.mpf(precision)._mpf_
    return max(96, 1 - exp - bc + 48 + int(2 * arg))


def _certified(value_at, precision, arg, order, what):
    """The one precision policy: value_at(bits) returns a box's midpoint
    and radius.  The first run takes `_working_bits`; if its radius misses
    the relative target, one more run adds the bits the first lost, or,
    where its box was unbounded and measured no loss, the bits the exact
    order's distance to an integer costs.  Returns (midpoint, radius); a
    radius still over the target, or NaN, raises PrecisionError."""
    bits = _working_bits(precision, arg)
    for _ in range(2):
        value, err = value_at(bits)
        rel = ComplexValue(value.real, value.imag, err).rel_err()
        if rel <= precision:
            return value, err
        bits += bits + int(mp.ceil(mp.log(rel, 2))) if mp.isfinite(rel) else _gap_bits(order)
    raise PrecisionError(
        f"{what}: certified relative error {mp.nstr(rel, 5)} "
        f"misses the target {mp.nstr(precision, 5)}",
        achieved=rel,
    )


# -- public entry point --


def bessel_eval(kind: str, order, arg, precision=None) -> ComplexValue:
    """Evaluate K/H1/H2 at real order in (-2, 2) and positive real argument.

    `precision` is the target relative error, in (0, 1) (default 1e-25).
    K and H1 come from their ascending series evaluated on intervals, and
    err_estimate is the radius of the result's box, so it bounds the true
    error; `_certified` sets the working precision and the one retry, and
    raises PrecisionError if the target is still missed.  H2 is the exact
    conjugate of H1.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    precision = _target("1e-25" if precision is None else precision)
    # a rough read checks the argument and sizes the working precision;
    # the evaluation encloses the exact inputs at that precision
    with mp.workprec(64):
        arg_rough = mp.mpmathify(arg)
    if isinstance(arg_rough, mp.mpc) or not (mp.isfinite(arg_rough) and arg_rough > 0):
        raise ValueError(f"argument must be a finite positive real, got {arg!r}")
    nu = _exact(order, "order")
    if not abs(nu) < ORDER_LIMIT:
        raise ValueError(f"order {order} outside the supported window (-2, 2)")
    family = "K" if kind == "K" else "H1"
    what = f"{kind}(order={order}, arg={arg})"
    value, err = _certified(
        lambda bits: _series_value(family, order, arg, bits), precision, float(arg_rough), nu, what
    )
    # H2 = conj(H1) at real order and argument (DLMF 10.11)
    im = mp.fneg(value.imag, exact=True) if kind == "H2" else value.imag
    return ComplexValue(re=value.real, im=im, err_estimate=err)
