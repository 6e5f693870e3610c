"""High-precision cylinder functions: certified series and tilted contours.

The numeric layer needs the decaying Macdonald function K_nu and the two
Hankel functions H1/H2 at real order and positive real argument.  Nothing
here trusts a library implementation of them.

`bessel_eval` returns K and H1 from their ascending series, evaluated in
mpmath's interval context `mp.iv`: I_nu and J_nu term by term, each sum
closed by a geometric bound on its tail, then K and Y by the reflection
formulas at non-integer order (DLMF 10.27.4, 10.4.7) and by the digamma
series at integer order, with psi(k+1) = H_k - euler.  Every rounding
and every input is enclosed, so the box around the result is a
certified error bound that widens by itself where sin(nu pi) cancels
near an integer order.  At real order and argument H2 = conj(H1) (DLMF
10.11), so H2 is the exact conjugate of H1.  mpmath supplies only the
arithmetic and elementary calls (power, gamma, log, sin, cos); its own
Bessel implementations are never imported here.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

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
# Its error is the sum of three stated terms:
#
#   discretisation  2M/(exp(2 pi a/h) - 1), where f is analytic in the strip
#                   |Im t| < a and integral |f(t + iy)| dt <= M there
#                   (Trefethen and Weideman, "The exponentially convergent
#                   trapezoidal rule", SIAM Review 56 (2014), Thm 5.1);
#   tail            h * sum_{|k| > N} |f(kh)|, at most the integral of a
#                   falling envelope of |f| beyond the cutoff T = Nh;
#   rounding        the working precision's unit times h * sum |f| over the
#                   nodes taken, scaled by the summation's length, by the
#                   k-fold products that form node k's exponentials, and by
#                   each node's sensitivity to a shift of t and to the
#                   rounding of its phase, |f'/f| <= du*(x cosh t + 3) with
#                   |u'| <= du on the contour.
#
# The absolute target eps splits as eps/2 to the discretisation, which
# sizes h, eps/4 to the tail, which sizes T, and the rest to rounding.

# widening of the bound terms, far above the rounding of the few
# operations that compute them
_PAD = 1 + mp.mpf(2) ** -30


def _cosh_tail(c, b, start):
    """Bound on integral_start^inf exp(-c cosh v + b v) dv, for c > 0 and
    start >= 0.

    Up to v1, where the exponent's slope c sinh v - b reaches 1,
    cosh v >= cosh(start) bounds the integrand by exp(-c cosh(start) + b v);
    from v1 on, convexity puts cosh v above its tangent line at v1."""
    v1 = max(start, mp.asinh((b + 1) / c))
    width = v1 - start
    head = mp.exp(b * start - c * mp.cosh(start)) * (mp.expm1(b * width) / b if b else width)
    return head + mp.exp(b * v1 - c * mp.cosh(v1)) / (c * mp.sinh(v1) - b)


def _tail_cutoff(decay_scale, growth, spread, start, share):
    """The cutoff T >= start past which both tails of the envelope
    spread*exp(-decay_scale*cosh t + growth*|t|) hold at most `share`.

    T also lies where the envelope falls with slope at least 1, so each
    node past T weighs less than the envelope's integral over the step
    before it.  Four rounds of the fixed point
    T = acosh((log(2*spread/share) + growth*T - log(slope))/decay_scale)
    settle on the edge to rounding; steps of 2^-10 T take up that rounding."""
    c, b = decay_scale, growth
    t = start = max(start, mp.asinh((b + 1) / c))
    log_target = mp.log(2 * spread * _PAD / share)
    for _ in range(4):
        inner = (log_target + b * t - mp.log(c * mp.sinh(t) - b)) / c
        t = max(start, mp.acosh(max(1, inner)))
    while 2 * spread * _PAD * _cosh_tail(c, b, t) > share:
        t += t / 1024
    return t


def _trapezoid_rule(pair, growth, strip, mass, cutoff, eps_abs):
    """One pass of the full-line trapezoid rule h * sum_{|k| <= N} f(kh)
    for f analytic in the strip |Im t| < strip, where integral
    |f(t + iy)| dt <= mass: h is the widest step that divides the cutoff
    and keeps the discretisation term 2*mass/(exp(2*pi*strip/h) - 1)
    within eps_abs.  Raises ArithmeticError if f fails to decay at the
    cutoff (wrong tilt for the data).

    Returns (value, size, terms): size bounds h * sum |f| over the nodes
    taken, and terms records the "cutoff" N*h, the "step" h, the
    "node_pairs" N + 1, the "strip" and the "discretisation" term.

    The integrand arrives as its node pair: pair(t, e, g) at t = kh >= 0
    returns f(t) + f(-t) and a bound on |f(t)| + |f(-t)|, where e = exp(t)
    and g = exp(growth*t) are each one multiplication from the node
    before, so a node costs no exp of the engine's own.  The rule sums
    f(0) + sum_{k=1..N} (f(kh) + f(-kh)): the full-line rule's nodes and
    sums, with one pair evaluation per two nodes."""
    n = int(mp.ceil(cutoff * mp.log1p(2 * mass / eps_abs) / (2 * mp.pi * strip)))
    step = cutoff / n
    cutoff = n * step
    e_step, g_step = mp.exp(step), mp.exp(growth * step)
    e = g = mp.mpf(1)
    # the t = 0 pair is the one node f(0) = f(-0), counted twice
    total, size = pair(mp.mpf(0), e, g)
    total, size = total / 2, size / 2
    head = size
    for k in range(1, n + 1):
        e *= e_step
        g *= g_step
        value, bound = pair(k * step, e, g)
        total += value
        size += bound
    # the last pair, at the cutoff, must have fallen far below the first
    if not bound < head * mp.mpf("2e-6") + eps_abs:
        raise ArithmeticError("tilted integrand fails to decay at the cutoff")
    terms = {
        "cutoff": cutoff,
        "step": step,
        "node_pairs": n + 1,
        "strip": strip,
        "discretisation": 2 * mass / mp.expm1(2 * mp.pi * strip / step),
    }
    return total * step, size * step, terms


def _tilted_quadrature(pair, bounds, strip, eps_abs):
    """integral of f over the real line for an analytic integrand on a
    tilted contour: `_trapezoid_rule` in the strip |Im t| < strip,
    truncated at the shortest cutoff whose tails stay within eps_abs/4,
    with the discretisation term held within eps_abs/2.  Returns (value,
    error_bound, terms); the bound is the sum of terms' "discretisation",
    "tail" and "rounding" (see above), and terms also records the
    cutoff, step, node pairs and strip.  Raises ArithmeticError if f
    fails to decay at the cutoff.

    bounds = (arg, du, decay_scale, growth, spread, start, mass) states
    what is known of f: |f'/f| <= du*(arg*cosh t + 3); the envelope
    |f(t)| <= spread*exp(-decay_scale*cosh t + growth*|t|) for
    |t| >= start; and integral |f(t + iy)| dt <= mass in the strip."""
    arg, du, decay_scale, growth, spread, start, mass = bounds
    cutoff = _tail_cutoff(decay_scale, growth, spread, start, eps_abs / 4)
    value, size, terms = _trapezoid_rule(pair, growth, strip, mass * _PAD, cutoff, eps_abs / 2)
    cutoff, n = terms["cutoff"], terms["node_pairs"] - 1
    # units of rounding per node, relative to |f(t)| + |f(-t)|: one for the
    # pair's own sum and one for the running sum; about 2k at node k for the
    # k products behind e^(kh) and e^(growth*kh), which move the drift
    # factors by that share and shift t by that much; and about 8 more of
    # shift for the rounding of the phase, each shift weighted by |f'/f|
    sensitivity = 2 * terms["node_pairs"] + 2 * n + (2 * n + 8) * du * (arg * mp.cosh(cutoff) + 3)
    terms["tail"] = 2 * spread * _PAD * _cosh_tail(decay_scale, growth, cutoff)
    terms["rounding"] = mp.eps * _PAD * sensitivity * size
    return value, terms["discretisation"] + terms["tail"] + terms["rounding"], terms


def _cosh_sinh(e):
    """(cosh t, sinh t) from e = exp(t)."""
    ch = (e + 1 / e) / 2
    return ch, e - ch


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
    once, at 53 bits, and widened by 2^-40 over that rounding."""
    slack = mp.mpf(2) ** -40
    with mp.workprec(53):
        theta = _COSH_TILT * mp.pi
        a = _COSH_STRIP * theta
        c = mp.cos(2 * a)
        peak = mp.acosh(-1 / c) / 2

        def im_range(lo, hi):
            # Im u over s in [lo, hi]; r(s) rises to `peak` and falls after
            top = min(max(peak, lo), hi)
            return theta * mp.tanh(lo) - a, a + theta * mp.sinh(2 * top) / (mp.cosh(2 * top) + c)

        def sin_range(lo, hi):
            ends = mp.sin(lo), mp.sin(hi)
            return min(ends), 1 if lo <= mp.pi / 2 <= hi else max(ends)

        cells = []
        for j in range(int(_FAR / _CELL)):
            lo, hi = j * _CELL, (j + 1) * _CELL
            den = mp.cosh(2 * lo) + c
            delta = theta / den
            re_lo, re_hi = lo - delta, hi + delta
            g_lo = min(
                p * q
                for p in (mp.sinh(re_lo), mp.sinh(re_hi))
                for q in sin_range(*im_range(lo, hi))
            )
            cells.append((g_lo - slack, re_lo - slack, re_hi + slack, 1 + 2 * theta / den + slack))
        den = mp.cosh(2 * _FAR) + c
        sigma = sin_range(*im_range(_FAR, max(peak, _FAR)))[0] - slack
        far = (theta / den + slack, sigma, 1 + 2 * theta / den + slack)
    return tuple(cells), far


def _cosh_bounds(x, a):
    """The trapezoid bounds (see _tilted_quadrature) of the cosh contour
    integrand at argument x and drift a.

    On the real line |f(t)| = exp(-x*sinh|t|*sin(theta*tanh|t|) + a*t)*|u'|
    and |u'| <= 1 + theta; past |t| = 2 the tilt is within 4% of theta,
    and sinh t >= cosh t - exp(-2) turns the decay into the cosh envelope.
    In the strip, the enclosed geometry bounds sup_y |f(s + iy)| by
    exp(-x*G + |a|*|Re u|)*|u'| on each cell, and past _FAR by
    exp(-x*sigma*sinh(s - delta) + |a|*(s + delta))*|u'|, integrated as a
    cosh tail from v0 = _FAR - delta on after sinh v >= cosh v - exp(-v0)."""
    theta = _COSH_TILT * mp.pi
    b = abs(a)
    cells, (delta, sigma, du) = _cosh_strip_cells()
    mass = 0
    for g_lo, re_lo, re_hi, d_hi in cells:
        mass += d_hi * mp.exp(-x * g_lo) * (mp.exp(b * re_hi) + mp.exp(-b * re_lo))
    mass *= _CELL
    c = x * sigma
    start = _FAR - delta
    for drift in (b, -b):
        mass += du * mp.exp(2 * b * delta + c * mp.exp(-start)) * _cosh_tail(c, drift, start)
    decay = x * mp.sin(theta * mp.tanh(2))
    return x, 1 + theta, decay, b, (1 + theta) * mp.exp(decay * mp.exp(-2)), 2, mass


def _contour_cosh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*cosh u + drift*u) du on the tilted contour
    u(t) = t + i*theta*tanh(t), theta = _COSH_TILT*pi.

    The tilt turns the oscillation into exp(-arg*sin(theta tanh t)*|sinh t|)
    decay; the opposite tilt would make the same factor grow.  Returns
    (value, error_bound, terms), terms with the tilt "theta"; see
    _tilted_quadrature and _cosh_bounds.

    u(-t) = -u(t), so cosh u and du/dt are even in t: the node pair is
    exp(i*arg*cosh u)*du times 2*cosh(drift*u), which is even in the drift,
    and |exp(+-drift*u)| = exp(+-drift*t)."""
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    b = abs(a)
    theta = _COSH_TILT * mp.pi

    def pair(t, e, g):
        ch, sh = _cosh_sinh(e)
        phi = theta * sh / ch  # Im u
        c_phi, s_phi = mp.cos_sin(phi)
        # exp(i*x*cosh u) * du, with cosh u = ch*c_phi + i*sh*s_phi
        # and du = 1 + i*d, d = theta/ch^2
        mag = mp.exp(-x * sh * s_phi)
        c, s = mp.cos_sin(x * ch * c_phi)
        d = theta / (ch * ch)
        shared = mp.mpc(mag * c, mag * s) * mp.mpc(1, d)
        # 2*cosh(drift*u) = (g + 1/g)*cos(b*phi) + i*(g - 1/g)*sin(b*phi),
        # g = exp(b*t), b = |drift|
        inv = 1 / g
        both = g + inv
        c_a, s_a = mp.cos_sin(b * phi)
        return shared * mp.mpc(both * c_a, (g - inv) * s_a), mag * (1 + d) * both

    strip = _COSH_STRIP * theta
    value, bound, terms = _tilted_quadrature(pair, _cosh_bounds(x, a), strip, eps_abs)
    terms["theta"] = theta
    return value, bound, terms


# -- the sinh contour --

# the tilt theta of the sinh contour, in units of pi, and the half-width
# of its strip as a share of theta
_SINH_TILT = 0.5
_SINH_STRIP = 0.95


def _sinh_bounds(x, a):
    """The trapezoid bounds (see _tilted_quadrature) of the sinh contour
    integrand at argument x and drift a.  At height y in the strip,
    |f(t + iy)| = exp(-x*sin(theta + y)*cosh t + a*t) exactly, and
    sin(theta + y) >= sin(theta - a_s), so mass bounds
    2*K_a(x*sin(theta - a_s)), and y = 0 gives the envelope.  u' = 1."""
    theta = _SINH_TILT * mp.pi
    z = x * mp.sin((1 - _SINH_STRIP) * theta)
    return x, 1, x * mp.sin(theta), abs(a), 1, 0, _cosh_tail(z, a, 0) + _cosh_tail(z, -a, 0)


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
    theta = _SINH_TILT * mp.pi

    def pair(t, e, g):
        ch, _ = _cosh_sinh(e)
        value = mp.exp(-x * ch) * (g + 1 / g)
        return value, value

    strip = _SINH_STRIP * theta
    value, _, terms = _tilted_quadrature(pair, _sinh_bounds(x, a), strip, eps_abs)
    # exp(i*pi*drift/2) and the product with it round within 4 units of |value|
    terms["rounding"] += 4 * mp.eps * _PAD * abs(value)
    terms["theta"] = theta
    bound = terms["discretisation"] + terms["tail"] + terms["rounding"]
    return value * mp.expjpi(a * _SINH_TILT), bound, terms


# -- the series on intervals --

_TAIL_BITS = 16


def _enclose(value):
    """An interval at iv.prec around the exact number an input stands for
    (see `_exact`), so no input is rounded to a float on the way in."""
    value = _exact(value)
    return mp.iv.mpf(value.numerator) / value.denominator


def _ascending_sums(nu, half, sign, digamma=False):
    """Enclosures of sum_k u_k and, with digamma=True, of sum_k u_k w_k, where

        u_k = sign^k (x/2)^(2k+nu) / (k! Gamma(k+nu+1)),
        w_k = psi(k+1) + psi(k+nu+1)    (integer nu only),

    so the plain sum is I_nu for sign +1 and J_nu for sign -1 (DLMF
    10.25.2, 10.2.2).  The terms recurse by the ratio sign*(x/2)^2/(k(k+nu)),
    and psi by harmonic steps from psi(1) = -euler.  Once k+1+nu > 0 the
    ratio rho to the next term falls with k, so where rho <= 1/2 the rest
    of the plain sum is at most 2 rho |u_k|; w grows by at most 2 a step,
    so the rest of the weighted sum is at most 2 rho |u_k| (|w_k| + 4).
    The sums stop once a term falls 2^-(prec - _TAIL_BITS) below the plain
    sum and are closed by these tails, so the tails spend about _TAIL_BITS
    of the guard bits `_working_bits` carries above the target instead of
    summing on into the rounding noise."""
    iv = mp.iv
    quarter = half * half
    step = sign * quarter
    # u_0 and u_1 both from Gamma(nu+2): near nu = -1, Gamma(nu+1) sits at
    # its pole, and the interval would treat it and the first ratio
    # 1/(1+nu) as independent
    seed = iv.power(half, nu) / iv.gamma(nu + 2)
    u = (nu + 1) * seed
    if digamma:
        psi_a = -iv.euler
        psi_b = psi_a + sum(iv.mpf(1) / j for j in range(1, int(nu) + 1))
        w = psi_a + psi_b
    sums = [u, u * w] if digamma else [u]
    k = 0
    while True:
        k += 1
        shift = k + nu
        u = step * seed if k == 1 else u * step / (k * shift)
        sums[0] += u
        if digamma:
            psi_a += iv.mpf(1) / k
            psi_b += 1 / shift
            w = psi_a + psi_b
            sums[1] += u * w
        if iv.mag(u) > iv.mag(sums[0]) - iv.prec + _TAIL_BITS:
            continue
        ahead = shift + 1
        rho = quarter / ((k + 1) * ahead)
        if ahead.a > 0 and rho.b <= 0.5:
            tail = 2 * rho * abs(u)
            tails = [tail, tail * (abs(w) + 4)] if digamma else [tail]
            return [s + iv.mpf([-t.b, t.b]) for s, t in zip(sums, tails)]


def _series_boxes(kind, order, arg):
    """Enclosures (real part, imaginary part) of K or H1 at iv.prec.

    Non-integer orders use the reflection formulas
    Y = (J_nu cos(nu pi) - J_-nu)/sin(nu pi) and
    K = (pi/2)(I_-nu - I_nu)/sin(nu pi) (DLMF 10.4.7, 10.27.4); the
    cancellation near an integer order widens the box by itself.
    Exactly integer orders take the digamma series (DLMF 10.8.1, 10.31.1)
    with Y_-n = (-1)^n Y_n, J_-n = (-1)^n J_n and K_-n = K_n."""
    iv = mp.iv
    nu = _enclose(order)
    half = _enclose(arg) / 2
    sign = 1 if kind == "K" else -1
    lo, hi = (mp.make_mpf(end) for end in nu._mpi_)
    if lo == hi and lo == mp.floor(lo):
        turn = (-1) ** int(lo) if lo < 0 else 1
        n = abs(int(lo))
        plain, weighted = _ascending_sums(iv.mpf(n), half, sign, digamma=True)
        finite = sum(
            iv.mpf(factorial(n - k - 1)) / factorial(k) * (-sign * half * half) ** k
            for k in range(n)
        ) * half ** (-n)
        if kind == "K":
            log_part = (-1) ** (n + 1) * iv.log(half) * plain
            return finite / 2 + log_part + (-1) ** n * weighted / 2, iv.mpf(0)
        y = (2 * iv.log(half) * plain - finite - weighted) / iv.pi
        return turn * plain, turn * y
    s = iv.sin(iv.pi * nu)
    if 0 in s:
        # an interval order that holds an integer has no reflection value
        return iv.mpf([-mp.inf, mp.inf]), iv.mpf([-mp.inf, mp.inf])
    (plus,) = _ascending_sums(nu, half, sign)
    (minus,) = _ascending_sums(-nu, half, sign)
    if kind == "K":
        return iv.pi / 2 * (minus - plus) / s, iv.mpf(0)
    return plus, (plus * iv.cos(iv.pi * nu) - minus) / s


def _box_value(boxes, bits):
    """The midpoint of the boxes (real part, imaginary part) that `boxes()`
    returns at iv.prec = bits (restored even if it raises), and a bound on
    its distance to all of them: the two half-widths' hypotenuse, rounded up."""
    iv = mp.iv
    saved = iv.prec
    iv.prec = bits
    try:
        with mp.workprec(bits):
            parts = [(part, part.mid) for part in boxes()]
            centre = mp.mpc(*(mp.make_mpf(mid._mpi_[0]) for _, mid in parts))
        halves = [abs(part - mid) for part, mid in parts]
        iv.prec = 53  # rounded outward, the radius needs no more bits
        radius = iv.sqrt(sum(half * half for half in halves))
    finally:
        iv.prec = saved
    return centre, mp.make_mpf(radius._mpi_[1])


def _series_value(kind, order, arg, bits):
    """K or H1 from the series on intervals at `bits`: the midpoint, and a
    certified bound on its distance to the true value."""
    return _box_value(lambda: _series_boxes(kind, order, arg), bits)


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


def _target(precision):
    """A relative-error target in (0, 1), read at a fixed 64 bits so that
    no value depends on the caller's mp.prec."""
    with mp.workprec(64):
        target = mp.mpf(precision)
    if not 0 < target < 1:
        raise ValueError(f"precision must be a relative error in (0, 1), got {target}")
    return target


def _working_bits(precision, arg) -> int:
    # guard digits: series cancellation grows like exp(arg) for J/Y
    bits = int(mp.ceil(-mp.log(precision, 2)))
    return max(96, bits + 48 + int(2 * arg))


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
