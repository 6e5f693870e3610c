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
route: the Hankel cosh kernel on u(t) = t + i theta tanh(t),

    H1_nu(x) = exp(-i nu pi/2)/(pi i) * integral exp(i x cosh u + nu u) du,

and its sinh companion on a constant tilt.  There the oscillation turns
into double-exponential decay, so the plain trapezoid rule converges
geometrically; the step is halved until the value settles, and the
truncation tail is bounded analytically.  Both contours share that
scaffold, run at phase +1 only, and sum each trapezoid node pair +-t from
one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

__all__ = [
    "ComplexValue",
    "PrecisionError",
    "bessel_eval",
    "doubling_trapezoid",
]

KINDS = ("K", "H1", "H2")

# orders are kept inside the open interval (-2, 2); the artifact never
# needs more and the series bookkeeping below assumes it
ORDER_LIMIT = 2

# the tilt theta of both tilted contours, in units of pi
_TILT = 0.25


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


def doubling_trapezoid(f, lo, hi, eps):
    """Trapezoid value of integral_lo^hi f, starting from 8 steps and
    halving the step, at least 3 and at most 12 times, until the last
    refinement moves the value by less than eps in absolute terms.

    Returns (value, change_at_last_level).  The caller is responsible for
    choosing [lo, hi] so the integrand is negligible outside; for the
    analytic, strip-decaying integrands used here each halving roughly
    squares the accuracy, so the final change is a sound error proxy.
    """
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    n = 8
    h = (hi - lo) / n
    total = (f(lo) + f(hi)) / 2
    for k in range(1, n):
        total += f(lo + k * h)
    value = total * h
    change = mp.inf
    for level in range(1, 13):
        mid = mp.mpc(0)
        for k in range(n):
            mid += f(lo + (k + mp.mpf("0.5")) * h)
        new_value = value / 2 + mid * h / 2
        change = abs(new_value - value)
        value = new_value
        n *= 2
        h /= 2
        if level >= 3 and change <= eps:
            break
    return value, change


def _tail_cutoff(decay_scale, drift, log_target):
    """Smallest T with decay_scale*cosh(T) - drift*T >= log_target, padded.

    decay_scale > 0, drift >= 0.  Used to truncate integrands bounded by
    exp(-decay_scale*cosh t + drift*t); three rounds of the fixed point
    T = acosh((log_target + drift*T)/decay_scale) overshoot enough.
    """
    t = mp.mpf(2)
    for _ in range(3):
        inner = (log_target + drift * t + 4) / decay_scale
        if inner < 2:
            inner = mp.mpf(2)
        t = mp.acosh(inner)
    return t


def _tangent_tail_bound(decay_scale, drift, cutoff):
    """Bound on integral_cutoff^inf exp(-decay_scale*cosh t + drift*t) dt.

    Convexity of cosh gives cosh t >= cosh T + sinh(T)(t - T), so the tail
    is dominated by a single exponential whenever the slope is positive.
    """
    slope = decay_scale * mp.sinh(cutoff) - drift
    if slope <= 0:
        return mp.inf
    return mp.exp(-(decay_scale * mp.cosh(cutoff) - drift * cutoff)) / slope


# -- the tilted contours --


def _tilted_quadrature(pair, decay_scale, drift, spread, eps_abs):
    """integral of f over the real line for an integrand on a tilted
    contour whose tails are bounded by spread*exp(-decay_scale*cosh t +
    |drift|*t): truncated at the tail cutoff, summed by the doubling
    trapezoid, plus the tangent-line bound on both tails.  Returns
    (value, error_bound, cutoff).  Raises ArithmeticError if f fails to
    decay at the cutoff (wrong tilt for the data).

    The integrand arrives as its node pair, pair(t) = (f(t), f(-t)) for
    t >= 0, so the rule sums f(t) + f(-t) over [0, cutoff] with the
    full-line step 2*cutoff/16: the same nodes and the same sums as the
    full-line rule, with one pair evaluation per two nodes."""
    log_target = -mp.log(eps_abs) if eps_abs > 0 else mp.mpf(80)
    cutoff = _tail_cutoff(decay_scale, abs(drift), log_target) + 1
    anchor = abs(pair(mp.mpf(0))[0])
    edge = max(abs(v) for v in pair(cutoff))
    if not edge < anchor * mp.mpf("1e-6") + eps_abs:
        raise ArithmeticError("tilted integrand fails to decay at the cutoff")

    def folded(t):
        plus, minus = pair(t)
        return plus + minus

    # the t = 0 node carries f(0) + f(-0) at the endpoint weight 1/2,
    # which is f(0) at weight one, as on the full line
    value, change = doubling_trapezoid(folded, 0, cutoff, eps_abs / 4)
    tail = 2 * spread * _tangent_tail_bound(decay_scale, abs(drift), cutoff - 1)
    return value, change + tail, cutoff


def _cosh_sinh(t):
    """(cosh t, sinh t) from the one transcendental exp(t)."""
    e = mp.exp(t)
    ch = (e + 1 / e) / 2
    return ch, e - ch


def _contour_cosh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*cosh u + drift*u) du on the tilted contour
    u(t) = t + i*theta*tanh(t), theta = _TILT*pi.

    The tilt turns the oscillation into exp(-arg*sin(theta tanh t)*|sinh t|)
    decay; the opposite tilt would make the same factor grow.  Returns
    (value, error_bound, cutoff); see _tilted_quadrature.

    u(-t) = -u(t), so cosh u and du/dt are even in t: the node pair
    shares exp(i*arg*cosh u)*du and differs only in the factor
    exp(+-drift*u).
    """
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    theta = _TILT * mp.pi

    def pair(t):
        ch, sh = _cosh_sinh(t)
        phi = theta * sh / ch  # Im u
        c_phi, s_phi = mp.cos_sin(phi)
        # exp(i*x*cosh u) * du, with cosh u = ch*c_phi + i*sh*s_phi
        # and du = 1 + i*theta/ch^2
        mag = mp.exp(-x * sh * s_phi)
        c, s = mp.cos_sin(x * ch * c_phi)
        shared = mp.mpc(mag * c, mag * s) * mp.mpc(1, theta / (ch * ch))
        # exp(+-drift*u) = exp(+-a*t) * (cos(a*phi) +- i*sin(a*phi))
        grow = mp.exp(a * t)
        c_a, s_a = mp.cos_sin(a * phi)
        return (
            shared * mp.mpc(grow * c_a, grow * s_a),
            shared * mp.mpc(c_a / grow, -s_a / grow),
        )

    # past |t| = 2 the tilt is within 4% of theta; use that slack in the
    # bound, and |du| <= 1 + theta
    return _tilted_quadrature(pair, x * mp.sin(theta * mp.tanh(mp.mpf(2))), a, 1 + theta, eps_abs)


def _contour_sinh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*sinh u + drift*u) du on the constant tilt
    u = t + i*theta, theta = _TILT*pi.

    The tilt makes the integrand decay like exp(-arg*sin(theta)*cosh t);
    the opposite tilt would make it grow like exp(+arg*sin(theta)*cosh t).
    Returns (value, error_bound, cutoff); see _tilted_quadrature.

    sinh(u(-t)) = -conj(sinh u(t)), so the node pair shares the decay
    exp(-arg*cosh(t)*sin(theta)) and the constant exp(i*drift*theta) of
    the tilt, and takes conjugate phases exp(+-i*arg*sinh(t)*cos(theta))
    with the drift factors exp(+-drift*t)."""
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    theta = _TILT * mp.pi
    c_psi, s_psi = mp.cos_sin(theta)
    turn = mp.expj(a * theta)

    def pair(t):
        ch, sh = _cosh_sinh(t)
        shared = turn * mp.exp(-x * ch * s_psi)
        grow = mp.exp(a * t)
        c, s = mp.cos_sin(x * sh * c_psi)
        return (
            shared * mp.mpc(grow * c, grow * s),
            shared * mp.mpc(c / grow, -s / grow),
        )

    return _tilted_quadrature(pair, x * mp.sin(theta), a, 1, eps_abs)


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
