"""High-precision cylinder-function evaluators with two independent routes.

The numeric layer needs the decaying Macdonald function K_nu and the two
Hankel functions H1/H2 at real order and positive real argument.  Nothing
here trusts a library implementation: K and H1 are each computed by two
unrelated methods and the disagreement feeds the reported error bound.

Route one is quadrature.  K_nu(x) has the integral representation

    K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt,  x > 0,

whose integrand decays doubly exponentially, so the plain trapezoid rule
converges geometrically; the step is halved until the value settles and
the truncation tail is bounded analytically (cosh is convex, so the
exponent is dominated by its tangent line past the cutoff).  The Hankel
functions come from the same kernel pushed onto a tilted contour
u(t) = t + i theta tanh(t):

    H1_nu(x) = exp(-i nu pi/2)/(pi i) * integral exp(i x cosh u + nu u) du

over the rising contour (theta > 0).  At real order and argument
H2 = conj(H1) (DLMF 10.11), so H2 is the exact conjugate of H1 and every
contour runs at phase +1 only.  On the tilted contours the oscillation
turns into double-exponential decay and the same trapezoid engine
applies.  The kernel quadrature also uses the sinh companion on a
constant tilt; both contours share one truncation and tail-bound scaffold.
The trapezoid nodes come in pairs +-t, and each contour evaluates a pair
from one set of transcendentals: u(-t) = -u(t) on the cosh contour, so
the pair shares exp(i x cosh u) du and differs only in exp(+-nu u); on
the sinh contour sinh u(-t) = -conj(sinh u(t)), so both values come from
the same cosh t, sinh t and tilt angle.  The rule then sums f(t) + f(-t)
over t >= 0 on the full-line nodes, at half the integrand evaluations.

Route two is the power series: I_nu and J_nu from their ascending series,
K and Y by the reflection formulas at non-integer order and by the
digamma series at integer order.  mpmath supplies only arbitrary
precision arithmetic and elementary calls (exp, log, gamma, digamma);
its own Bessel implementations are never imported here.

The quadrature is the primary route for K and the series for H1/H2.  The
reported error is the quadrature's own bound plus the disagreement of
the two routes, so it covers whichever route is returned.  For the
Hankel kinds the quadrature is only a cross-check, so it runs to a
fraction (1/64) of the target rather than to the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def doubling_trapezoid(f, lo, hi, eps, nodes: int = 16):
    """Trapezoid value of integral_lo^hi f, starting from `nodes` steps and
    halving the step, at least 3 and at most 12 times, until the last
    refinement moves the value by less than eps in absolute terms.

    Returns (value, change_at_last_level).  The caller is responsible for
    choosing [lo, hi] so the integrand is negligible outside; for the
    analytic, strip-decaying integrands used here each halving roughly
    squares the accuracy, so the final change is a sound error proxy.
    """
    lo = mp.mpf(lo)
    hi = mp.mpf(hi)
    n = nodes
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


# -- route one: quadrature --


def _k_quadrature(order, arg, eps_abs):
    """K_nu by trapezoid on the cosh-kernel representation; even integrand."""
    nu = abs(mp.mpf(order))
    x = mp.mpf(arg)
    log_target = -mp.log(eps_abs) if eps_abs > 0 else mp.mpf(80)
    cutoff = _tail_cutoff(x, nu, log_target)

    def f(t):
        return mp.exp(-x * mp.cosh(t)) * mp.cosh(nu * t)

    half, change = doubling_trapezoid(f, 0, cutoff, eps_abs / 4)
    tail = _tangent_tail_bound(x, nu, cutoff)
    # f is even in t, so the half-line integral equals the [0, cutoff]
    # trapezoid minus half the t=0 node's double counting; the engine
    # already weights the endpoint by 1/2
    return half, change + tail


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
    value, change = doubling_trapezoid(folded, 0, cutoff, eps_abs / 4, nodes=8)
    tail = 2 * spread * _tangent_tail_bound(decay_scale, abs(drift), cutoff - 1)
    return value, change + tail, cutoff


def _cosh_sinh(t):
    """(cosh t, sinh t) from the one transcendental exp(t)."""
    e = mp.exp(t)
    ch = (e + 1 / e) / 2
    return ch, e - ch


def _contour_cosh_integral(arg, drift, eps_abs):
    """integral exp(i*arg*cosh u + drift*u) du on the tilted contour
    u(t) = t + i*theta*tanh(t), theta = pi/4.

    The tilt turns the oscillation into exp(-arg*sin(theta tanh t)*|sinh t|)
    decay; the opposite tilt would make the same factor grow.  Returns
    (value, error_bound, cutoff); see _tilted_quadrature.

    u(-t) = -u(t), so cosh u and du/dt are even in t: the node pair
    shares exp(i*arg*cosh u)*du and differs only in the factor
    exp(+-drift*u).
    """
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    theta = mp.pi / 4

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
    u = t + i*theta, theta = pi/4.

    The tilt makes the integrand decay like exp(-arg*sin(theta)*cosh t);
    the opposite tilt would make it grow like exp(+arg*sin(theta)*cosh t).
    Returns (value, error_bound, cutoff); see _tilted_quadrature.

    sinh(u(-t)) = -conj(sinh u(t)), so the node pair shares the decay
    exp(-arg*cosh(t)*sin(theta)) and the constant exp(i*drift*theta) of
    the tilt, and takes conjugate phases exp(+-i*arg*sinh(t)*cos(theta))
    with the drift factors exp(+-drift*t)."""
    x = mp.mpf(arg)
    a = mp.mpf(drift)
    theta = mp.pi / 4
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


def _h_quadrature(order, arg, eps_abs):
    """H1 from the rotated cosh-kernel contour."""
    nu = mp.mpf(order)
    x = mp.mpf(arg)
    raw, err, _ = _contour_cosh_integral(x, nu, eps_abs)
    return mp.expjpi(-nu / 2) / (mp.pi * 1j) * raw, err / mp.pi


# -- route two: series --

_MAX_TERMS = 20000


def _gamma_ratio_series(nu, x, signs):
    """sum_k signs^k (x/2)^{2k+nu} / (k! Gamma(k+nu+1)): I for signs=+1,
    J for signs=-1.  Terms are generated by ratio recursion, so a single
    Gamma call seeds the sum."""
    half = x / 2
    term = mp.power(half, nu) / mp.gamma(nu + 1)
    acc = term
    k = 0
    quarter = half * half
    tiny = mp.mpf(2) ** (-(mp.mp.prec + 8))
    scale = abs(term)
    while k < _MAX_TERMS:
        k += 1
        term = term * signs * quarter / (k * (k + nu))
        acc += term
        mag = abs(term)
        if mag > scale:
            scale = mag
        if mag < tiny * (abs(acc) + scale * tiny) and k > int(abs(x)) + 4:
            break
    else:
        raise ArithmeticError("series failed to converge")
    return acc


def _i_series(nu, x):
    nu = mp.mpf(nu)
    if nu < 0 and _is_integer(nu):
        nu = -nu  # I_{-n} = I_n
    return _gamma_ratio_series(nu, mp.mpf(x), 1)


def _j_series(nu, x):
    nu = mp.mpf(nu)
    sign = mp.mpf(1)
    if nu < 0 and _is_integer(nu):
        nu = -nu
        sign = mp.power(-1, nu)  # J_{-n} = (-1)^n J_n
    return sign * _gamma_ratio_series(nu, mp.mpf(x), -1)


def _is_integer(nu) -> bool:
    return nu == mp.floor(nu)


def _integer_order_sums(n, x, step):
    """The two sums of the integer-order K and Y series, with step = x^2/4
    for K and -x^2/4 for Y:

        finite = sum_{k<n} (n-k-1)!/k! (-step)^k
        acc    = sum_k (x/2)^n step^k/(k! (k+n)!) (psi(k+1) + psi(k+n+1))

    The digamma terms recurse like the I series, with the psi weights
    updated by harmonic increments."""
    half = x / 2
    finite = mp.mpf(0)
    for k in range(n):
        finite += mp.factorial(n - k - 1) / mp.factorial(k) * mp.power(-step, k)
    psi_a = mp.digamma(1)
    psi_b = mp.digamma(n + 1)
    term = mp.power(half, n) / mp.factorial(n)
    acc = term * (psi_a + psi_b)
    k = 0
    tiny = mp.mpf(2) ** (-(mp.mp.prec + 8))
    while k < _MAX_TERMS:
        k += 1
        term = term * step / (k * (k + n))
        psi_a += mp.mpf(1) / k
        psi_b += mp.mpf(1) / (k + n)
        inc = term * (psi_a + psi_b)
        acc += inc
        if abs(inc) < tiny * abs(acc) and k > int(abs(x)) + 4:
            break
    else:
        raise ArithmeticError("series failed to converge")
    return finite, acc


def _k_series(order, x):
    """K_nu via reflection (non-integer) or the digamma series (integer)."""
    nu = abs(mp.mpf(order))
    x = mp.mpf(x)
    if not _is_integer(nu):
        return (mp.pi / 2) * (_i_series(-nu, x) - _i_series(nu, x)) / mp.sinpi(nu)
    n = int(nu)
    half = x / 2
    finite, acc = _integer_order_sums(n, x, half * half)
    finite = finite / 2 * mp.power(half, -n)
    logpart = mp.power(-1, n + 1) * mp.log(half) * _i_series(n, x)
    return finite + logpart + mp.power(-1, n) * acc / 2


def _y_series(order, x):
    """Y_nu via reflection (non-integer) or the digamma series (integer)."""
    nu = mp.mpf(order)
    x = mp.mpf(x)
    if not _is_integer(nu):
        return (_j_series(nu, x) * mp.cospi(nu) - _j_series(-nu, x)) / mp.sinpi(nu)
    n = int(nu)
    sign = mp.mpf(1)
    if n < 0:
        # Y_{-n} = (-1)^n Y_n
        n = -n
        sign = mp.power(-1, n)
    half = x / 2
    finite, acc = _integer_order_sums(n, x, -(half * half))
    finite = -finite / mp.pi * mp.power(half, -n)
    logpart = (2 / mp.pi) * mp.log(half) * _j_series(n, x)
    return sign * (finite + logpart - acc / mp.pi)


def _h_series(order, x):
    """H1 = J + iY."""
    return _j_series(order, x) + 1j * _y_series(order, x)


# -- public entry point --


def _working_bits(precision, arg) -> int:
    # guard digits: series cancellation grows like exp(arg) for J/Y
    bits = int(mp.ceil(-mp.log(precision, 2)))
    return max(96, bits + 48 + int(2 * arg))


def _reflection_guard_bits(order, bits) -> int:
    """Extra bits for the reflection formulas near an integer order, which
    lose -log2|sin(pi nu)| bits to cancellation; the base guard already
    covers 40 of them.  The order is read at the working precision, so an
    offset like 1 + 1e-20 is not rounded away."""
    with mp.workprec(bits):
        nu = mp.mpmathify(order)
        if not isinstance(nu, mp.mpf):
            return 0  # rejected with a ValueError once evaluation starts
        s = abs(mp.sinpi(nu))
    if s == 0:
        return 0  # integer orders take the digamma series, no reflection
    return max(0, int(mp.floor(-mp.log(s, 2))) - 40)


def bessel_eval(kind: str, order, arg, precision=None) -> ComplexValue:
    """Evaluate K/H1/H2 at real order in (-2, 2) and positive real argument.

    `precision` is the target relative error, in (0, 1) (default 1e-25).
    The primary method per kind follows the module docstring (quadrature
    for K, series for H1/H2); the other route is always computed as a
    cross-check.  err_estimate is the quadrature's bound plus the
    disagreement of the routes plus rounding; for H1/H2 the quadrature
    runs to precision/64 of the value, so its bound stays well inside the
    target.  If the certified relative error exceeds the target,
    PrecisionError carries the achieved bound.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if precision is None:
        precision = mp.mpf("1e-25")
    precision = mp.mpf(precision)
    if not 0 < precision < 1:
        raise ValueError(f"precision must be a relative error in (0, 1), got {precision}")
    # provisional low-precision reads only size the guard bits; the real
    # conversion happens inside the working-precision block so decimal
    # strings and Fractions keep their full value
    arg_rough = abs(float(mp.mpmathify(arg)))
    bits = _working_bits(precision, arg_rough)
    bits += _reflection_guard_bits(order, bits)
    with mp.workprec(bits):
        order_f = mp.mpmathify(order)
        arg_f = mp.mpmathify(arg)
        if isinstance(order_f, mp.mpc) or isinstance(arg_f, mp.mpc):
            raise ValueError("order and argument must be real")
        if not abs(order_f) < ORDER_LIMIT:
            raise ValueError(
                f"order {order} outside the supported window (-2, 2)"
            )
        if not arg_f > 0:
            raise ValueError("argument must be a positive real")
        if kind == "K":
            eps_work = mp.mpf(2) ** (-(bits - 24))
            scale_guess = mp.exp(-arg_f) + mp.power(arg_f / 2, -abs(order_f))
            primary, q_err = _k_quadrature(order_f, arg_f, eps_work * scale_guess)
            secondary = _k_series(order_f, arg_f)
            value = mp.mpc(primary)
        else:
            value = mp.mpc(_h_series(order_f, arg_f))
            secondary, q_err = _h_quadrature(order_f, arg_f, precision / 64 * abs(value))
        # the quadrature's bound covers its own error, so the disagreement
        # plus that bound covers the other route's (triangle inequality)
        err = q_err + abs(value - secondary) + mp.mpf(2) ** (-(bits - 8)) * abs(value)
        if kind == "H2":
            value = mp.conj(value)  # H2 = conj(H1) at real order and argument (DLMF 10.11)
        result = ComplexValue(re=+value.real, im=+value.imag, err_estimate=+err)
        rel = result.rel_err()
        if not rel <= precision:
            raise PrecisionError(
                f"{kind}(order={order}, arg={arg}): certified relative error "
                f"{mp.nstr(rel, 5)} misses the target {mp.nstr(precision, 5)}",
                achieved=rel,
            )
    return result
