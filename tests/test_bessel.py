"""Cylinder-function evaluator tests.

The four classical identities (half-integer closed form, three-term K
recurrence, Hankel Wronskian, conjugation symmetry) are frozen here as
numerical oracles; mpmath's own Bessel implementations appear only in
this file, as an extra independent referee for the in-repo routes.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from fsusy import bessel
from fsusy.bessel import (
    ComplexValue,
    PrecisionError,
    bessel_eval,
)


def _val(kind, order, arg, prec="1e-30"):
    return bessel_eval(kind, order, arg, precision=mp.mpf(prec)).to_mpc()


# -- frozen closed-form oracles --


def test_k_half_integer_closed_form():
    got = _val("K", Fraction(1, 2), 1)
    with mp.workdps(50):
        want = mp.sqrt(mp.pi / 2) * mp.exp(-1)
        assert abs(got - want) < mp.mpf("1e-10")
        # independently frozen decimal digits of sqrt(pi/2)/e
        assert abs(got - mp.mpf("0.46106850444789455844")) < mp.mpf("1e-10")


def test_k_recurrence_three_term():
    nu, x = mp.mpf("0.4"), mp.mpf("1.5")
    with mp.workdps(50):
        resid = (
            _val("K", nu + 1, x)
            - _val("K", nu - 1, x)
            - (2 * nu / x) * _val("K", nu, x)
        )
        assert abs(resid) < mp.mpf("1e-9")


def test_hankel_wronskian():
    nu, x = mp.mpf("0.3"), mp.mpf("2")

    def deriv(kind):
        return (_val(kind, nu - 1, x) - _val(kind, nu + 1, x)) / 2

    with mp.workdps(50):
        wron = _val("H1", nu, x) * deriv("H2") - deriv("H1") * _val("H2", nu, x)
        assert abs(wron - (-4j / (mp.pi * x))) < mp.mpf("1e-8")


def test_hankel_conjugation_symmetry():
    # H2 = conj(H1) at real order and argument, exactly: both routes
    # evaluate the two kinds from conjugate data
    for nu, x in [(mp.mpf("0.3"), mp.mpf("2")), (mp.mpf("-1.2"), mp.mpf("0.5"))]:
        h1 = bessel_eval("H1", nu, x, precision=mp.mpf("1e-30"))
        h2 = bessel_eval("H2", nu, x, precision=mp.mpf("1e-30"))
        assert h2.re == h1.re
        assert h2.im == mp.fneg(h1.im, exact=True)
        assert h2.err_estimate == h1.err_estimate


# -- cross-checks against the external referee (tests only) --

REFEREE = {"K": mp.besselk, "H1": mp.hankel1, "H2": mp.hankel2}

GRID = [
    ("K", "0", "1"),
    ("K", "0.3", "0.25"),
    ("K", "-1.3", "4"),
    ("K", "1", "2"),
    ("K", "1.99", "0.25"),
    ("H1", "0", "1"),
    ("H1", "0.3", "2"),
    ("H1", "-1.2", "0.5"),
    ("H1", "1", "1.5"),
    ("H2", "0.3", "2"),
    ("H2", "-1", "3"),
    ("H2", "1.9", "4"),
]


@pytest.mark.parametrize("kind,order,arg", GRID)
def test_against_mpmath(kind, order, arg):
    # decimal strings go through uninterpreted; both sides parse them at
    # their own full working precision
    got = bessel_eval(kind, order, arg, precision=mp.mpf("1e-30"))
    with mp.workdps(60):
        want = REFEREE[kind](mp.mpf(order), mp.mpf(arg))
        err = abs(got.to_mpc() - want)
        assert err < mp.mpf("1e-30") * abs(want)
        # the reported bound must dominate the true error
        assert err <= got.err_estimate


def test_integer_order_digamma_branch():
    # exactly-integer orders take the log/digamma series, not reflection
    got = _val("K", 1, 2)
    with mp.workdps(50):
        assert abs(got - mp.besselk(1, 2)) < mp.mpf("1e-30")
    got = _val("H1", -1, 3)
    with mp.workdps(50):
        assert abs(got - mp.hankel1(-1, 3)) < mp.mpf("1e-28") * abs(got)


# -- plumbing and contracts --


def test_complex_value_plumbing():
    v = bessel_eval("H1", "0.3", "2")
    assert isinstance(v, ComplexValue)
    with mp.workprec(400):
        assert v.to_mpc() == mp.mpc(v.re, v.im)
    assert abs(complex(v) - complex(v.to_mpc())) < 1e-12
    assert v.rel_err() < mp.mpf("1e-25")
    assert "+-" in v.pretty()


def test_determinism():
    a = bessel_eval("K", mp.mpf("0.3"), mp.mpf("1.5"))
    b = bessel_eval("K", mp.mpf("0.3"), mp.mpf("1.5"))
    assert (a.re, a.im, a.err_estimate) == (b.re, b.im, b.err_estimate)


def test_input_guards():
    with pytest.raises(ValueError):
        bessel_eval("J", 0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_eval("K", 2.0, 1.0)
    with pytest.raises(ValueError):
        bessel_eval("K", 0.3, 0)
    with pytest.raises(ValueError):
        bessel_eval("H1", -2.5, 1.0)


@pytest.mark.parametrize("precision", [0, -1e-10, "nan", 1, 2])
def test_precision_must_be_a_relative_error(precision):
    with pytest.raises(ValueError, match="precision"):
        bessel_eval("H1", "0.3", "2", precision=precision)


def test_precision_error_carries_achieved_bound(monkeypatch):
    import fsusy.bessel as bessel

    # starve the evaluator of working bits so the target is unreachable
    monkeypatch.setattr(bessel, "_working_bits", lambda precision, arg: 64)
    with pytest.raises(PrecisionError) as exc:
        bessel_eval("K", mp.mpf("0.3"), mp.mpf("1.0"), precision=mp.mpf("1e-40"))
    assert exc.value.achieved > mp.mpf("1e-40")


def test_trapezoid_engine_on_gaussian():
    # exp(-t^2) is entire and integral |exp(-(t + iy)^2)| dt = sqrt(pi)*exp(y^2),
    # so the strip bound's M is exact at every half-width; past the cutoff
    # the nodes weigh at most sqrt(pi)*erfc(11) < 2^-170 in all.  The pair
    # hands the engine 2f on its integers at w = 200 bits, rounded down
    def gauss(t, e, g):
        f = int(mp.ldexp(2 * mp.exp(-mp.ldexp(t, -200) ** 2), 200))
        return f, 0, f

    with mp.workprec(200):
        target = mp.mpf(2) ** -120
        cutoff = mp.mpf(11)
        tail = mp.sqrt(mp.pi) * mp.erfc(cutoff)
        for strip in (0.5, 2.0, 4.0, 8.0):
            log_mass = math.log(math.pi) / 2 + strip * strip
            value, size, terms = bessel._trapezoid_rule(
                gauss, 0, strip, log_mass, 11.0, target, (0.0, 1.0)
            )
            bound = terms["discretisation"]
            assert abs(value - mp.sqrt(mp.pi)) <= bound + tail + mp.mpf(2) ** -190, strip
            assert bound <= target, strip
            assert terms["cutoff"] == (terms["node_pairs"] - 1) * terms["step"] <= cutoff
            assert size <= 2 * mp.sqrt(mp.pi)


@pytest.mark.parametrize("kind", ["K", "H1", "H2"])
@pytest.mark.parametrize(
    "order", ["1e-20", Fraction(10**20 + 1, 10**20), "-1e-30"], ids=["1e-20", "1+1e-20", "-1e-30"]
)
def test_near_integer_orders_meet_the_default_target(kind, order):
    # the reflection formulas cancel -log2|sin(pi nu)| bits here
    got = bessel_eval(kind, order, 1)
    assert got.err_estimate <= mp.mpf("3e-28")
    with mp.workdps(60):
        nu = mp.mpmathify(order)
        if kind == "K":
            want = mp.besselk(nu, 1)
        else:
            sign = 1 if kind == "H1" else -1
            want = mp.besselj(nu, 1) + sign * 1j * mp.bessely(nu, 1)
        assert abs(got.to_mpc() - want) <= mp.mpf("1e-25") * abs(want)


# -- the Hankel error bound against the referee --
#
# The series value is returned with the radius of its interval box as
# the bound; the bound must cover the true error at every target.


_NEAR_INTEGER = {Fraction(1, 10**20): "1e-20", Fraction(10**20 + 1, 10**20): "1+1e-20"}


def _hankel_bound_points(count=48, seed=14):
    rng = random.Random(seed)
    exponents = [10 + (35 * i) // (count - 1) for i in range(count)]
    rng.shuffle(exponents)
    near_integer = tuple(_NEAR_INTEGER)
    points = []
    for i, exponent in enumerate(exponents):
        if i % 3 < 2:
            order = near_integer[i % 3]
        else:
            order = Fraction(rng.randint(-190, 190), 100)
        arg = Fraction(rng.randint(1, 90), 10)
        points.append((("H1", "H2")[i % 2], order, arg, f"1e-{exponent}"))
    return points


_HANKEL_BOUND_POINTS = _hankel_bound_points()


@pytest.mark.parametrize(
    "kind, order, arg, target",
    _HANKEL_BOUND_POINTS,
    ids=[f"{k}-nu{_NEAR_INTEGER.get(o, o)}-x{a}-{t}" for k, o, a, t in _HANKEL_BOUND_POINTS],
)
def test_hankel_bound_covers_the_true_error(kind, order, arg, target):
    got = bessel_eval(kind, order, arg, precision=target)
    with mp.workdps(120):
        want = REFEREE[kind](mp.mpmathify(order), mp.mpmathify(arg))
        value = got.to_mpc()
        assert abs(value - want) <= got.err_estimate
        assert got.err_estimate <= mp.mpf(target) * abs(value)


# -- the full-line rule the paired nodes stand for --
#
# The reference keeps one complex integrand per node and sums the
# full-line trapezoid rule over k = -N..N at the library's a-priori step
# h and cutoff N*h; the library folds each +-t node pair into one
# evaluation over k = 0..N.  Same nodes, same sums: the two must agree to
# rounding, with 2N + 1 full-line nodes against N + 1 pairs.


def _full_line_rule(f, step, n, calls):
    total = mp.mpc(0)
    for k in range(-n, n + 1):
        calls.append(k)
        total += f(k * step)
    return total * step


def _reference_cosh(x, a, sgn):
    theta = bessel._COSH_TILT * mp.pi

    def f(t):
        u = t + 1j * sgn * theta * mp.tanh(t)
        du = 1 + 1j * sgn * theta / mp.cosh(t) ** 2
        return mp.exp(1j * sgn * x * mp.cosh(u) + a * u) * du

    return f


def _reference_sinh(x, a, sgn):
    shift = 1j * sgn * bessel._SINH_TILT * mp.pi

    def f(t):
        u = t + shift
        return mp.exp(1j * sgn * x * mp.sinh(u) + a * u)

    return f


_CONTOURS = {
    "cosh": (bessel._contour_cosh_integral, _reference_cosh),
    "sinh": (bessel._contour_sinh_integral, _reference_sinh),
}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("phase", [1, -1])
@pytest.mark.parametrize("family", ["cosh", "sinh"])
def test_paired_nodes_match_the_full_line_rule(monkeypatch, family, phase, bits):
    # the engine evaluates each node pair once
    pair_calls = []
    engine = bessel._trapezoid_rule

    def counted(pair, *args):
        def counting(t, e, g):
            pair_calls.append(t)
            return pair(t, e, g)

        return engine(counting, *args)

    monkeypatch.setattr(bessel, "_trapezoid_rule", counted)
    paired, reference = _CONTOURS[family]
    with mp.workprec(bits):
        eps = mp.mpf(2) ** -(bits // 2)
        rounding = mp.mpf(2) ** -(bits - 8)
        for drift in ("-1.9", "-0.3", "0", "0.7", "1.9"):
            for arg in ("0.5", "1.3", "4"):
                x, a = mp.mpf(arg), mp.mpf(drift)
                del pair_calls[:]
                # the library runs phase +1 only; phase -1 is its conjugate
                got, got_err, terms = paired(x, a, eps)
                if phase < 0:
                    got = mp.conj(got)
                n = terms["node_pairs"] - 1
                ref_calls = []
                want = _full_line_rule(reference(x, a, phase), terms["step"], n, ref_calls)
                case = f"{family} phase={phase} drift={drift} arg={arg} bits={bits}"
                assert terms["cutoff"] == n * terms["step"], case
                assert abs(got - want) <= rounding * abs(want), case
                assert got_err <= eps, case
                assert len(pair_calls) == terms["node_pairs"], case
                assert 2 * len(pair_calls) - 1 == len(ref_calls), case


def test_cosh_strip_cells_enclose_the_strip():
    # a dense sample of the strip |Im t| <= a at s >= 0 (u(-t) = -u(t)
    # mirrors it), computed at 100 bits: each cell's enclosure holds G,
    # Re u and |u'| of every sample in it, and the far tuple bounds s >= 3
    cells, (delta, sigma, du_far) = bessel._cosh_strip_cells()
    assert len(cells) * bessel._CELL == bessel._FAR
    with mp.workprec(100):
        theta = bessel._COSH_TILT * mp.pi
        a = bessel._COSH_STRIP * theta
        heights = [a * j / 24 for j in range(-24, 25)]

        def geometry(s, y):
            t = mp.mpc(s, y)
            u = t + 1j * theta * mp.tanh(t)
            return u, mp.sinh(u.real) * mp.sin(u.imag), abs(1 + 1j * theta / mp.cosh(t) ** 2)

        for j, (g_lo, re_lo, re_hi, du) in enumerate(cells):
            for i in range(5):
                s = (j + mp.mpf(i) / 4) * bessel._CELL
                for y in heights:
                    u, g, d = geometry(s, y)
                    case = (j, float(s), float(y))
                    assert g >= g_lo, case
                    assert re_lo <= u.real <= re_hi, case
                    assert d <= du, case
        for i in range(21):
            s = bessel._FAR + mp.mpf(i) / 4
            for y in heights:
                u, g, d = geometry(s, y)
                case = (float(s), float(y))
                assert abs(u.real - s) <= delta, case
                assert mp.sin(u.imag) >= sigma, case
                assert g >= sigma * mp.sinh(s - delta), case
                assert d <= du_far, case


def _h_quadrature(order, arg, eps_abs):
    """H1 from the rotated cosh-kernel contour."""
    raw, err, _ = bessel._contour_cosh_integral(arg, order, eps_abs)
    return mp.expjpi(-order / 2) / (mp.pi * 1j) * raw, err / mp.pi


@pytest.mark.parametrize("kind", ["H1", "H2"])
@pytest.mark.parametrize("order", ["-1.7", "-0.3", "0.45", "1.6"])
@pytest.mark.parametrize("arg", ["0.3", "2", "7"])
def test_hankel_quadrature_against_mpmath(kind, order, arg):
    with mp.workdps(60):
        nu, x = mp.mpf(order), mp.mpf(arg)
        want = (mp.hankel1 if kind == "H1" else mp.hankel2)(nu, x)
        # the quadrature runs H1 only; H2 = conj(H1) at real order and argument
        got, err = _h_quadrature(nu, x, mp.mpf("1e-50") * abs(want))
        if kind == "H2":
            got = mp.conj(got)
        assert err <= mp.mpf("1e-49") * abs(want)
        assert abs(got - want) <= err + mp.mpf("1e-57") * abs(want)


# -- the certified quadrature bound against the referee --
#
# Each contour integral has a closed form, 2*exp(i*a*pi/2)*K_a(x) for the
# sinh contour and pi*i*exp(i*a*pi/2)*H1_a(x) for the cosh one.  At the
# kernels' working precision and absolute target, the one-pass rule's
# value must lie within its returned bound of mpmath at 600 bits, and the
# bound within the target.  A strip overstated 2x or M understated 1000x
# in `_tilted_quadrature` fails this.


def _quadrature_gate_cases(seed=29):
    rng = random.Random(seed)
    cases = []
    for family in ("cosh", "sinh"):
        for arg in ("0.05", "0.4", "2", "7", "12"):
            for i, target in enumerate(("1e-10", "1e-16", "1e-30", "1e-45")):
                drift = ("-0.999", "0.999", f"{rng.randint(-998, 998) / 1000}")[i % 3]
                cases.append((family, arg, drift, target))
    return cases


_QUADRATURE_GATE = _quadrature_gate_cases()


@pytest.mark.parametrize("family, arg, drift, target", _QUADRATURE_GATE)
def test_quadrature_bound_encloses_the_referee(family, arg, drift, target):
    contour = getattr(bessel, f"_contour_{family}_integral")
    with mp.workprec(bessel._working_bits(mp.mpf(target), float(arg))):
        x, a = mp.mpf(arg), mp.mpf(drift)
        eps_abs = mp.mpf(target) / 16 * mp.exp(-x)
        value, bound, terms = contour(x, a, eps_abs)
        assert bound == terms["discretisation"] + terms["tail"] + terms["rounding"]
    with mp.workprec(600):
        x, a = mp.mpf(arg), mp.mpf(drift)
        if family == "sinh":
            want = 2 * mp.expjpi(a / 2) * mp.besselk(a, x)
        else:
            want = mp.pi * 1j * mp.expjpi(a / 2) * mp.hankel1(a, x)
        assert abs(value - want) <= bound
    assert bound <= eps_abs


def _referee(family, x, a):
    """The contour integral's closed form at the ambient precision."""
    if family == "sinh":
        return 2 * mp.expjpi(a / 2) * mp.besselk(a, x)
    return mp.pi * 1j * mp.expjpi(a / 2) * mp.hankel1(a, x)


# -- the rounding term where it dominates --
#
# At a working precision this low, the rounding term is nearly all of the
# bound, so the bound stands on the rounding count alone.  On the cosh
# case the phase x*cosh u is about 10^3, so leaving the phase sensitivity
# out of the count, or charging each node one unit, fails this.


@pytest.mark.parametrize(
    "family, arg, drift, bits", [("cosh", "1000", "0.3", 46), ("sinh", "0.05", "0.999", 40)]
)
def test_bound_encloses_the_referee_where_rounding_dominates(family, arg, drift, bits):
    contour = getattr(bessel, f"_contour_{family}_integral")
    with mp.workprec(bits):
        value, bound, terms = contour(mp.mpf(arg), mp.mpf(drift), mp.mpf("1e-12"))
        assert bound == terms["discretisation"] + terms["tail"] + terms["rounding"]
        assert 2 * terms["rounding"] >= bound
    with mp.workprec(600):
        assert abs(value - _referee(family, mp.mpf(arg), mp.mpf(drift))) <= bound


# -- the fixed-point elementary pieces --
#
# exp by ln 2 reduction and cos/sin by quadrants of pi/2, against mpmath
# at 600 bits: each result within the 2 units the rounding term charges
# a basecase, and an exp below one unit shifted out to 0.


@pytest.mark.parametrize("w", [64, 96, 200, 512])
def test_fixed_point_exp_matches_mpmath(w):
    rng = random.Random(w)
    with mp.workprec(600):
        ln2 = mp.log(2)
        # decays out past underflow, and the growths of the step products
        args = [-rng.randrange((w + 16) << w) for _ in range(60)]
        args += [rng.randrange(4 << w) for _ in range(20)] + [0, -(w << w)]
        for y in args:
            m, q = bessel._exp_fixed(y, w)
            exact = mp.exp(mp.ldexp(y, -w))
            assert q == mp.floor(mp.ldexp(y, -w) / ln2), y
            assert abs(m - mp.ldexp(exact, w - q)) <= 2, y
            if q < 0:
                shifted = m >> -q
                assert abs(shifted - mp.ldexp(exact, w)) <= 3, y
                if exact < mp.ldexp(1, -w - 2):
                    assert shifted == 0, y


@pytest.mark.parametrize("w", [64, 96, 200, 512])
def test_fixed_point_cos_sin_matches_mpmath(w):
    rng = random.Random(w)
    wc = w + bessel._COS_GUARD
    with mp.workprec(600):
        # phases up to 10^4, small ones, and the edges of the quadrants
        phases = [rng.randrange(10**4 << wc) for _ in range(60)]
        phases += [rng.randrange(1 << wc) for _ in range(10)]
        for k in range(1, 9):
            edge = int(mp.ldexp(k * mp.pi / 2, wc))
            phases += [edge - 1, edge, edge + 1]
        for z in phases:
            c, s = bessel._cos_sin_fixed(z, w)
            phi = mp.ldexp(z, -wc)
            assert abs(c - mp.ldexp(mp.cos(phi), w)) <= 2, z
            assert abs(s - mp.ldexp(mp.sin(phi), w)) <= 2, z


# -- the binary64 set-up against the mpf formulas --
#
# The reference is the set-up as it ran in mpf, kept here at 256 bits.
# The binary64 one must bound it from the safe side: mass, spread, tail
# and cutoff no smaller, decay no larger, at every gate case, at the
# extremes of the argument and drift, and at a target of 1e-400.

_MPF_PAD = 1 + mp.mpf(2) ** -30


def _cosh_tail_mpf(c, b, start):
    v1 = max(start, mp.asinh((b + 1) / c))
    width = v1 - start
    head = mp.exp(b * start - c * mp.cosh(start)) * (mp.expm1(b * width) / b if b else width)
    return head + mp.exp(b * v1 - c * mp.cosh(v1)) / (c * mp.sinh(v1) - b)


def _tail_cutoff_mpf(decay_scale, growth, spread, start, share):
    c, b = decay_scale, growth
    t = start = max(start, mp.asinh((b + 1) / c))
    log_target = mp.log(2 * spread * _MPF_PAD / share)
    for _ in range(4):
        inner = (log_target + b * t - mp.log(c * mp.sinh(t) - b)) / c
        t = max(start, mp.acosh(max(1, inner)))
    while 2 * spread * _MPF_PAD * _cosh_tail_mpf(c, b, t) > share:
        t += t / 1024
    return t


def _cosh_bounds_mpf(x, a):
    theta = bessel._COSH_TILT * mp.pi
    b = abs(a)
    cells, (delta, sigma, du) = bessel._cosh_strip_cells()
    mass = 0
    for g_lo, re_lo, re_hi, d_hi in cells:
        mass += d_hi * mp.exp(-x * g_lo) * (mp.exp(b * re_hi) + mp.exp(-b * re_lo))
    mass *= bessel._CELL
    c = x * sigma
    start = bessel._FAR - delta
    for drift in (b, -b):
        mass += du * mp.exp(2 * b * delta + c * mp.exp(-start)) * _cosh_tail_mpf(c, drift, start)
    decay = x * mp.sin(theta * mp.tanh(2))
    return decay, (1 + theta) * mp.exp(decay * mp.exp(-2)), 2, mass


def _sinh_bounds_mpf(x, a):
    theta = bessel._SINH_TILT * mp.pi
    z = x * mp.sin((1 - bessel._SINH_STRIP) * theta)
    return x * mp.sin(theta), 1, 0, _cosh_tail_mpf(z, a, 0) + _cosh_tail_mpf(z, -a, 0)


_SETUP_CASES = _QUADRATURE_GATE + [
    (family, arg, drift, target)
    for family in ("cosh", "sinh")
    for arg in ("1e-3", "60")
    for drift in ("0", "-0.999", "0.999")
    for target in ("1e-16", "1e-400")
]


@pytest.mark.parametrize("family, arg, drift, target", _SETUP_CASES)
def test_binary64_setup_bounds_the_mpf_formulas(family, arg, drift, target):
    new = getattr(bessel, f"_{family}_bounds")
    old = _cosh_bounds_mpf if family == "cosh" else _sinh_bounds_mpf
    with mp.workprec(256):
        x, a = mp.mpf(arg), mp.mpf(drift)
        eps_abs = mp.mpf(target) / 16 * mp.exp(-x)
        _, _, decay, growth, log_spread, start, log_mass = new(x, a)
        ref_decay, ref_spread, ref_start, ref_mass = old(x, a)
        assert start == ref_start and growth == abs(a)
        assert decay <= ref_decay
        assert mp.exp(log_spread) >= ref_spread
        assert mp.exp(log_mass) >= ref_mass
        share = eps_abs / 4
        b = float(growth)
        cutoff = bessel._tail_cutoff(decay, b, log_spread, start, bessel._log(share))
        assert math.isfinite(cutoff)
        assert cutoff >= _tail_cutoff_mpf(ref_decay, abs(a), ref_spread, ref_start, share)
        for t in (start, cutoff):
            assert mp.exp(bessel._cosh_tail(decay, b, t)) >= _cosh_tail_mpf(mp.mpf(decay), b, t)


def test_the_quadrature_reaches_a_target_of_1e_400():
    # far below binary64's range: the set-up carries logarithms, and the
    # bound still encloses the referee within the target
    x, a, target = mp.mpf(2), mp.mpf("0.3"), mp.mpf("1e-400")
    bits = bessel._working_bits(target, 2.0)
    with mp.workprec(bits):
        eps_abs = target / 16 * mp.exp(-x)
        value, bound, terms = bessel._contour_sinh_integral(x, a, eps_abs)
        assert bound == terms["discretisation"] + terms["tail"] + terms["rounding"]
        assert 0 < bound <= eps_abs
    with mp.workprec(bits + 64):
        assert abs(value - _referee("sinh", x, a)) <= bound


@pytest.mark.parametrize(
    "value, want",
    [
        (mp.mpf(-0.75), Fraction(-3, 4)),
        (mp.make_mpf((0, 2**60 + 1, -60, 61)), 1 + Fraction(1, 2**60)),
        (-0.7, Fraction(-3152519739159347, 2**52)),
        ("-0.7", Fraction(-7, 10)),
        ("1e-20", Fraction(1, 10**20)),
        (Fraction(-13, 10), Fraction(-13, 10)),
        (-2, Fraction(-2)),
        (mp.mpf(0), Fraction(0)),
    ],
)
def test_exact_reads_the_number_an_input_stands_for(value, want):
    with mp.workprec(200):
        assert bessel._exact(value) == want


@pytest.mark.parametrize("value", ["inf", "nan", "1j", mp.mpc(1, 1), float("nan")])
def test_exact_rejects_non_finite_or_complex_inputs(value):
    with pytest.raises(ValueError, match="^order must be a finite real number"):
        bessel._exact(value, "order")


@pytest.mark.parametrize("kind", ["K", "H1"])
@pytest.mark.parametrize("arg", ["inf", "nan", "-inf", float("inf"), mp.nan, "1j"])
def test_argument_must_be_finite_positive_real(kind, arg):
    with pytest.raises(ValueError, match="argument must be a finite positive real"):
        bessel_eval(kind, "0.3", arg)


@pytest.mark.parametrize(
    "order", [Fraction(10**20 + 1, 10**20), "1e-20", 1, "-0.3"], ids=["1+1e-20", "1e-20", "1", "-0.3"]
)
def test_series_value_ignores_the_ambient_precisions(order, monkeypatch):
    # the series runs on raw intervals at the bits it is handed and reads
    # no global interval state, so a value depends on neither the
    # caller's mp.prec or iv.prec nor on an earlier call, and an error
    # inside the series leaves both precisions as it found them
    got = set()
    saved = mp.iv.prec
    for ambient in (53, 400):
        with mp.workprec(ambient):
            mp.iv.prec = ambient
            try:
                value, err = bessel._series_value("H1", order, Fraction(13, 10), 114)
                assert mp.iv.prec == ambient
            finally:
                mp.iv.prec = saved
        got.add((value.real._mpf_, value.imag._mpf_, err._mpf_))
    assert len(got) == 1

    def fail(*args, **kwargs):
        raise ZeroDivisionError

    monkeypatch.setattr(bessel, "_ascending_sums", fail)
    prec, iv_prec = mp.mp.prec, mp.iv.prec
    with pytest.raises(ZeroDivisionError):
        bessel._series_value("H1", order, Fraction(13, 10), 114)
    assert (mp.mp.prec, mp.iv.prec) == (prec, iv_prec)


# -- the certified series against the referee --
#
# The series boxes are the only route bessel_eval takes, so their radius
# is the whole error bound: the midpoint must lie within it of mpmath at
# far higher precision, at the Hankel bound points, at exact and near
# integer orders, at seeded random points, and where the I series cancels
# hard (K at x = 30).


def _enclosure_points(seed=16):
    rng = random.Random(seed)
    points = list(_HANKEL_BOUND_POINTS)
    special = [0, 1, -1, Fraction(1, 10**20), Fraction(10**20 + 1, 10**20), "-1e-30"]
    for order in special:
        for kind in ("K", "H1", "H2"):
            for arg in (Fraction(rng.randint(1, 40), 10), "2"):
                points.append((kind, order, arg, f"1e-{rng.randint(10, 45)}"))
    for i in range(24):
        order = Fraction(rng.randint(-199, 199), 100)
        arg = Fraction(rng.randint(1, 90), 10)
        points.append((("K", "H1", "H2")[i % 3], order, arg, f"1e-{rng.randint(10, 45)}"))
    for order in ("0.3", 0, "1e-20", Fraction(-3, 2)):
        points.append(("K", order, 30, "1e-25"))
    # orders the first working precision cannot tell from an integer: the
    # retry is sized from their exact distance to it
    for order in (mp.make_mpf((0, 2**200 + 1, -200, 201)), Fraction(10**60 + 1, 10**60)):
        for kind in ("K", "H1", "H2"):
            points.append((kind, order, "1.5", "1e-16"))
    return points


_ENCLOSURE_POINTS = _enclosure_points()


def test_series_boxes_enclose_the_referee(monkeypatch):
    assert len(_ENCLOSURE_POINTS) >= 100
    runs = []
    series_value = bessel._series_value

    def counted(kind, order, arg, bits):
        runs.append(bits)
        return series_value(kind, order, arg, bits)

    monkeypatch.setattr(bessel, "_series_value", counted)
    retried = 0
    for kind, order, arg, target in _ENCLOSURE_POINTS:
        del runs[:]
        got = bessel_eval(kind, order, arg, precision=target)
        retried += len(runs) > 1
        with mp.workprec(450):
            want = REFEREE[kind](mp.mpmathify(order), mp.mpmathify(arg))
            value = got.to_mpc()
            case = (kind, order, arg, target)
            assert abs(value - want) <= got.err_estimate, case
            assert got.err_estimate <= mp.mpf(target) * abs(value), case
    # the near-integer orders lose more bits than the guard holds
    assert retried >= 10
    # near nu = 1 the -nu series seeds u_1 from Gamma(2 - nu), away from the
    # pole of Gamma(1 - nu), so the box loses about -log2|sin(nu pi)| = 66
    # bits (71 in all), not twice that (133 with the Gamma(1 - nu) seed)
    order, arg = Fraction(10**20 + 1, 10**20), Fraction(13, 10)
    for bits in (114, 200):
        value, err = series_value("H1", order, arg, bits)
        with mp.workprec(450):
            assert abs(value - REFEREE["H1"](mp.mpmathify(order), mp.mpmathify(arg))) <= err
            assert bits + mp.log(err / abs(value), 2) <= 75, bits


@pytest.mark.parametrize("kind", ["K", "H1"])
@pytest.mark.parametrize("order", [2 - Fraction(1, 10**20), Fraction(1, 10**20) - 2])
def test_near_two_orders_lose_no_more_than_near_one(kind, order):
    # near nu = +-2 the series at -+nu seeds from Gamma of the exact
    # nu' + 2 = 1e-20, and the ratio c_2/c_1 = (x/2)^2/(2(2 + nu')) is an
    # exact rational, so the box loses about -log2|sin(nu pi)| = 66 bits
    # (the reflection's own cancellation), the bound nu ~ 1 meets above
    arg, bits = Fraction(13, 10), 256
    value, err = bessel._series_value(kind, order, arg, bits)
    with mp.workprec(450):
        assert abs(value - REFEREE[kind](mp.mpmathify(order), mp.mpmathify(arg))) <= err
        assert bits + mp.log(err / abs(value), 2) <= 75


# -- the raw interval series against the ctx_iv expressions it replaced --


def _ctx_iv_series_boxes(kind, order, arg, prec):
    """The series boxes written as mp.iv expressions at iv.prec = prec,
    kept here as the reference the raw interval tuples of
    `bessel._series_boxes` must reproduce bit for bit.  The fixed-point
    sums and their conversion to intervals are shared."""
    iv = mp.iv

    def enclose(value):
        value = bessel._exact(value)
        return iv.mpf(value.numerator) / value.denominator

    def ascending_sums(nu, half, sign, digamma=False):
        w, _, sums = bessel._ratio_sums(nu, half, sign, iv.prec, digamma)
        boxes = [iv.make_mpf(bessel._fixed_interval(c, r + t, w, iv.prec)) for c, r, t in sums]
        if digamma:
            seed = enclose(half**nu.numerator / math.factorial(nu.numerator + 1))
            plain, weighted = boxes
            return [seed * plain, seed * (weighted - 2 * iv.euler * plain)]
        seed = iv.power(enclose(half), enclose(nu)) / iv.gamma(enclose(nu + 2))
        return [seed * boxes[0]]

    def series_boxes():
        nu = bessel._exact(order)
        half = bessel._exact(arg) / 2
        sign = 1 if kind == "K" else -1
        if nu.denominator == 1:
            turn = (-1) ** nu.numerator if nu < 0 else 1
            n = abs(nu.numerator)
            plain, weighted = ascending_sums(Fraction(n), half, sign, digamma=True)
            step = -sign * half**2
            finite = enclose(
                sum(
                    Fraction(math.factorial(n - k - 1), math.factorial(k)) * step**k
                    for k in range(n)
                )
                / half**n
            )
            log_half = iv.log(enclose(half))
            if kind == "K":
                log_part = (-1) ** (n + 1) * log_half * plain
                return finite / 2 + log_part + (-1) ** n * weighted / 2, iv.mpf(0)
            y = (2 * log_half * plain - finite - weighted) / iv.pi
            return turn * plain, turn * y
        turn = iv.pi * enclose(nu)
        s = iv.sin(turn)
        if 0 in s:
            return iv.mpf([-mp.inf, mp.inf]), iv.mpf([-mp.inf, mp.inf])
        (plus,) = ascending_sums(nu, half, sign)
        (minus,) = ascending_sums(-nu, half, sign)
        if kind == "K":
            return iv.pi / 2 * (minus - plus) / s, iv.mpf(0)
        return plus, (plus * iv.cos(turn) - minus) / s

    saved = iv.prec
    iv.prec = prec
    try:
        return tuple(box._mpi_ for box in series_boxes())
    finally:
        iv.prec = saved


def _series_reference_cases(seed=35):
    rng = random.Random(seed)
    near = Fraction(1, 10**20)
    orders = [0, 1, -1, Fraction(1, 3), Fraction(-3, 10), 1 + near, 2 - near, near - 2, near]
    # an order no working precision here tells from 1: unbounded boxes
    orders.append(1 + Fraction(1, 2**200))
    orders += [Fraction(rng.randint(-199, 199), 100) for _ in range(4)]
    args = (Fraction(1, 4), Fraction(13, 10), 4, 12)
    return [
        (kind, order, arg, prec)
        for kind in ("K", "H1")
        for order in orders
        for arg in args
        for prec in (96, 256)
    ]


def test_series_boxes_match_the_ctx_iv_expression():
    cases = _series_reference_cases()
    assert len(cases) >= 200
    for kind, order, arg, prec in cases:
        got = bessel._series_boxes(kind, order, arg, prec)
        assert tuple(got) == _ctx_iv_series_boxes(kind, order, arg, prec), (kind, order, arg, prec)


# -- the fixed-point ratio sums against exact rationals --
#
# At 30 bits each fixed-point term must lie within its error of the exact
# Fraction term, the partial sum to the last term taken within the
# rounding term of the exact partial sum, and the whole series within
# rounding plus tail.  The exact series is summed far past the last term
# and closed by its own geometric bound.


def _exact_ratio_terms(nu, half, sign, count):
    """c_0..c_count as Fractions, and h_0..h_count = H_k + H_(k+nu) at
    integer nu (else None)."""
    terms, weights = [nu + 1], None
    for k in range(1, count + 1):
        terms.append(sign * half**2 if k == 1 else terms[-1] * sign * half**2 / (k * (k + nu)))
    if nu.denominator == 1:
        h = sum(Fraction(1, j) for j in range(1, nu.numerator + 1))
        weights = [h]
        for k in range(1, count + 1):
            h += Fraction(1, k) + Fraction(1, k + nu)
            weights.append(h)
    return terms, weights


def _ratio_sum_cases(seed=34):
    rng = random.Random(seed)
    cases = []
    while len(cases) < 40:
        nu = Fraction(rng.randint(-199, 199), 100)
        if nu.denominator > 1:
            cases.append((nu, Fraction(rng.randint(1, 90), 20), rng.choice((1, -1)), False))
    for n in (0, 1):
        for arg in (Fraction(1, 10), Fraction(13, 10), Fraction(7, 2), Fraction(9)):
            cases += [(Fraction(n), arg / 2, sign, True) for sign in (1, -1)]
    return cases


@pytest.mark.parametrize("nu, half, sign, digamma", _ratio_sum_cases())
def test_fixed_point_ratio_sums_enclose_the_exact_sums(nu, half, sign, digamma):
    prec = 30
    w, k, sums = bessel._ratio_sums(nu, half, sign, prec, digamma)
    far = k + 80
    terms, weights = _exact_ratio_terms(nu, half, sign, far)
    for j, c, e in bessel._ratio_terms(nu, half, sign, w):
        if j > k:
            break
        assert abs(terms[j] * 2**w - c) <= e, (nu, half, sign, j)
    rho = half**2 / ((far + 1) * (far + 1 + nu))
    assert rho <= Fraction(1, 2)
    rest = 2 * rho * abs(terms[-1])
    exact = [(sum(terms[: k + 1]), sum(terms), rest)]
    if digamma:
        products = [c * h for c, h in zip(terms, weights)]
        exact.append((sum(products[: k + 1]), sum(products), rest * (weights[-1] + 4)))
    assert len(sums) == len(exact)
    for (centre, rounding, tail), (partial, whole, rest) in zip(sums, exact):
        case = (nu, half, sign, digamma, k)
        assert abs(partial * 2**w - centre) <= rounding, case
        assert abs(whole * 2**w - centre) + rest * 2**w <= rounding + tail, case
