"""Kernel layer: quadrant geometry, the two evaluation routes, the
dressing polynomials, the Grassmann assembly, and the generator ladder.

Oracle values are frozen decimal strings computed once from the closed
cylinder forms; mpmath's own Bessel functions appear only as referee."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from mpmath import iv, mp
from mpmath.libmp import mpi_neg

from fsusy import bessel, kernels
from fsusy.bessel import PrecisionError
from fsusy.cli import CONVENTIONS, main
from fsusy.duality import DualityContext
from fsusy.kernels import (
    KernelParams,
    QuadrantPoint,
    d_ladder_suite,
    kernel_eval,
    kernel_eval_detailed,
    kernel_verify,
    omega_poly,
    q_kernel,
    quadrant_decompose,
)
from fsusy.scalars import FieldContext


def _mpc(value):
    with mp.workprec(400):
        return value.to_mpc()


# -- quadrant geometry --


@pytest.mark.parametrize("quadrant", [1, 2, 3, 4])
def test_polar_round_trip(quadrant):
    pt = QuadrantPoint.from_polar(quadrant, "1.7", "-0.45", lambda_val="0.2")
    back = quadrant_decompose(pt.z_plus, pt.z_minus, pt.lambda_val)
    assert back.quadrant == quadrant
    assert abs(back.rho - pt.rho) < mp.mpf("1e-20")
    assert abs(back.beta - pt.beta) < mp.mpf("1e-20")


@pytest.mark.parametrize(
    "zp, zm, quadrant",
    [("2", "0.5", 1), ("2", "-0.5", 2), ("-2", "-0.5", 3), ("-2", "0.5", 4)],
)
def test_sign_pattern_fixes_quadrant(zp, zm, quadrant):
    assert quadrant_decompose(zp, zm).quadrant == quadrant


def test_light_cone_rejected():
    with pytest.raises(ValueError, match="light cone"):
        quadrant_decompose(0, "1")
    with pytest.raises(ValueError, match="light cone"):
        quadrant_decompose("1", 0)


def test_complex_coordinates_rejected():
    with pytest.raises(ValueError, match="real"):
        quadrant_decompose(mp.mpc(1, 1), "1")


_BAD_COORDINATES = {
    "z_plus": lambda v: quadrant_decompose(v, "0.5"),
    "z_minus": lambda v: quadrant_decompose("2", v),
    "lambda": lambda v: quadrant_decompose("2", "0.5", v),
    "rho": lambda v: QuadrantPoint.from_polar(3, v, "0"),
    "beta": lambda v: QuadrantPoint.from_polar(3, "1", v),
    "lambda_polar": lambda v: QuadrantPoint.from_polar(3, "1", "0", v),
    "r": lambda v: KernelParams(p=3, s=0, nu="0.1", mu=0, r=v),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1j"])
@pytest.mark.parametrize("case", sorted(_BAD_COORDINATES))
def test_non_finite_or_complex_coordinates_rejected(case, bad):
    label = case.removesuffix("_polar")
    with pytest.raises(ValueError, match=f"^{label} must be a finite real number"):
        _BAD_COORDINATES[case](bad)


@pytest.mark.parametrize(
    "argv, label",
    [
        (("--beta", "nan"), "beta"),
        (("--lam", "inf", "--mu", "0.1"), "lambda"),
        (("--beta", "1j"), "beta"),
        (("--lam", "1j"), "lambda"),
        (("--rho", "inf"), "rho"),
        (("--rho", "nan"), "rho"),
    ],
)
def test_cli_rejects_non_finite_or_complex_coordinates(capsys, argv, label):
    code = main(["kernel-eval", "--format", "text", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {label} must be a finite real number")


def test_nan_bound_is_never_certified(monkeypatch):
    # a bound that compares false against the target in both directions
    # must fail the check, not pass it
    def nan_bound(arg, drift, eps_abs):
        return mp.mpc(1), mp.nan, mp.mpf(6)

    monkeypatch.setattr(kernels, "_contour_cosh_integral", nan_bound)
    monkeypatch.setattr(kernels, "_J_CACHE", {})
    params = KernelParams(p=3, s=0, nu="0.3", mu=0, r=1)
    with pytest.raises(PrecisionError):
        kernel_eval(params, QuadrantPoint.from_polar(3, "1", "0.5"), "integral")
    monkeypatch.setattr(bessel, "_series_value", lambda kind, order, arg, bits: (mp.mpc(1), mp.nan))
    with pytest.raises(PrecisionError):
        bessel.bessel_eval("H1", "0.3", "1.5")


def test_quadrant_table_matches_the_ledger():
    """The ledger's quadrant-table statement and the kernels' quadrant
    table are the two places the closed forms are stated; nothing else
    keeps them in step.  Read each quadrant's cylinder, coefficient sign
    and half-turn sign from the table and match them to the ledger."""
    (entry,) = [c for c in CONVENTIONS if c["key"] == "quadrant-table"]
    assert entry["version"] == 2
    head, body = entry["statement"].split(": ", 1)
    assert head == "closed kernel forms by quadrant"
    clause = re.compile(
        r"(\d) -> ([+-]?)(H1|H2|K)(/2|/\(pi i\)) with (?:the )?([+-])i pi/2(?: half-turn)?"
    )
    seen = []
    for text in body.split(", "):
        match = clause.fullmatch(text)
        assert match, text
        quadrant, sign, cylinder, divisor, turn = match.groups()
        s1, s2, table_cylinder = kernels._QUADRANTS[int(quadrant)]
        assert cylinder == table_cylinder, text
        if cylinder == "K":
            assert (sign, divisor) == ("", "/(pi i)"), text
        else:
            assert (sign, divisor) == ("+" if s1 > 0 else "-", "/2"), text
        assert turn == ("+" if s2 > 0 else "-"), text
        seen.append(int(quadrant))
    assert sorted(seen) == [1, 2, 3, 4]


def test_swapped_point():
    pt = QuadrantPoint.from_polar(2, "1.3", "0.7")
    sw = pt.swapped()
    assert sw.quadrant == 4
    assert sw.beta + pt.beta == 0
    assert sw.z_plus == pt.z_minus and sw.z_minus == pt.z_plus
    assert pt.swapped().swapped() == pt


def test_bad_polar_input():
    with pytest.raises(ValueError, match="quadrant"):
        QuadrantPoint.from_polar(5, "1", "0")
    with pytest.raises(ValueError, match="rho"):
        QuadrantPoint.from_polar(1, "-1", "0")


# -- parameter validation --


def test_params_validation():
    KernelParams(p=3, s=1, nu="0.1", mu=0, r="2", precision="1e-12")
    with pytest.raises(ValueError, match="odd prime"):
        KernelParams(p=4, s=0, nu=0, mu=0, r=1)
    with pytest.raises(ValueError, match="integer"):
        KernelParams(p=3, s=0.5, nu=0, mu=0, r=1)
    with pytest.raises(ValueError, match="positive"):
        KernelParams(p=3, s=0, nu=0, mu=0, r=-1)
    with pytest.raises(ValueError, match="precision"):
        KernelParams(p=3, s=0, nu=0, mu=0, r=1, precision="2")
    with pytest.raises(ValueError, match="strip"):
        KernelParams(p=3, s=0, nu="1.2", mu=0, r=1)
    with pytest.raises(ValueError, match="strip"):
        KernelParams(p=3, s=-3, nu=0, mu=0, r=1)
    with pytest.raises(ValueError, match="real"):
        KernelParams(p=3, s=0, nu=mp.mpc(0, 1), mu=0, r=1)


def test_strip_gate_reads_the_exact_exponent():
    # 1 - 1e-50 rounds to 1 at the ambient precision plus 80 bits, yet lies
    # inside the strip, and both routes evaluate it and agree within their
    # bounds; 1 + 1e-50 stays outside
    for nu in ("0." + "9" * 50, "-0." + "9" * 50):
        params = KernelParams(p=3, s=0, nu=nu, mu=0, r=1, precision="1e-12")
        for quadrant in (1, 2):
            point = QuadrantPoint.from_polar(quadrant, "1.3", "0.2")
            closed, integral = (kernel_eval(params, point, mode) for mode in ("closed", "integral"))
            gap = abs(closed.to_mpc() - integral.to_mpc())
            assert gap <= closed.err_estimate + integral.err_estimate, (nu, quadrant)
    with pytest.raises(ValueError, match="strip"):
        KernelParams(p=3, s=0, nu="1." + "0" * 49 + "1", mu=0, r=1)


def test_strip_exponent():
    params = KernelParams(p=5, s=2, nu="1/4", mu="1/8", r=1)
    with mp.workprec(80):
        want = mp.mpf(1) / 4 - mp.mpf(1) / 8 + mp.mpf(2) / 5
        assert abs(params.strip_exponent() - want) < mp.mpf("1e-20")


def test_mode_validation():
    params = KernelParams(p=3, s=0, nu=0, mu=0, r=1)
    pt = QuadrantPoint.from_polar(1, "1", "0")
    with pytest.raises(ValueError, match="mode"):
        kernel_eval(params, pt, "fast")
    with pytest.raises(TypeError, match="QuadrantPoint"):
        kernel_eval(params, (1, 1), "closed")


# -- the two routes and frozen oracles --

# cylinder values at zero exponent and unit argument, frozen once:
#   quadrant 1 -> H1_0(1)/2, quadrant 2 -> K_0(1)/(pi i),
#   quadrant 3 -> -H2_0(1)/2
_ORACLES = {
    1: ("0.3825988432789832757248588", "0.04412848210783847899146338"),
    2: ("0", "-0.1340162410169942743813847"),
    3: ("-0.3825988432789832757248588", "0.04412848210783847899146338"),
}


@pytest.mark.parametrize("quadrant", sorted(_ORACLES))
def test_frozen_oracle_values(quadrant):
    params = KernelParams(p=3, s=0, nu=0, mu=0, r=1, precision="1e-20")
    pt = QuadrantPoint.from_polar(quadrant, "1", "0.9")
    got = _mpc(kernel_eval(params, pt, "closed"))
    with mp.workprec(120):
        re, im = (mp.mpf(x) for x in _ORACLES[quadrant])
        assert abs(got - mp.mpc(re, im)) < mp.mpf("1e-24")


@pytest.mark.parametrize("quadrant", [1, 2, 3, 4])
def test_routes_agree(quadrant):
    params = KernelParams(p=3, s=1, nu="0.1", mu="0.05", r="3/2", precision="1e-14")
    pt = QuadrantPoint.from_polar(quadrant, "0.8", "-0.6", lambda_val="0.3")
    closed = _mpc(kernel_eval(params, pt, "closed"))
    closed_err = kernel_eval(params, pt, "closed").err_estimate
    integral, diag = kernel_eval_detailed(params, pt, "integral")
    # both certified to 1e-14, far below the 1e-8 grid gate
    assert abs(closed - _mpc(integral)) <= closed_err + integral.err_estimate
    assert closed_err + integral.err_estimate <= mp.mpf("2e-14") * abs(closed)
    assert set(diag) == {
        "route", "family", "phase_sign", "theta", "cutoff", "step", "node_pairs",
        "strip", "discretisation", "tail", "rounding",
    }
    assert diag["discretisation"] + diag["tail"] + diag["rounding"] > 0
    assert diag["family"] == ("cosh" if quadrant in (1, 3) else "sinh")


def test_boost_prefactor():
    # moving beta only rescales by exp(-a*beta) in the closed form
    params = KernelParams(p=3, s=0, nu="0.3", mu=0, r=1, precision="1e-16")
    at = _mpc(kernel_eval(params, QuadrantPoint.from_polar(3, "1", "0.7")))
    base = _mpc(kernel_eval(params, QuadrantPoint.from_polar(3, "1", "0")))
    with mp.workprec(120):
        want = mp.mpf("0.8105842459701870998377292")  # exp(-0.3 * 0.7), frozen
        assert abs(at / base - want) < mp.mpf("1e-24")


def test_weight_couples_to_lambda():
    # with nu = mu the strip exponent vanishes and lambda enters only
    # through exp(mu*lambda)
    base = KernelParams(p=3, s=0, nu="1/4", mu="1/4", r=1, precision="1e-16")
    pt0 = QuadrantPoint.from_polar(3, "1", "0.2", lambda_val=0)
    pt1 = QuadrantPoint.from_polar(3, "1", "0.2", lambda_val="0.8")
    v0 = _mpc(kernel_eval(base, pt0))
    v1 = _mpc(kernel_eval(base, pt1))
    with mp.workprec(120):
        assert abs(v1 / v0 - mp.exp(mp.mpf("0.2"))) < mp.mpf("1e-25")


def test_boost_reflection_symmetry():
    for quadrant in (1, 2, 3, 4):
        pt = QuadrantPoint.from_polar(quadrant, "1.1", "0.45")
        a = kernel_eval(
            KernelParams(p=3, s=0, nu="0.25", mu=0, r=1, precision="1e-16"), pt
        )
        b = kernel_eval(
            KernelParams(p=3, s=0, nu="-0.25", mu=0, r=1, precision="1e-16"),
            pt.swapped(),
        )
        assert abs(_mpc(a) - _mpc(b)) < mp.mpf("1e-25")


def _tilted_pairs(x, a, sgn, tilt):
    """Node pairs (f(t) + f(-t), |f(t)| + |f(-t)|) of both contour
    integrands at each family's tilt, written out from their definitions
    with the tilt sign given separately, on the engine's integers at
    w = mp.prec bits: the sum rounded down, the bound up."""

    def paired(f):
        def pair(t, e, g):
            w = mp.prec
            t = mp.ldexp(t, -w)
            plus, minus = f(t), f(-t)
            total = plus + minus
            return (
                int(mp.floor(mp.ldexp(total.real, w))),
                int(mp.floor(mp.ldexp(total.imag, w))),
                int(mp.ceil(mp.ldexp(abs(plus) + abs(minus), w))),
            )

        return pair

    def cosh_f(t):
        theta = bessel._COSH_TILT * mp.pi
        u = t + 1j * tilt * theta * mp.tanh(t)
        du = 1 + 1j * tilt * theta / mp.cosh(t) ** 2
        return mp.exp(1j * sgn * x * mp.cosh(u) + a * u) * du

    def sinh_f(t):
        u = t + 1j * tilt * bessel._SINH_TILT * mp.pi
        return mp.exp(1j * sgn * x * mp.sinh(u) + a * u)

    strips = {
        "cosh": bessel._COSH_STRIP * bessel._COSH_TILT * math.pi,
        "sinh": bessel._SINH_STRIP * bessel._SINH_TILT * math.pi,
    }
    return {
        "cosh": (paired(cosh_f), bessel._cosh_bounds(x, a), strips["cosh"]),
        "sinh": (paired(sinh_f), bessel._sinh_bounds(x, a), strips["sinh"]),
    }


@pytest.mark.parametrize("nu", ["0.5", "0.999", "1.7", "-0.5", "-0.999", "-1.7"])
def test_hankel_floor_lies_below_the_raw_modulus(nu):
    # the cosh contour's target is sized from |raw| = pi*|H1_nu(x)|, whose
    # floor (2*pi/x)^(1/2) holds for |nu| >= 1/2; at nu = 1/2 it is exact
    with mp.workprec(600):
        for arg in ("0.05", "0.4", "2", "7", "12"):
            x = mp.mpf(arg)
            floor = kernels._target_scale("cosh", Fraction(nu), x)
            assert floor >= mp.sqrt(2 * mp.pi / x) * (1 - mp.mpf(2) ** -29), arg
            assert floor <= mp.pi * abs(mp.hankel1(mp.mpf(nu), x)), arg
    # below |nu| = 1/2, and for the sinh family, the share stays exp(-x)
    for family, order in (("cosh", Fraction(49, 100)), ("sinh", Fraction(3, 2))):
        assert kernels._target_scale(family, order, mp.mpf(2)) == mp.exp(-2)


def test_wrong_tilt_grows():
    # tilted against the phase, the integrand grows and the decay guard
    # refuses it; tilted with the phase, the same data integrates to the
    # library contour's value, which runs at phase +1 and is conjugated
    # for phase -1
    with mp.workprec(128):
        x, a, eps = mp.mpf(1), mp.mpf("0.3"), mp.mpf("1e-20")
        for family, sgn in itertools.product(("cosh", "sinh"), (1, -1)):
            case = f"{family} phase={sgn}"
            pair, bounds, strip = _tilted_pairs(x, a, sgn, -sgn)[family]
            with pytest.raises(ArithmeticError, match="decay"):
                bessel._tilted_quadrature(pair, bounds, strip, eps)
            pair, bounds, strip = _tilted_pairs(x, a, sgn, sgn)[family]
            got, _, terms = bessel._tilted_quadrature(pair, bounds, strip, eps)
            contour = getattr(bessel, f"_contour_{family}_integral")
            want, want_err, want_terms = contour(x, a, eps)
            if sgn < 0:
                want = mp.conj(want)
            assert terms["cutoff"] == want_terms["cutoff"], case
            assert abs(got - want) <= want_err, case


def test_decay_guard_trip_is_a_verification_failure(monkeypatch, capsys):
    def stuck(arg, drift, eps_abs):
        raise ArithmeticError("tilted integrand fails to decay at the cutoff")

    monkeypatch.setattr(kernels, "_contour_cosh_integral", stuck)
    # points no other test evaluates, so no cached contour value answers
    params = KernelParams(p=3, s=0, nu="0.17", mu=0, r=1, precision="1e-14")
    pt = QuadrantPoint.from_polar(3, "1.23456", "0.1")
    with pytest.raises(ArithmeticError, match="decay"):
        kernel_eval_detailed(params, pt, "integral")
    code = main(
        ["kernel-eval", "--mode", "integral", "--quad", "3", "--rho", "1.23457"]
    )
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("verification failure: ")
    assert "decay" in err


def _starve_the_kernel_target(monkeypatch, target):
    # 64 working bits for every value asked for at the kernel's target or
    # looser, the usual bits for tighter ones
    working_bits = bessel._working_bits

    def starved(precision, arg):
        return 64 if precision >= mp.mpf(target) / 2 else working_bits(precision, arg)

    monkeypatch.setattr(bessel, "_working_bits", starved)


def test_precision_shortfall_raises(monkeypatch):
    _starve_the_kernel_target(monkeypatch, "1e-40")
    params = KernelParams(p=3, s=0, nu="0.3", mu=0, r=1, precision="1e-40")
    pt = QuadrantPoint.from_polar(3, "1", "0.5")
    with pytest.raises(PrecisionError):
        kernel_eval(params, pt, "closed")


def test_q_kernel_precision_shortfall_raises(monkeypatch, ctx3):
    # the assembly's values meet the same target check as kernel_eval's
    _starve_the_kernel_target(monkeypatch, "1e-40")
    params = KernelParams(p=3, s=0, nu="1/5", mu=0, r=1, precision="1e-40")
    pt = QuadrantPoint.from_polar(3, "1", "0.5")
    with pytest.raises(PrecisionError):
        q_kernel(0, 1, params, pt, ctx3)


# -- kernel boxes against the referee --
#
# Every label nonzero: p = 3, s = 1, nu = 1/10, mu = -1/5, r = 3/2, so
# abar = mu - nu - s/p = -19/30 and x = r*rho.  The referee is mpmath's
# cylinder function at 450 bits times the closed prefactor, stated here
# per quadrant as (cylinder, coefficient, sign of the i*pi/2 half-turn).
# The far boosts +-(10^5 + 0.3) and +-(10^6 + 0.3) make the prefactor's
# own rounding, not the series, the larger part of the radius.

_KERNEL_REFEREE = {
    1: (mp.hankel1, lambda: mp.mpf(1) / 2, 1),
    2: (mp.besselk, lambda: 1 / (mp.pi * 1j), -1),
    3: (mp.hankel2, lambda: -mp.mpf(1) / 2, -1),
    4: (mp.besselk, lambda: 1 / (mp.pi * 1j), 1),
}


@pytest.mark.parametrize("beta", ["-0.2", "100000.3", "-100000.3", "1000000.3", "-1000000.3"])
@pytest.mark.parametrize("target", ["1e-10", "1e-30", "1e-45"])
@pytest.mark.parametrize("mode", ["closed", "integral"])
@pytest.mark.parametrize("quadrant", [1, 2, 3, 4])
def test_kernel_boxes_enclose_the_referee(quadrant, mode, target, beta):
    params = KernelParams(p=3, s=1, nu="1/10", mu="-1/5", r="3/2", precision=target)
    pt = QuadrantPoint.from_polar(quadrant, "1.3", beta, lambda_val="0.4")
    got = kernel_eval(params, pt, mode)
    cylinder, coeff, turn = _KERNEL_REFEREE[quadrant]
    with mp.workprec(450):
        abar = mp.mpf(-19) / 30
        want = (
            coeff()
            * mp.exp(abar * (pt.beta + turn * 1j * mp.pi / 2))
            * cylinder(abar, mp.mpf(3) / 2 * pt.rho)
            * mp.exp(-pt.lambda_val / 5)
        )
        assert abs(got.to_mpc() - want) <= got.err_estimate
    assert got.err_estimate <= mp.mpf(target) * abs(want)


def test_determinism():
    params = KernelParams(p=3, s=1, nu="0.2", mu="0.1", r="5/4", precision="1e-14")
    pt = QuadrantPoint.from_polar(2, "1.5", "-0.3", lambda_val="0.6")
    runs = [kernel_eval(params, pt, mode) for mode in ("closed", "integral")]
    again = [kernel_eval(params, pt, mode) for mode in ("closed", "integral")]
    for a, b in zip(runs, again):
        assert (a.re, a.im, a.err_estimate) == (b.re, b.im, b.err_estimate)


# -- the warm path against the ctx_iv expression it replaced --


def _ctx_iv_kernel_value(point, abar, mu, r, rel_target, mode):
    """The kernel value with the prefactor and the midpoint and radius
    written as mp.iv expressions, kept here as the reference the raw
    interval tuples of `kernels._kernel_value` and `bessel._box_value`
    must reproduce bit for bit."""
    s1, s2, cylinder = kernels._QUADRANTS[point.quadrant]
    x = bessel._exact(r) * bessel._exact(point.rho)

    def enclose(value):
        value = bessel._exact(value)
        return iv.mpf(value.numerator) / value.denominator

    def boxes(bits):
        re, im, _ = kernels._raw_boxes(mode, point.quadrant, abar, x, bits, rel_target)
        a = enclose(abar)
        if mode == "integral":
            coeff, turn = iv.mpc(0, -1 / (2 * iv.pi)), 0
        else:
            coeff = iv.mpc(0, -1 / iv.pi) if cylinder == "K" else iv.mpf(s1) / 2
            turn = s2 * a * iv.pi / 2
        out = coeff * iv.exp(iv.mpc(a * point.beta + enclose(mu) * point.lambda_val, turn))
        out *= iv.mpc(iv.make_mpf(re), iv.make_mpf(im))
        return out.real, out.imag

    def value_at(bits):
        saved = iv.prec
        iv.prec = bits
        try:
            with mp.workprec(bits):
                parts = [(part, part.mid) for part in boxes(bits)]
                centre = mp.mpc(*(mp.make_mpf(mid._mpi_[0]) for _, mid in parts))
            halves = [abs(part - mid) for part, mid in parts]
            iv.prec = 53
            radius = iv.sqrt(sum(half * half for half in halves))
        finally:
            iv.prec = saved
        return centre, mp.make_mpf(radius._mpi_[1])

    return bessel._certified(value_at, rel_target, float(x), abar, "reference")


@pytest.mark.parametrize("mode", ["closed", "integral"])
def test_raw_interval_path_matches_the_ctx_iv_expression(mode):
    # the 324 points of the kernel_verify grid (mu = 0), then every label
    # nonzero: a mu-weight that sees lambda, and far boosts
    target = bessel._target("1e-16")
    cases = [
        (QuadrantPoint.from_polar(quadrant, rho, beta), -Fraction(a), 0, r)
        for quadrant, r, rho, beta, a in itertools.product(
            (1, 2, 3, 4), ("1/2", "1", "2"), ("1/2", "1", "2"), ("-1", "0", "1"), ("-0.3", "0", "0.3")
        )
    ]
    assert len(cases) == 324
    for quadrant, beta in itertools.product((1, 2, 3, 4), ("-0.2", "100000.3", "-1000000.3")):
        point = QuadrantPoint.from_polar(quadrant, "1.3", beta, lambda_val="0.4")
        cases.append((point, Fraction(-19, 30), Fraction(-1, 5), "3/2"))
    for point, abar, mu, r in cases:
        got, _ = kernels._kernel_value(point, abar, mu, r, target, mode)
        value, err = _ctx_iv_kernel_value(point, abar, mu, r, target, mode)
        case = (str(point), abar, mu, r)
        assert (got.re._mpf_, got.im._mpf_) == (value.real._mpf_, value.imag._mpf_), case
        assert got.err_estimate._mpf_ == err._mpf_, case


# -- conjugate pairs share one evaluation --


def _parts(value):
    return value.re._mpf_, value.im._mpf_, value.err_estimate._mpf_


def _conjugate_parts(value):
    return value.re._mpf_, mp.fneg(value.im, exact=True)._mpf_, value.err_estimate._mpf_


# (bits the inputs are read at, relative target) of the grid and of the
# ladder, with the orders and arguments each asks the series for
_CONJUGATE_SETTINGS = {
    "grid": (256, "1e-16", ("-0.3", "0", "0.3"), ("1/4", "1/2", "1", "2", "4")),
    "ladder": (
        192,
        "1e-18",
        ("-23/15", "-6/5", "-8/15", "-1/5", "7/15", "4/5", "22/15"),
        ("4/5", "1"),
    ),
}


@pytest.mark.parametrize("setting", sorted(_CONJUGATE_SETTINGS))
def test_h2_is_the_exact_conjugate_of_h1(setting):
    # bessel_eval, like the kernels' raw boxes, serves H2 as the exact
    # conjugate of the H1 evaluation
    bits, target, orders, args = _CONJUGATE_SETTINGS[setting]
    with mp.workprec(bits):
        for order, arg in itertools.product(orders, args):
            nu, x = mp.mpmathify(Fraction(order)), mp.mpmathify(Fraction(arg))
            h1 = bessel.bessel_eval("H1", nu, x, precision=target)
            h2 = bessel.bessel_eval("H2", nu, x, precision=target)
            assert _parts(h2) == _conjugate_parts(h1), (order, arg)


@pytest.mark.parametrize("bits", [110, 256])
@pytest.mark.parametrize("family", ["cosh", "sinh"])
def test_phase_minus_contour_is_the_exact_conjugate(monkeypatch, family, bits):
    # the integral route evaluates only phase +1 and conjugates for -1:
    # each phase -1 quadrant's raw boxes, computed with the caches empty,
    # are the exact conjugate of those of the phase +1 quadrant of its
    # family
    plus_q, minus_q = (1, 3) if family == "cosh" else (4, 2)
    target = mp.mpf("1e-16")
    for drift, arg in itertools.product(("-0.3", "0", "0.3"), ("1/4", "1", "4")):
        a, x = Fraction(drift), Fraction(arg)
        got = {}
        for quadrant in (plus_q, minus_q):
            monkeypatch.setattr(kernels, "_J_CACHE", {})
            got[quadrant] = kernels._raw_boxes("integral", quadrant, a, x, bits, target)
        (plus_re, plus_im, plus_diag), (minus_re, minus_im, minus_diag) = got[plus_q], got[minus_q]
        case = (drift, arg)
        assert (plus_diag["phase_sign"], minus_diag["phase_sign"]) == (1, -1), case
        assert minus_re == plus_re, case
        assert minus_im == mpi_neg(plus_im), case
        assert minus_diag["cutoff"] == plus_diag["cutoff"], case


@pytest.mark.parametrize("mode", ["closed", "integral"])
def test_raw_boxes_ignore_the_ambient_interval_precision(monkeypatch, mode):
    # with the caches empty, the raw boxes asked for at `bits` are the
    # same tuples whatever the caller's iv.prec
    bits, target = 110, bessel._target("1e-16")
    saved = iv.prec
    for quadrant, abar in itertools.product((1, 2, 3, 4), (Fraction(-3, 10), Fraction(1, 3))):
        got = []
        for ambient in (53, bits):
            monkeypatch.setattr(kernels, "_BESSEL_CACHE", {})
            monkeypatch.setattr(kernels, "_J_CACHE", {})
            iv.prec = ambient
            try:
                re, im, _ = kernels._raw_boxes(mode, quadrant, abar, Fraction(3, 10), bits, target)
            finally:
                iv.prec = saved
            got.append((re, im))
        assert got[0] == got[1], (quadrant, abar)
        assert all(isinstance(end, tuple) for box in got[0] for end in box), (quadrant, abar)


@pytest.mark.parametrize("mode", ["closed", "integral"])
def test_kernel_eval_ignores_the_ambient_precisions(monkeypatch, mode):
    # (mp.prec, iv.prec) = (53, 53) and (400, 400) give bit-identical
    # values and bounds; the points are built once, as a non-dyadic beta
    # read at two precisions is two different inputs
    params = KernelParams(p=3, s=1, nu="0.2", mu="0.1", r="5/4", precision="1e-20")
    points = [QuadrantPoint.from_polar(q, "1.5", "-0.3", lambda_val="0.6") for q in (2, 3)]
    saved = iv.prec
    for point in points:
        got = []
        for ambient in (53, 400):
            monkeypatch.setattr(kernels, "_BESSEL_CACHE", {})
            monkeypatch.setattr(kernels, "_J_CACHE", {})
            with mp.workprec(ambient):
                iv.prec = ambient
                try:
                    got.append(_parts(kernel_eval(params, point, mode)))
                finally:
                    iv.prec = saved
        assert got[0] == got[1], str(point)


@pytest.mark.parametrize("mode", ["closed", "integral"])
def test_conjugate_quadrant_is_independent_of_history(monkeypatch, mode):
    # a quadrant-3 value served from the entry a quadrant-1 call made must
    # equal one computed with both caches empty
    params = KernelParams(p=3, s=0, nu="0.23", mu=0, r=1, precision="1e-20")

    def quadrant_3_after(quadrants):
        monkeypatch.setattr(kernels, "_BESSEL_CACHE", {})
        monkeypatch.setattr(kernels, "_J_CACHE", {})
        for quadrant in quadrants:
            pt = QuadrantPoint.from_polar(quadrant, "1.17", "0.35")
            got = kernel_eval(params, pt, mode)
        cache = kernels._BESSEL_CACHE if mode == "closed" else kernels._J_CACHE
        assert len(cache) == 1  # one entry serves the conjugate pair
        return _parts(got)

    assert quadrant_3_after((1, 3)) == quadrant_3_after((3,))


# -- dressing polynomials --


def test_omega_constant_term(ctx):
    for s in range(ctx.p):
        om = omega_poly(s, ctx)
        assert om.degree() == ctx.p - 1 - s
        want = (ctx.i() * ctx.c_hat(1)) ** s / ctx.qfact(s)
        assert om.coeffs[0] == want
    assert omega_poly(0, ctx).coeffs[0] == ctx.one()


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_omega_recursion_matches_closed_form(p, r):
    # each coefficient from scratch: (i chat)^(2m+s) q^(sm) / ([m]! [m+s]!),
    # or / ([m]! [s]!) in the literal reading
    ctx = FieldContext(p, r=Fraction(r))
    ichat = ctx.i() * ctx.c_hat(1)
    for literal in (False, True):
        for s in range(p):
            want = tuple(
                ichat ** (2 * m + s) * ctx.q(s * m)
                / (ctx.qfact(m) * (ctx.qfact(s) if literal else ctx.qfact(m + s)))
                for m in range(p - s)
            )
            assert omega_poly(s, ctx, literal).coeffs == want, (literal, s)


def test_omega_shift_out_of_range(ctx3):
    with pytest.raises(ValueError, match="shift"):
        omega_poly(3, ctx3)
    with pytest.raises(ValueError, match="shift"):
        omega_poly(-1, ctx3)


def test_omega_readings_differ(ctx3):
    om_d = omega_poly(0, ctx3)
    om_l = omega_poly(0, ctx3, literal=True)
    assert om_d.coeffs[:2] == om_l.coeffs[:2]
    # at p = 3 the second-order denominators are [2]![2]! = 1 vs [2]! = -1
    assert om_d.coeffs[2] == -om_l.coeffs[2]


def test_omega_as_element_diagonal(ctx3):
    from fsusy.afalg import AAlgebra

    aal = AAlgebra(ctx3)
    elem = omega_poly(0, ctx3).as_aelement(aal)
    assert sorted(m[:3] for m in elem.terms) == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
    # xi powers carry the reordering weight q^(m^2)
    xi_sq = aal.xi() * aal.xi()
    mon = next(iter(xi_sq.terms))
    assert xi_sq.terms[mon] == ctx3.q(4)


# -- Grassmann assembly --


@pytest.fixture(scope="module")
def assembly(ctx3):
    dual = DualityContext(ctx3)
    params = KernelParams(p=3, s=0, nu="1/5", mu=0, r=1, precision="1e-16")
    pt = QuadrantPoint.from_polar(3, "1", "0.25")
    return ctx3, dual, params, pt


def test_diagonal_entry_is_single_term(assembly):
    ctx3, dual, params, pt = assembly
    qk = q_kernel(0, 0, params, pt, ctx3, dual=dual)
    assert len(qk.terms) == 1
    term = qk.terms[0]
    assert term.shift == 0
    mons = sorted(m[:3] for m in term.grassmann.terms)
    assert mons == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
    direct = kernel_eval(params, pt, "closed")
    assert abs(_mpc(term.k_value) - _mpc(direct)) < mp.mpf("1e-30")


def test_off_diagonal_two_terms(assembly):
    ctx3, dual, params, pt = assembly
    qk = q_kernel(1, 2, params, pt, ctx3, dual=dual)
    assert [t.shift for t in qk.terms] == [1, -2]
    for term in qk.terms:
        assert all(m[2] == 1 for m in term.grassmann.terms)  # delta^k survives
    up = sorted(m[:3] for m in qk.terms[0].grassmann.terms)
    down = sorted(m[:3] for m in qk.terms[1].grassmann.terms)
    assert up == [(1, 0, 1), (2, 1, 1)]
    assert down == [(0, 2, 1)]


def test_assembly_coefficients_linear(assembly):
    ctx3, dual, params, pt = assembly
    qk = q_kernel(2, 2, params, pt, ctx3, dual=dual)
    coeffs = qk.coefficients(160)
    term = qk.terms[0]
    with mp.workprec(176):
        kv = term.k_value.to_mpc()
        for mon, c in term.grassmann.terms.items():
            assert abs(coeffs[mon] - c.evaluate(160) * kv) < mp.mpf("1e-40")


def test_assembly_guards(assembly):
    ctx3, dual, params, pt = assembly
    with pytest.raises(ValueError, match="s == 0"):
        q_kernel(0, 0, KernelParams(p=3, s=1, nu=0, mu=0, r=1), pt, ctx3, dual=dual)
    with pytest.raises(ValueError, match="indices"):
        q_kernel(0, 3, params, pt, ctx3, dual=dual)
    with pytest.raises(ValueError, match="params.p"):
        q_kernel(0, 0, KernelParams(p=5, s=0, nu=0, mu=0, r=1), pt, ctx3, dual=dual)
    with pytest.raises(ValueError, match="params.r"):
        q_kernel(0, 0, KernelParams(p=3, s=0, nu=0, mu=0, r=2), pt, ctx3, dual=dual)
    with pytest.raises(TypeError, match="exact"):
        q_kernel(
            0,
            0,
            KernelParams(p=3, s=0, nu=mp.mpf("0.25"), mu=0, r=1),
            pt,
            ctx3,
            dual=dual,
        )


def test_assembly_deterministic(assembly):
    ctx3, dual, params, pt = assembly
    a = q_kernel(0, 1, params, pt, ctx3, dual=dual).coefficients(128)
    b = q_kernel(0, 1, params, pt, ctx3, dual=dual).coefficients(128)
    assert sorted(a) == sorted(b)
    for mon in a:
        assert a[mon] == b[mon]


# -- verification grid (trimmed; the acceptance suite runs the full one) --


def test_kernel_verify_trimmed():
    report = kernel_verify(
        rs=("1",), rhos=("1", "2"), betas=("0",), exponents=("0.3",)
    )
    assert report.passed, report.failures()
    assert len(report.measurements["rows"]) == 8


def test_kernel_verify_cache_counts_ignore_process_history():
    # a fresh interpreter reads 34 series boxes and 30 contour integrals;
    # an unrelated kernel evaluated first must not change the counts
    params = KernelParams(p=3, s=0, nu="0.37", mu=0, r=1, precision="1e-12")
    point = QuadrantPoint.from_polar(1, "2.7", "0.1")
    for mode in ("closed", "integral"):
        kernel_eval(params, point, mode)
    report = kernel_verify()
    counts = [report.measurements[f"{c}_cache_entries"] for c in ("bessel", "contour")]
    assert counts == [34, 30]


@pytest.mark.parametrize("mode", ["closed", "integral"])
@pytest.mark.parametrize(
    "targets, rho", [(("1e-10", "1e-45"), "1.37"), (("1e-45", "1e-10"), "1.41")]
)
def test_cached_value_honours_each_target(mode, targets, rho):
    # the caches must not serve a value certified for a looser target;
    # each order gets its own point so no earlier call has cached it
    pt = QuadrantPoint.from_polar(2, rho, "0.3")
    got = {}
    for tgt in targets:
        params = KernelParams(p=3, s=0, nu="0.3", mu=0, r=1, precision=tgt)
        got[tgt] = _mpc(kernel_eval(params, pt, mode))
    with mp.workprec(200):
        assert abs(got["1e-10"] - got["1e-45"]) <= mp.mpf("1e-10") * abs(got["1e-45"])


# -- generator ladder --


def test_ladder_all_relations(ctx3):
    report = d_ladder_suite(1, Fraction(1, 5), ctx=ctx3)
    assert report.passed, report.failures()
    # away from n = 0 the alternative eigenvalue -i(nu + n/p) must miss
    assert report.measurements["H_alt_eigenvalue_residual"] > 0.01
    assert report.measurements["p+_residual_literal_omega"] > 0.01


def test_ladder_wrap_step(ctx3):
    # n = 0 wraps downward to n = p-1; eigenvalue alternatives coincide here
    report = d_ladder_suite(0, Fraction(1, 5), ctx=ctx3)
    assert report.passed, report.failures()
    assert report.measurements["H_alt_eigenvalue_residual"] < 1e-4


def test_ladder_guards(ctx3):
    with pytest.raises(ValueError, match="quadrant 3"):
        d_ladder_suite(
            0, Fraction(1, 5), grid=(QuadrantPoint.from_polar(1, "1", "0"),), ctx=ctx3
        )
    with pytest.raises(ValueError, match="nu"):
        d_ladder_suite(0, Fraction(1, 2), ctx=ctx3)
    with pytest.raises(ValueError, match="n must be"):
        d_ladder_suite(3, Fraction(1, 5), ctx=ctx3)
    with pytest.raises(ValueError, match="step h"):
        d_ladder_suite(0, Fraction(1, 5), h="0.5", ctx=ctx3)
    with pytest.raises(ValueError, match="underflow"):
        d_ladder_suite(0, Fraction(1, 5), h="1e-30", ctx=ctx3, precision_bits=66)


# -- exact check of the deferred ladder action --


def _resolve_poly(zf):
    """Exact derivative of a test-only polynomial tag ("poly", t, s),
    standing for z_plus^t z_minus^s, under nested dplus / dminus / euler
    tags.  Returns [(integer factor, t, s)] with zero terms left out."""
    if zf[0] == "poly":
        return [(1, zf[1], zf[2])]
    inner = _resolve_poly(zf[1])
    if zf[0] == "dplus":
        return [(c * t, t - 1, s) for c, t, s in inner if t]
    if zf[0] == "dminus":
        return [(c * s, t, s - 1) for c, t, s in inner if s]
    if zf[0] == "euler":
        return [(c * (t - s), t, s) for c, t, s in inner if t != s]
    raise AssertionError(f"unexpected tag {zf[0]!r}")


def _resolve_terms(terms, aal):
    out = aal.zero()
    for (a, b, k), c, zf in terms:
        for f, t, s in _resolve_poly(zf):
            out = out + aal.monomial(a, b, k, t, s, coeff=c * f)
    return out


def test_deferred_action_matches_the_duality_route(ctx3):
    # _act on one-term lists with polynomial kernel expressions, resolved
    # by exact differentiation, is the right action on e+^a e-^b d^k z+^t z-^s
    dual = DualityContext(ctx3)
    aal, ual = dual.aalg, dual.ualg
    p = ctx3.p
    composite = ual.p_plus() * ual.p_minus()
    bad = []
    for a, b, k, t, s in itertools.product(range(p), range(p), range(2), range(3), range(3)):
        terms = [((a, b, k), ctx3.one(), ("poly", t, s))]
        x = aal.monomial(a, b, k, t, s)
        for gen in ("k", "H", "P+", "P-", "p+", "p-"):
            got = _resolve_terms(kernels._act(gen, terms, dual), aal)
            if got != dual.right_act(ual.generator(gen), x):
                bad.append((gen, a, b, k, t, s))
        twice = kernels._act("p-", kernels._act("p+", terms, dual), dual)
        if _resolve_terms(twice, aal) != dual.right_act(composite, x):
            bad.append(("p+ p-", a, b, k, t, s))
    assert not bad, bad[:5]


# -- contour cutoff golden --


@pytest.mark.parametrize(
    "quadrant, cutoff, node_pairs",
    [(1, 4.860546430065533, 64), (2, 4.711201578394338, 40)],
    ids=["q1", "q2"],
)
def test_integral_cutoff_golden(quadrant, cutoff, node_pairs):
    params = KernelParams(p=3, s=0, nu="0.21", mu=0, r=1, precision="1e-30")
    pt = QuadrantPoint.from_polar(quadrant, "1.3", "0.2")
    _, diag = kernel_eval_detailed(params, pt, "integral")
    assert (diag["cutoff"], diag["node_pairs"]) == (cutoff, node_pairs)
