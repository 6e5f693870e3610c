"""Kernel functions attached to the Gaussian-sector corepresentations.

A kernel here is a scalar function of a point with light-cone coordinates
(z_plus, z_minus), labelled by a shift index s and a pair of weights
(nu, mu).  Away from the light cone every point sits in one of four
quadrants, and in each quadrant the kernel has two independent
evaluations:

* ``closed``  -- a cylinder-function form: a Hankel function in the two
  quadrants where z_plus*z_minus > 0, a modified Bessel function of the
  second kind in the two where z_plus*z_minus < 0, times an exponential
  prefactor in the boost coordinate.
* ``integral`` -- direct quadrature of the defining contour integral,
  rotated onto a tilted path so the oscillatory phase becomes uniform
  exponential decay.  Nothing is shared with the closed route past the
  quadrature engine's exp/log, so agreement of the two is a genuine
  cross-check.

One table keyed by quadrant holds the signs of (z_plus, z_minus) and the
closed route's cylinder function; the reflection, both routes'
coefficients and phases, and the contour family are derived from it.
One evaluator, ``_kernel_value``, runs either route as a product of
interval boxes: the prefactor with the mu-weight, times the raw value
(the cylinder function's series box, or the contour integral plus or
minus its quadrature bound).  The boxes are raw libmpi interval tuples,
built by the calls mpmath's interval context would make for the same
expression, so they match it bit for bit without its per-object
overhead; the parts of the prefactor that depend on neither the point
nor the raw value are computed once per key.  The product's radius is
the value's one error budget, and :mod:`fsusy.bessel`'s precision
policy sizes the working precision, retries once and checks the target,
for ``kernel_eval``, the Grassmann-valued assembly ``q_kernel`` (matrix
entries of the corepresentation, carrying nilpotent generator factors)
and ``d_ladder_suite`` (the symbolic generator actions against finite
differences of the kernels) alike.  Weights, r and the point's
coordinates enter as the exact numbers they stand for.
"""

import functools
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp.libmpi import (
    mpci_mul,
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_exp,
    mpi_mul,
    mpi_neg,
    mpi_pi,
)

from .afalg import AAlgebra, AElement
from .bessel import (
    ComplexValue,
    PrecisionError,
    bessel_eval,
    _box_value,
    _certified,
    _contour_cosh_integral,
    _contour_sinh_integral,
    _enclose_mpi,
    _exact,
    _int_mpi,
    _PAD,
    _series_boxes,
    _target,
    _ZERO,
)
from .duality import DualityContext
from .report import NumericReport
from .scalars import FieldContext, FieldScalar, is_odd_prime

__all__ = [
    "QuadrantPoint",
    "quadrant_decompose",
    "KernelParams",
    "kernel_eval",
    "kernel_eval_detailed",
    "OmegaPolynomial",
    "omega_poly",
    "QKernelTerm",
    "QKernel",
    "q_kernel",
    "kernel_verify",
    "d_ladder_suite",
]

# The quadrant table: the signs (s1, s2) of (z_plus, z_minus) and the
# cylinder function of the closed route.  Every other per-quadrant fact
# follows from it:
#   * reflecting the boost coordinate (z_plus <-> z_minus) reverses (s1, s2);
#   * the closed coefficient is s1/2 on the Hankel quadrants and 1/(pi i)
#     on the K ones;
#   * the contour family is cosh on the Hankel quadrants, sinh on the K ones;
#   * s2 is both the sign of the closed route's i*pi/2 half-turn and the
#     phase sign of the contour integral.
_QUADRANTS = {1: (1, 1, "H1"), 2: (1, -1, "K"), 3: (-1, -1, "H2"), 4: (-1, 1, "K")}
_SIGNS_QUAD = {(s1, s2): quadrant for quadrant, (s1, s2, _) in _QUADRANTS.items()}


# -- quadrant geometry --


def _finite_real(label, value):
    """value as an mpf at the ambient precision; a complex, NaN or infinite
    value is a ValueError that names the coordinate."""
    v = mp.mpmathify(value)
    if isinstance(v, mp.mpc) or not mp.isfinite(v):
        raise ValueError(f"{label} must be a finite real number, got {value}")
    return v


@dataclass(frozen=True)
class QuadrantPoint:
    """A point off the light cone, stored both ways: cartesian
    (z_plus, z_minus) and polar (quadrant, rho, beta) with
    z_plus = s1 * (rho/2) * exp(beta), z_minus = s2 * (rho/2) * exp(-beta).
    lambda_val is the extra central coordinate the kernels couple to only
    through their mu-weight."""

    quadrant: int
    rho: mp.mpf
    beta: mp.mpf
    lambda_val: mp.mpf
    z_plus: mp.mpf
    z_minus: mp.mpf

    @classmethod
    def from_polar(cls, quadrant, rho, beta, lambda_val=0):
        if quadrant not in _QUADRANTS:
            raise ValueError(f"quadrant must be 1..4, got {quadrant}")
        with mp.extraprec(80):
            rho = _finite_real("rho", rho)
            beta = _finite_real("beta", beta)
            lam = _finite_real("lambda", lambda_val)
            if rho <= 0:
                raise ValueError("rho must be positive")
            s1, s2, _ = _QUADRANTS[quadrant]
            zp = s1 * rho / 2 * mp.exp(beta)
            zm = s2 * rho / 2 * mp.exp(-beta)
        return cls(quadrant, rho, beta, lam, zp, zm)

    def swapped(self):
        """The reflected point: z_plus <-> z_minus (beta flips sign)."""
        s1, s2, _ = _QUADRANTS[self.quadrant]
        return QuadrantPoint(
            _SIGNS_QUAD[(s2, s1)],
            self.rho,
            mp.fneg(self.beta, exact=True),
            self.lambda_val,
            self.z_minus,
            self.z_plus,
        )

    def __str__(self):
        return (
            f"Q{self.quadrant}(rho={mp.nstr(self.rho, 8)}, "
            f"beta={mp.nstr(self.beta, 8)})"
        )


def quadrant_decompose(z_plus, z_minus, lambda_val=0):
    """Polar form of a point: rho = 2*sqrt|z+ z-|, beta = log|z+/z-| / 2.

    Points on the light cone (either coordinate zero) have no quadrant
    and are rejected."""
    with mp.extraprec(80):
        zp = _finite_real("z_plus", z_plus)
        zm = _finite_real("z_minus", z_minus)
        lam = _finite_real("lambda", lambda_val)
        if zp == 0 or zm == 0:
            raise ValueError("point lies on the light cone; no quadrant applies")
        quadrant = _SIGNS_QUAD[(1 if zp > 0 else -1, 1 if zm > 0 else -1)]
        rho = 2 * mp.sqrt(abs(zp * zm))
        beta = mp.log(abs(zp / zm)) / 2
    return QuadrantPoint(quadrant, rho, beta, lam, zp, zm)


# -- kernel parameters --


@dataclass(frozen=True)
class KernelParams:
    """Labels of one scalar kernel: modulus p, shift index s, weights
    (nu, mu), radial scale r > 0, and the relative-error target.

    The combined exponent nu - mu + s/p must lie strictly inside (-1, 1);
    outside that strip the defining integral diverges and only the
    cylinder-function form continues to make sense (internal callers use
    the continuation directly, bypassing this gate)."""

    p: int
    s: int
    nu: object
    mu: object
    r: object
    precision: object = "1e-10"

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not isinstance(self.s, int):
            raise ValueError("shift index s must be an integer")
        for label, v in (("nu", self.nu), ("mu", self.mu)):
            _exact(v, label)
        if _exact(self.r, "r") <= 0:
            raise ValueError("r must be positive")
        _target(self.precision)
        if not -1 < self._exponent() < 1:
            a = mp.nstr(self.strip_exponent(), 6)
            raise ValueError(
                f"nu - mu + s/p = {a} is outside the open "
                "strip (-1, 1) where the integral converges"
            )

    def _exponent(self):
        """nu - mu + s/p, exactly: minus the order abar of the kernel values."""
        return _exact(self.nu) - _exact(self.mu) + Fraction(self.s, self.p)

    def strip_exponent(self):
        """nu - mu + s/p as an mpf at the ambient precision."""
        a = self._exponent()
        return mp.mpf(a.numerator) / a.denominator


# -- evaluation --

# the beta-independent raw values, each cached once per conjugate pair,
# and per route the keys read since kernel_verify last began
_BESSEL_CACHE = {}
_J_CACHE = {}
_READ_KEYS = {"closed": set(), "integral": set()}


def _target_scale(family, abar, x):
    """The scale of the integral route's absolute target, rel_target/16
    times this: exp(-x), as K decays, and for the cosh family at
    |abar| >= 1/2 the larger (2*pi/x)^(1/2), a lower bound on the raw
    value's modulus pi*|H1_abar(x)| (see _raw_boxes), shaded below its
    rounding by _PAD."""
    scale = mp.exp(-x)
    if family == "cosh" and abs(abar) >= Fraction(1, 2):
        scale = max(scale, mp.sqrt(2 * mp.pi / x) / _PAD)
    return scale


def _raw_boxes(mode, quadrant, abar, x, bits, rel_target):
    """Either route's raw value as raw interval boxes (real part, imaginary
    part) at bits, and its diagnostics: the cylinder function's series
    boxes, or the tilted-path integral plus or minus its certified
    quadrature bound, the sum of the discretisation, tail and rounding
    terms, at absolute tolerance rel_target/16 * _target_scale, the integral
    route's share of the target.  K decays like exp(-x).  The cosh
    integral is pi*i*exp(i*abar*pi/2)*H1_abar(x), and for nu >= 1/2
    x*|H_nu(x)|^2 is non-increasing with limit 2/pi (Watson, "A Treatise
    on the Theory of Bessel Functions", 13.74), so with |H_-nu| = |H_nu|
    its modulus is at least (2*pi/x)^(1/2) wherever |abar| >= 1/2.  The
    integral's diagnostics add the tilt theta of its family, the cutoff,
    step, node pairs, strip and the three terms.  A contour that fails
    the decay guard raises ArithmeticError,
    and one without a finite bound PrecisionError.  H2 = conj(H1) and
    the phase -1 contour mirrors phase +1 (DLMF 10.11), so only s2 = +1
    is evaluated and s2 = -1 negates the imaginary box.  Each cache key
    holds all a box depends on: family, abar, x, bits, and the
    integral's target."""
    _, s2, cylinder = _QUADRANTS[quadrant]
    if mode == "closed":
        family = "K" if cylinder == "K" else "H1"
        key = (family, abar, x, bits)
        if key not in _BESSEL_CACHE:
            _BESSEL_CACHE[key] = _series_boxes(family, abar, x, bits)
        re, im = _BESSEL_CACHE[key]
        diag = {"route": "closed", "cylinder": cylinder}
    else:
        family = "sinh" if cylinder == "K" else "cosh"
        key = (family, abar, x, bits, rel_target._mpf_)
        if key not in _J_CACHE:
            fn = _contour_cosh_integral if family == "cosh" else _contour_sinh_integral
            with mp.workprec(bits):
                arg = mp.mpmathify(x)
                eps_abs = rel_target / 16 * _target_scale(family, abar, arg)
                raw, jerr, terms = fn(arg, mp.mpmathify(abar), eps_abs)
            if not mp.isfinite(jerr):
                raise PrecisionError("tilted contour: no finite quadrature bound", achieved=mp.inf)
            disc = mp.fneg(jerr, exact=True)._mpf_, jerr._mpf_
            re, im = (mpi_add(disc, (v._mpf_, v._mpf_), bits) for v in (raw.real, raw.imag))
            terms = {name: v if isinstance(v, int) else float(v) for name, v in terms.items()}
            _J_CACHE[key] = (re, im, terms)
        re, im, terms = _J_CACHE[key]
        diag = {"route": "integral", "family": family, "phase_sign": s2, **terms}
    _READ_KEYS[mode].add(key)
    return re, (mpi_neg(im) if s2 < 0 else im), diag


@functools.lru_cache(maxsize=16)
def _prefactor_parts(mode, quadrant, abar, mu, bits):
    """The parts of a value's prefactor that depend on neither the point
    nor the raw value, as raw interval tuples at `bits`: the enclosures of
    abar and mu, the coefficient (real part, imaginary part), and cos/sin
    of the half-turn at bits + 20, the precision the interval exp takes
    them at.  Each comes from the libmpi calls mpmath's interval context
    makes for the coefficient and half-turn of `_kernel_value`'s two
    forms, so the product built from them is bit for bit its own."""
    s1, s2, cylinder = _QUADRANTS[quadrant]
    a = _enclose_mpi(abar, bits)
    pi = mpi_pi(bits)
    two = _int_mpi(2, bits)
    if mode == "integral":
        coeff, turn = (_ZERO, mpi_div(_int_mpi(-1, bits), mpi_mul(two, pi, bits), bits)), _ZERO
    else:
        if cylinder == "K":
            coeff = _ZERO, mpi_div(_int_mpi(-1, bits), pi, bits)
        else:
            coeff = mpi_div(_int_mpi(s1, bits), two, bits), _ZERO
        turn = mpi_div(mpi_mul(mpi_mul(_int_mpi(s2, bits), a, bits), pi, bits), two, bits)
    return a, _enclose_mpi(mu, bits), coeff, mpi_cos_sin(turn, bits + 20)


def _kernel_value(point, abar, mu, r, rel_target, mode):
    """One kernel value at a point by either route, with no strip gate:
    returns (ComplexValue, diagnostics), and raises PrecisionError if the
    certified relative error misses rel_target.

    abar, a Fraction, is minus the combined exponent, mu the weight of
    exp(mu*lambda) and r the radial scale (x = r*rho), each read as the
    exact number it stands for.  The cylinder form is the analytic
    continuation in abar, valid while the Bessel order stays inside the
    evaluator window; the contour integral converges only inside the
    strip.  Both routes are a prefactor box times the raw value's box:

        closed:    coeff * exp(abar*(beta + s2*i*pi/2)) * C_abar(x)
        integral:  exp(abar*beta)/(2*pi*i) * tilted-path integral

    with coeff, C and the contour read off the quadrant table.  The boxes
    are raw libmpi interval tuples: exp of the complex exponent is exp of
    its real part abar*beta + mu*lambda at bits + 20 times the cached
    cos/sin of the half-turn, as the interval exp computes it."""
    x = _exact(r) * _exact(point.rho)
    mu = _exact(mu)
    beta = point.beta._mpf_
    lam = point.lambda_val._mpf_
    diag = {}

    def value_at(bits):
        re, im, raw_diag = _raw_boxes(mode, point.quadrant, abar, x, bits, rel_target)
        diag.update(raw_diag)
        a, m, coeff, (cos, sin) = _prefactor_parts(mode, point.quadrant, abar, mu, bits)
        real = mpi_add(mpi_mul(a, (beta, beta), bits), mpi_mul(m, (lam, lam), bits), bits)
        scale = mpi_exp(real, bits + 20)
        turned = mpi_mul(scale, cos, bits), mpi_mul(scale, sin, bits)
        return _box_value(mpci_mul(mpci_mul(coeff, turned, bits), (re, im), bits), bits)

    value, err = _certified(value_at, rel_target, float(x), abar, "kernel evaluation")
    return ComplexValue(value.real, value.imag, err), diag


def kernel_eval_detailed(params: KernelParams, point: QuadrantPoint, mode="closed"):
    """Evaluate one scalar kernel at one point.

    mode "closed" uses the cylinder-function form, mode "integral" the
    direct contour quadrature.  Returns (ComplexValue, diagnostics);
    raises PrecisionError if the relative-error target is missed."""
    if mode not in ("closed", "integral"):
        raise ValueError(f"mode must be 'closed' or 'integral', got {mode!r}")
    if not isinstance(point, QuadrantPoint):
        raise TypeError("point must be a QuadrantPoint")
    abar = -params._exponent()
    return _kernel_value(point, abar, params.mu, params.r, _target(params.precision), mode)


def kernel_eval(params: KernelParams, point: QuadrantPoint, mode="closed") -> ComplexValue:
    """Evaluate one scalar kernel at one point; see kernel_eval_detailed."""
    return kernel_eval_detailed(params, point, mode)[0]


# -- omega polynomials --


@dataclass(frozen=True)
class OmegaPolynomial:
    """Polynomial in the invariant quadratic xi that dresses the
    Grassmann factor of shift s in the kernel assembly.  coeffs[m] is
    the exact scalar in front of xi^m."""

    s: int
    coeffs: tuple
    literal: bool

    def degree(self):
        return len(self.coeffs) - 1

    def as_aelement(self, aal: AAlgebra) -> AElement:
        xi = aal.xi()
        acc = aal.one()
        out = aal.zero()
        for c in self.coeffs:
            out = out + acc * c
            acc = acc * xi
        return out


def omega_poly(s: int, ctx: FieldContext, literal: bool = False) -> OmegaPolynomial:
    """Coefficients of the dressing polynomial of shift s:

        coeff[m] = (i*chat)^(2m+s) * q^(s*m) / ([m]! [m+s]!),   m = 0..p-1-s

    with chat the real p-th root of r.  literal=True switches the
    denominator to [m]! [s]! (an alternative reading kept only so the
    ladder suite can demonstrate it breaks the generator relations)."""
    p = ctx.p
    if not 0 <= s <= p - 1:
        raise ValueError(f"shift must be in [0, {p - 1}], got {s}")
    ichat = ctx.i() * ctx.c_hat(1)
    top = p - 1 - s

    # ratio recursion from the m = 0 seed
    seed = ichat**s / ctx.qfact(s)
    ratio_step = ichat * ichat * ctx.q(s)
    rec = [seed]
    for m in range(top):
        denom = ctx.qint(m + 1) * (ctx.one() if literal else ctx.qint(m + s + 1))
        rec.append(rec[-1] * ratio_step / denom)
    return OmegaPolynomial(s, tuple(rec), literal)


# -- Grassmann-valued assembly --


@dataclass(frozen=True)
class QKernelTerm:
    """One term of the assembled matrix entry: an exact Grassmann factor
    times the scalar kernel of the given shift, evaluated at the point."""

    grassmann: AElement
    shift: int
    designator: str
    k_value: ComplexValue


@dataclass(frozen=True)
class QKernel:
    """Matrix entry Q[k, l] of the corepresentation: a sum of Grassmann
    factors weighted by scalar kernel values."""

    k: int
    l: int
    terms: tuple
    params: KernelParams
    point: QuadrantPoint

    def coefficients(self, prec: int = 128):
        """Collapse to {monomial: complex coefficient} by evaluating the
        exact Grassmann scalars at prec bits and scaling by the kernel
        values."""
        out = {}
        with mp.workprec(prec + 16):
            for term in self.terms:
                kv = term.k_value.to_mpc()
                for mon, c in term.grassmann.terms.items():
                    v = c.evaluate(prec) * kv
                    cur = out.get(mon)
                    out[mon] = v if cur is None else cur + v
        return out


def _grassmann_factors(e, ctx, aal, qs, literal=False):
    """The Grassmann factors of the shifts e and e - p,

        (qs^-1 eta_plus)^e * omega_e(xi)
        omega_{p-e}(xi) * (qs eta_minus)^{p-e}     (only for e > 0),

    as a list of (factor, shift) with zero factors left out.  Both the
    matrix entries and the ladder's diagonal entries are built from them."""
    p = ctx.p
    out = []
    g1 = (aal.eta_plus() ** e) * qs.invert() ** e * omega_poly(
        e, ctx, literal
    ).as_aelement(aal)
    if not g1.is_zero():
        out.append((g1, e))
    if e > 0:
        g2 = omega_poly(p - e, ctx, literal).as_aelement(aal) * (
            aal.eta_minus() ** (p - e)
        ) * qs ** (p - e)
        if not g2.is_zero():
            out.append((g2, e - p))
    return out


def q_kernel(
    k: int,
    l: int,
    params: KernelParams,
    point: QuadrantPoint,
    ctx: FieldContext,
    dual: DualityContext | None = None,
) -> QKernel:
    """Assemble the (k, l) matrix entry at a point.

    With e = (l - k) mod p the entry is

        (qs^-1 eta_plus)^e * omega_e(xi) * delta^k * K[shift e]
        + omega_{p-e}(xi) * (qs eta_minus)^{p-e} * delta^k * K[shift e-p]

    where qs is the convention-fixed square root of q and the second
    term is present only for e > 0.  Kernel values use the closed route
    via the strip continuation (the second term's exponent always leaves
    the strip).  params must carry s = 0; the assembly sets the per-term
    shifts itself."""
    p = ctx.p
    if params.p != p:
        raise ValueError("params.p differs from ctx.p")
    if params.s != 0:
        raise ValueError("assembly requires params.s == 0; shifts are per term")
    if Fraction(params.r) != ctx.r:
        raise ValueError("params.r differs from ctx.r")
    if not (0 <= k < p and 0 <= l < p):
        raise ValueError(f"matrix indices must be in [0, {p - 1}]")
    if dual is None:
        dual = DualityContext(ctx)
    aal = AAlgebra(ctx)
    qs = dual._sqrt_q

    try:
        nuF = Fraction(params.nu)
        muF = Fraction(params.mu)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            "assembly keeps weights exact; pass nu and mu as int, Fraction, "
            "or a decimal/ratio string"
        ) from exc
    tgt = _target(params.precision)
    terms = []
    for factor, shift in _grassmann_factors((l - k) % p, ctx, aal, qs):
        cv, _ = _kernel_value(point, muF - nuF - Fraction(shift, p), muF, ctx.r, tgt, "closed")
        terms.append(
            QKernelTerm(factor * aal.delta(k), shift, f"K[shift {shift:+d}]", cv)
        )
    return QKernel(k, l, tuple(terms), params, point)


# -- two-route verification grid --


def kernel_verify(
    p: int = 3,
    rs=("1/2", "1", "2"),
    rhos=("1/2", "1", "2"),
    betas=("-1", "0", "1"),
    exponents=("-0.3", "0", "0.3"),
    quadrants=(1, 2, 3, 4),
) -> NumericReport:
    """Closed vs integral route over a grid of kernel parameters, both
    at relative target 1e-16.

    The grid runs the strip exponent nu - mu + s/p over `exponents`
    (realized as nu with mu = 0, s = 0).  Every quadrant, the decaying
    K ones and the oscillatory Hankel ones alike, must agree to 1e-8.
    Also checks the boost-reflection symmetry
    K[a](beta) = K[-a, swapped quadrant](-beta), the two fixed pointwise
    oracle values in quadrants 1 and 2, and that a mu = 0 kernel ignores
    the lambda coordinate.  The cache counts are the distinct raw values
    this call read, whatever the process evaluated before."""
    precision = "1e-16"
    tol = mp.mpf("1e-8")
    report = NumericReport("kernel-verify")
    for keys in _READ_KEYS.values():
        keys.clear()
    report.measure("p", p)
    report.measure("precision", precision)
    t0 = time.perf_counter()
    rows = []
    worst = {quadrant: mp.mpf(0) for quadrant in quadrants}
    for quadrant in quadrants:
        for r in rs:
            for rho in rhos:
                for beta in betas:
                    for a in exponents:
                        params = KernelParams(
                            p=p, s=0, nu=a, mu=0, r=r, precision=precision
                        )
                        point = QuadrantPoint.from_polar(quadrant, rho, beta)
                        closed = kernel_eval(params, point, "closed")
                        integral = kernel_eval(params, point, "integral")
                        with mp.workprec(64):
                            cv = closed.to_mpc()
                            iv = integral.to_mpc()
                            rel = abs(cv - iv) / max(abs(cv), abs(iv))
                        worst[quadrant] = max(worst[quadrant], rel)
                        rows.append(
                            {
                                "quadrant": quadrant,
                                "r": r,
                                "rho": rho,
                                "beta": beta,
                                "exponent": a,
                                "closed": mp.nstr(cv, 20),
                                "integral": mp.nstr(iv, 20),
                                "rel_err": float(rel),
                            }
                        )
    for quadrant in quadrants:
        report.check(
            f"quadrant {quadrant}: closed vs integral on the grid",
            worst[quadrant] < tol,
            detail=f"worst rel err {mp.nstr(worst[quadrant], 4)}, tol {mp.nstr(tol, 2)}",
            residual=float(worst[quadrant]),
        )

    # boost reflection: negating the exponent and beta while swapping
    # z_plus <-> z_minus reproduces the same value
    sym_worst = mp.mpf(0)
    for quadrant in quadrants:
        pt = QuadrantPoint.from_polar(quadrant, "1.3", "0.7")
        base = kernel_eval(
            KernelParams(p=p, s=0, nu="0.3", mu=0, r=1, precision=precision), pt
        )
        mirrored = kernel_eval(
            KernelParams(p=p, s=0, nu="-0.3", mu=0, r=1, precision=precision),
            pt.swapped(),
        )
        with mp.workprec(64):
            sym_worst = max(
                sym_worst, abs(base.to_mpc() - mirrored.to_mpc()) / abs(base.to_mpc())
            )
    report.check(
        "boost reflection symmetry",
        sym_worst < mp.mpf("1e-12"),
        detail=f"worst rel err {mp.nstr(sym_worst, 4)}",
        residual=float(sym_worst),
    )

    # pointwise oracles at zero exponent, r*rho = 1: quadrant 1 gives
    # H1_0(1)/2, quadrant 2 gives K_0(1)/(pi*i)
    params0 = KernelParams(p=p, s=0, nu=0, mu=0, r=1, precision=precision)
    with mp.workprec(320):
        got1 = kernel_eval(params0, QuadrantPoint.from_polar(1, 1, "0.4")).to_mpc()
        want1 = bessel_eval("H1", 0, 1, precision="1e-30").to_mpc() / 2
        got2 = kernel_eval(params0, QuadrantPoint.from_polar(2, 1, "0.4")).to_mpc()
        want2 = bessel_eval("K", 0, 1, precision="1e-30").to_mpc() / (mp.pi * 1j)
        res1 = abs(got1 - want1) / abs(want1)
        res2 = abs(got2 - want2) / abs(want2)
    report.check(
        "pointwise oracle: quadrant 1 equals H1_0(1)/2",
        res1 < mp.mpf("1e-14"),
        residual=float(res1),
    )
    report.check(
        "pointwise oracle: quadrant 2 equals K_0(1)/(pi i)",
        res2 < mp.mpf("1e-14"),
        residual=float(res2),
    )

    # a mu = 0 kernel cannot see lambda
    pt_a = QuadrantPoint.from_polar(3, 1, "0.2", lambda_val=0)
    pt_b = QuadrantPoint.from_polar(3, 1, "0.2", lambda_val=1)
    va = kernel_eval(params0, pt_a)
    vb = kernel_eval(params0, pt_b)
    report.check(
        "mu = 0 kernel is lambda-independent",
        va.re == vb.re and va.im == vb.im,
    )

    report.measure("elapsed_seconds", round(time.perf_counter() - t0, 3))
    report.measure("rows", rows)
    report.measure("bessel_cache_entries", len(_READ_KEYS["closed"]))
    report.measure("contour_cache_entries", len(_READ_KEYS["integral"]))
    return report


# -- generator ladder against finite differences --


@dataclass
class _LadderEnv:
    """Shared evaluation state for one ladder run."""

    p: int
    rF: Fraction
    h: mp.mpf
    rel_target: mp.mpf
    cache: dict


def _eval_zfunc(zf, zp, zm, env: _LadderEnv):
    """Evaluate a kernel-derivative expression at cartesian (zp, zm).

    zf is a nested tag tuple: ("base", shift, nuF) is the scalar kernel
    itself (mu = 0); ("dplus", inner) / ("dminus", inner) differentiate
    in z_plus / z_minus by central differences; ("euler", inner) is
    z_plus d_plus - z_minus d_minus at the same point."""
    tag = zf[0]
    if tag == "base":
        _, shift, nuF = zf
        key = (shift, nuF, zp._mpf_, zm._mpf_)
        hit = env.cache.get(key)
        if hit is None:
            point = quadrant_decompose(zp, zm)
            abar = -nuF - Fraction(shift, env.p)
            hit = _kernel_value(point, abar, 0, env.rF, env.rel_target, "closed")[0].to_mpc()
            env.cache[key] = hit
        return hit
    if tag == "dplus":
        step = env.h * max(mp.mpf(1), abs(zp))
        hi = _eval_zfunc(zf[1], zp + step, zm, env)
        lo = _eval_zfunc(zf[1], zp - step, zm, env)
        return (hi - lo) / (2 * step)
    if tag == "dminus":
        step = env.h * max(mp.mpf(1), abs(zm))
        hi = _eval_zfunc(zf[1], zp, zm + step, env)
        lo = _eval_zfunc(zf[1], zp, zm - step, env)
        return (hi - lo) / (2 * step)
    if tag == "euler":
        inner = zf[1]
        return zp * _eval_zfunc(("dplus", inner), zp, zm, env) - zm * _eval_zfunc(
            ("dminus", inner), zp, zm, env
        )
    raise ValueError(f"unknown kernel-expression tag {tag!r}")


def _d_terms(n, nuF, dual, literal=False):
    """Symbolic form of the diagonal corepresentation entry D_n at weight
    nuF: a list of (monomial, exact scalar, kernel expression) with
    monomial = (eta_plus power, eta_minus power, delta power)."""
    ctx = dual.ctx
    out = []
    for factor, shift in _grassmann_factors(n % ctx.p, ctx, dual.aalg, dual._sqrt_q, literal):
        for mon, c in factor.terms.items():
            if any(mon[i] for i in (3, 4, 5)) or mon[6] != 0:
                raise AssertionError("assembly left the Grassmann sector")
            out.append(((mon[0], mon[1], mon[2]), c, ("base", shift, nuF)))
    return out


def _act(gen, terms, dual):
    """Right action of one generator on a symbolic term list, by the
    closed-form table of the function algebra.  The action on the
    classical factor is deferred into the kernel expression as (op, zf)."""
    out = []
    for (a, b, k), c, zf in terms:
        for (a2, b2), coeff, op in dual.right_steps(gen, a, b, k):
            out.append(((a2, b2, k), c * coeff, zf if op is None else (op, zf)))
    return out


def _eval_terms(terms, zp, zm, env: _LadderEnv, prec_scalars):
    out = {}
    for mon, c, zf in terms:
        v = c.evaluate(prec_scalars) * _eval_zfunc(zf, zp, zm, env)
        cur = out.get(mon)
        out[mon] = v if cur is None else cur + v
    return out


def d_ladder_suite(
    n: int,
    nu,
    grid=None,
    h="1e-4",
    ctx: FieldContext | None = None,
    precision_bits: int = 192,
) -> NumericReport:
    """Verify the generator ladder on the diagonal corepresentation
    entries D_n numerically.

    Symbolic generator actions (exact scalars, derivative parts deferred)
    are evaluated by central finite differences of the scalar kernels at
    each grid point (quadrant 3, the H2 quadrant, where the kernels are
    smooth) and compared against the predicted ladder targets:

      kappa:  q^n * D_n                      (exact, no numerics)
      H:      -i*nu * D_n
      P+/-:   -r * D_n at weight nu +/- 1
      p+/-:   -chat * D_{n -/+ 1 mod p} at weight nu +/- 1/p
      C:      p- after p+, equal to chat^2 * D_n

    with chat the real p-th root of r.  The weight must satisfy
    0 < nu < 1/p so every shifted kernel order stays inside the cylinder
    evaluator's window.  Also reports the residual of the alternative
    eigenvalue -i*(nu + n/p) for H, and demonstrates that the
    alternative omega-denominator reading breaks the p+ relation."""
    if ctx is None:
        ctx = FieldContext(3)
    p = ctx.p
    if not 0 <= n < p:
        raise ValueError(f"n must be in [0, {p - 1}]")
    nuF = Fraction(nu)
    if not 0 < nuF < Fraction(1, p):
        raise ValueError("need 0 < nu < 1/p so all shifted orders stay evaluable")
    bits = int(precision_bits)
    with mp.workprec(bits):
        h_val = mp.mpf(h)
        if not 0 < h_val <= mp.mpf("0.01"):
            raise ValueError("step h must be in (0, 0.01]")
        if h_val < mp.mpf(2) ** (-(bits // 3)):
            raise ValueError(
                "step h underflows the working precision; raise h or precision_bits"
            )
    if grid is None:
        grid = (
            QuadrantPoint.from_polar(3, "1", "0.25"),
            QuadrantPoint.from_polar(3, "0.8", "-0.4"),
        )
    for point in grid:
        if point.quadrant != 3:
            raise ValueError("ladder grid points must sit in quadrant 3")

    dual = DualityContext(ctx)
    env = _LadderEnv(p, ctx.r, h_val, _target("1e-18"), {})
    report = NumericReport("d-ladder")
    report.measure("p", p)
    report.measure("n", n)
    report.measure("nu", str(nuF))
    report.measure("h", str(h_val))

    base = _d_terms(n, nuF, dual)

    # kappa action is exact scalar rescaling; check symbolically
    kap = _act("k", base, dual)
    qn = ctx.q(n)
    kappa_exact = len(kap) == len(base) and all(
        ko == bo and zo == zb and co == cb * qn
        for (ko, co, zo), (bo, cb, zb) in zip(kap, base)
    )
    report.check("kappa rescales D_n by q^n (exact)", kappa_exact, residual=0.0)

    with mp.workprec(bits):
        r_num = mp.mpmathify(ctx.r)
        chat = ctx.c_hat(1).evaluate(bits)
        nu_num = mp.mpmathify(nuF)
        tol_fd = mp.mpf("1e-4")
        tol_mixed = mp.mpf("1e-3")

        acted = {gen: _act(gen, base, dual) for gen in ("H", "P+", "P-", "p+", "p-")}
        # the swap of readings is invisible on the p+ step out of
        # n = 0 (the rescaling factors cancel between the source and
        # target polynomials there), so discriminate at n >= 1
        n_lit = n if n != 0 else 1
        step = Fraction(1, p)
        # each ladder relation once, as label -> (acted terms, target terms,
        # factor, normaliser).  Its residual at a point is the largest
        # |acted - factor * target| over the monomials, relative to the
        # largest coefficient of either side or the normaliser if that is
        # larger: max |D_n| at the point for None, else a fixed floor.
        rows = {
            "H": (acted["H"], base, -1j * nu_num, None),
            "H-alt": (acted["H"], base, -1j * (nu_num + mp.mpf(n) / p), None),
            "P+": (acted["P+"], _d_terms(n, nuF + 1, dual), -r_num, None),
            "P-": (acted["P-"], _d_terms(n, nuF - 1, dual), -r_num, None),
            "p+": (acted["p+"], _d_terms((n - 1) % p, nuF + step, dual), -chat, None),
            "p-": (acted["p-"], _d_terms((n + 1) % p, nuF - step, dual), -chat, None),
            "C": (_act("p-", acted["p+"], dual), base, chat * chat, None),
            "literal": (
                _act("p+", _d_terms(n_lit, nuF, dual, literal=True), dual),
                _d_terms((n_lit - 1) % p, nuF + step, dual, literal=True),
                -chat,
                mp.mpf("1e-30"),
            ),
        }
        term_lists = {id(terms): terms for row in rows.values() for terms in row[:2]}

        worst = dict.fromkeys(rows, mp.mpf(0))
        ratio_samples = []
        for point in grid:
            values = {
                key: _eval_terms(terms, point.z_plus, point.z_minus, env, bits)
                for key, terms in term_lists.items()
            }
            scale_d = max(abs(v) for v in values[id(base)].values())
            for label, (acted_terms, target_terms, factor, norm) in rows.items():
                lhs = values[id(acted_terms)]
                rhs = {mon: factor * v for mon, v in values[id(target_terms)].items()}
                gap = scale = mp.mpf(0)
                for mon in set(lhs) | set(rhs):
                    lv = lhs.get(mon, mp.mpc(0))
                    rv = rhs.get(mon, mp.mpc(0))
                    gap = max(gap, abs(lv - rv))
                    scale = max(scale, abs(lv), abs(rv))
                floor = scale_d if norm is None else norm
                worst[label] = max(worst[label], gap / max(scale, floor))
            lhs, tgt = (values[id(terms)] for terms in rows["p+"][:2])
            mon = max(tgt, key=lambda mm: abs(tgt[mm]))
            if mon in lhs:
                ratio_samples.append(lhs[mon] / tgt[mon])

        for title, labels, tol in (
            ("H scales D_n by -i*nu", ("H",), tol_fd),
            ("translation steps: P+/- send nu to nu +/- 1 with factor -r", ("P+", "P-"), tol_fd),
            (
                "root steps: p+/- shift (n, nu) by (-1, +1/p) / (+1, -1/p) with factor -chat",
                ("p+", "p-"),
                tol_mixed,
            ),
            ("composition p- after p+ scales D_n by chat^2", ("C",), tol_mixed),
        ):
            shown = {label: mp.nstr(worst[label], 4) for label in labels}
            if len(labels) == 1:
                detail = f"worst rel residual {shown[labels[0]]}"
            else:
                detail = ", ".join(f"{label} {s}" for label, s in shown.items())
            report.check(
                title,
                all(worst[label] < tol for label in labels),
                detail=detail,
                residual=float(max(worst[label] for label in labels)),
            )
        report.measure("H_alt_eigenvalue_residual", float(worst["H-alt"]))
        if ratio_samples:
            avg = sum(ratio_samples) / len(ratio_samples)
            report.measure(
                "p+_empirical_ratio",
                f"{mp.nstr(avg, 10)} (expected -chat = {mp.nstr(-chat, 10)})",
            )
        report.measure("p+_residual_literal_omega", float(worst["literal"]))
        report.check(
            f"alternative omega denominator breaks the p+ step at n = {n_lit}",
            worst["literal"] > mp.mpf("1e-2") and worst["p+"] < tol_mixed,
            detail=(
                f"literal-reading residual {mp.nstr(worst['literal'], 4)} vs "
                f"{mp.nstr(worst['p+'], 4)} for the factorial-pair reading"
            ),
        )

    report.measure("kernel_cache_entries", len(env.cache))
    return report
