import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fsusy.scalars import FieldContext, cyclotomic

PRIMES = (3, 5, 7)


def random_scalar(ctx, rng, with_c=True, with_pi=False, nterms=3):
    acc = ctx.zero()
    for _ in range(nterms):
        t = ctx.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        t = t * ctx.zeta(rng.randrange(4 * ctx.p))
        if with_c:
            t = t * ctx.c_hat(rng.randrange(ctx.p))
        if with_pi:
            t = t * ctx.sqrt_pi(rng.randint(-1, 2))
        acc = acc + t
    return acc


# -- cyclotomic construction, checked against an independent identity --

def test_cyclotomic_12_literal():
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_cyclotomic_4p_equals_phi_p_of_minus_x_squared(p):
    # Phi_{4p}(x) = Phi_p(-x^2) for odd primes p; a different route entirely
    phi_p = cyclotomic(p)
    expect = [Fraction(0)] * (2 * (p - 1) + 1)
    for j, c in enumerate(phi_p):
        expect[2 * j] += c * (-1) ** j
    assert list(cyclotomic(4 * p)) == expect


@pytest.mark.parametrize("p", PRIMES)
def test_root_orders(p):
    ctx = FieldContext(p)
    assert ctx.zeta(4 * p) == ctx.one()
    assert ctx.zeta(2 * p) == -ctx.one()
    assert ctx.i() * ctx.i() == -ctx.one()
    assert ctx.q(p) == ctx.one()
    assert ctx.q(1) != ctx.one()
    assert ctx.sqrt_q() * ctx.sqrt_q() == ctx.q()


def test_primitive_4p_not_lower_order(ctx):
    # zeta^j != 1 for all 0 < j < 4p
    for j in range(1, 4 * ctx.p):
        assert ctx.zeta(j) != ctx.one()


# -- q-combinatorics --

def test_qint_small_values_p3(ctx3):
    assert ctx3.qint(0).is_zero()
    assert ctx3.qint(1) == ctx3.one()
    # 1 + q + q^2 = 0 at p = 3, so [2] = q + 1/q = -1
    assert ctx3.qint(2) == -ctx3.one()
    assert ctx3.qint(3).is_zero()


def test_qint_reflection(ctx):
    for k in range(1, ctx.p):
        assert ctx.qint(ctx.p - k) == -ctx.qint(k)
    assert ctx.qint(ctx.p).is_zero()


def test_qint_ratio_definition(ctx):
    # [n] (q - 1/q) = q^n - q^-n
    for n in range(0, 2 * ctx.p):
        lhs = ctx.qint(n) * (ctx.q(1) - ctx.q(-1))
        assert lhs == ctx.q(n) - ctx.q(-n)


def test_qfact_nonzero_below_p(ctx):
    for n in range(ctx.p):
        f = ctx.qfact(n)
        assert not f.is_zero()
        assert (f / f) == ctx.one()


def test_unit_coefficients_are_the_unit_object(ctx):
    # the products pass a factor that is the unit object through untouched,
    # so every factory must hand out that object for 1
    assert ctx.from_fraction(1) is ctx.one()
    assert ctx.from_fraction(Fraction(3, 3)) is ctx.one()
    assert ctx.q(0) is ctx.one()
    for n in range(ctx.p):
        assert ctx.qbinom(n, 0) is ctx.qbinom(n, n) is ctx.one()


def test_qbinom_pascal_rule(ctx):
    # [n, j] = q^j [n-1, j] + q^(j-n) [n-1, j-1] for the symmetric q-binomial
    for n in range(2, ctx.p):
        for j in range(1, n):
            rhs = ctx.q(j) * ctx.qbinom(n - 1, j) + ctx.q(j - n) * ctx.qbinom(n - 1, j - 1)
            assert ctx.qbinom(n, j) == rhs


# -- ring axioms on random elements --

def test_ring_axioms_random(ctx):
    rng = random.Random(20260816)
    for _ in range(25):
        a = random_scalar(ctx, rng, with_pi=True)
        b = random_scalar(ctx, rng, with_pi=True)
        c = random_scalar(ctx, rng, with_pi=True)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (-a) == ctx.zero()
        assert a * ctx.one() == a


def test_conjugation(ctx):
    rng = random.Random(7)
    assert ctx.i().conjugate() == -ctx.i()
    assert ctx.q(1).conjugate() == ctx.q(-1)
    assert ctx.c_hat().conjugate() == ctx.c_hat()
    assert ctx.sqrt_pi().conjugate() == ctx.sqrt_pi()
    for _ in range(20):
        a = random_scalar(ctx, rng, with_pi=True)
        b = random_scalar(ctx, rng, with_pi=True)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


# -- inversion --

def test_invert_cyclotomic_random(ctx):
    rng = random.Random(11)
    hits = 0
    while hits < 15:
        a = random_scalar(ctx, rng, with_c=False)
        if a.is_zero():
            continue
        hits += 1
        assert a * a.invert() == ctx.one()


def test_invert_with_c_nontrivial_r():
    ctx = FieldContext(5, Fraction(2, 3))
    rng = random.Random(13)
    assert ctx.c_hat(1) ** 5 == ctx.from_fraction(Fraction(2, 3))
    assert ctx.c_hat(1) * ctx.c_hat(-1) == ctx.one()
    hits = 0
    while hits < 8:
        a = random_scalar(ctx, rng)
        if a.is_zero():
            continue
        try:
            inv = a.invert()
        except ZeroDivisionError:
            continue
        hits += 1
        assert a * inv == ctx.one()


def test_zero_divisors_at_r_one():
    # c^p = 1 splits, so c - 1 kills 1 + c + ... + c^(p-1)
    ctx = FieldContext(3, 1)
    a = ctx.c_hat(1) - ctx.one()
    b = ctx.one() + ctx.c_hat(1) + ctx.c_hat(2)
    assert not a.is_zero() and not b.is_zero()
    assert (a * b).is_zero()
    with pytest.raises(ZeroDivisionError):
        a.invert()


def test_sqrt_pi_laurent(ctx):
    spi = ctx.sqrt_pi()
    assert spi * spi == ctx.sqrt_pi(2)
    a = ctx.q(2) * spi
    assert a / spi == ctx.q(2)
    assert spi.invert() * spi == ctx.one()
    mixed = ctx.one() + spi
    with pytest.raises(ZeroDivisionError):
        mixed.invert()


def test_pow_negative(ctx):
    a = ctx.q(1) + ctx.one()  # invertible in Q(zeta)
    assert a ** 3 * a ** -3 == ctx.one()
    assert ctx.c_hat(1) ** -1 == ctx.c_hat(-1)


# -- numerical embedding --

def test_evaluate_constants(ctx):
    with mp.workprec(150):
        tol = mp.mpf(2) ** -90
        assert abs(ctx.i().evaluate(128) - mp.mpc(0, 1)) < tol
        q = ctx.q(1).evaluate(128)
        assert abs(q - mp.expjpi(mp.mpf(2) / ctx.p)) < tol
        assert abs(ctx.sqrt_pi().evaluate(128) - mp.sqrt(mp.pi)) < tol
        assert abs(ctx.sqrt_q().evaluate(128) ** 2 - q) < tol


def test_evaluate_is_multiplicative(ctx):
    rng = random.Random(3)
    with mp.workprec(170):
        tol = mp.mpf(2) ** -70
        for _ in range(10):
            a = random_scalar(ctx, rng, with_pi=True)
            b = random_scalar(ctx, rng, with_pi=True)
            lhs = (a * b).evaluate(128)
            rhs = a.evaluate(128) * b.evaluate(128)
            assert abs(lhs - rhs) <= tol * (1 + abs(lhs))


def test_evaluate_c_root():
    ctx = FieldContext(3, 8)
    with mp.workprec(120):
        assert abs(ctx.c_hat(1).evaluate(96) - 2) < mp.mpf(2) ** -60


# -- canonical form --

def test_canonical_deterministic(ctx):
    a = ctx.q(1) + ctx.i() * ctx.c_hat(1)
    b = ctx.i() * ctx.c_hat(1) + ctx.q(1)
    assert a.canonical() == b.canonical()
    assert a == b


def test_scalar_times_element_defers_to_the_element():
    from fsusy.afalg import AAlgebra
    from fsusy.ufalg import UAlgebra

    ctx = FieldContext(3)
    ualg = UAlgebra(ctx)
    assert ctx.q(1) * ualg.p_plus() == ualg.p_plus() * ctx.q(1)
    aalg = AAlgebra(ctx)
    assert ctx.i() * aalg.eta_plus() == aalg.eta_plus() * ctx.i()
    t = ualg.p_plus().coproduct()
    assert ctx.q(2) * t == t * ctx.q(2)
    with pytest.raises(TypeError, match="different field context"):
        ctx.q(1) * FieldContext(5).q(1)
    with pytest.raises(TypeError):
        ctx.q(1) * "q"


def test_rational_detection(ctx):
    a = ctx.from_fraction(Fraction(7, 2))
    assert a.is_rational() and a.as_fraction() == Fraction(7, 2)
    assert not ctx.i().is_rational()
    # the balanced sum [p] collapses to zero, which is rational
    assert ctx.qint(ctx.p).is_rational()


# -- golden boundary forms --
#
# The CLI reports are built from these strings, so they must not change
# with the internal representation.  Recorded from the Fraction-vector
# implementation.

_GOLDEN = [
    (
        "qint-p5",
        lambda c5, c7, r23: c5.qint(3),
        [[0, 0, ["0/1", "0/1", "0/1", "0/1", "-1/1", "0/1", "1/1", "0/1"]]],
        "c0s0:0,0,0,0,-1,0,1,0",
        "c0s0:0,0,0,0,-1,0,1,0",
    ),
    (
        "qfact-p5",
        lambda c5, c7, r23: c5.qfact(4),
        [[0, 0, ["1/1", "0/1", "0/1", "0/1", "-1/1", "0/1", "1/1", "0/1"]]],
        "c0s0:1,0,0,0,-1,0,1,0",
        "c0s0:1,0,0,0,-1,0,1,0",
    ),
    (
        "qbinom-p5",
        # the Gauss binomial [4 choose 2] at q^-2: q^-4 [4]! / ([2]! [2]!)
        lambda c5, c7, r23: c5.qfact(4) * c5.q(-4) / (c5.qfact(2) * c5.qfact(2)),
        [[0, 0, ["0/1", "0/1", "0/1", "0/1", "1/1", "0/1", "0/1", "0/1"]]],
        "c0s0:0,0,0,0,1,0,0,0",
        "q",
    ),
    (
        "qbinom-p7",
        # [5 choose 2] at q^-2: q^-6 [5]! / ([2]! [3]!)
        lambda c5, c7, r23: c7.qfact(5) * c7.q(-6) / (c7.qfact(2) * c7.qfact(3)),
        [[0, 0, ["-1/1", "0/1", "1/1", "0/1", "0/1", "0/1", "1/1", "0/1", "-1/1", "0/1", "0/1", "0/1"]]],
        "c0s0:-1,0,1,0,0,0,1,0,-1,0,0,0",
        "c0s0:-1,0,1,0,0,0,1,0,-1,0,0,0",
    ),
    (
        "c_hat-fold",
        lambda c5, c7, r23: r23.c_hat(3),
        [[0, 0, ["2/3", "0/1", "0/1", "0/1"]]],
        "c0s0:2/3,0,0,0",
        "2/3",
    ),
    (
        "c_hat-negative",
        lambda c5, c7, r23: r23.c_hat(-1),
        [[2, 0, ["3/2", "0/1", "0/1", "0/1"]]],
        "c2s0:3/2,0,0,0",
        "3/2*c^2",
    ),
    (
        "sqrt_pi-inverse",
        lambda c5, c7, r23: c5.sqrt_pi(-1),
        [[0, -1, ["1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1"]]],
        "c0s-1:1,0,0,0,0,0,0,0",
        "sqrtpi^-1",
    ),
    (
        "inverse-cyclotomic",
        lambda c5, c7, r23: (c5.one() + c5.q(1)).invert(),
        [[0, 0, ["0/1", "0/1", "1/1", "0/1", "-1/1", "0/1", "0/1", "0/1"]]],
        "c0s0:0,0,1,0,-1,0,0,0",
        "c0s0:0,0,1,0,-1,0,0,0",
    ),
    (
        "inverse-norm-trick",
        lambda c5, c7, r23: (r23.from_fraction(2) + r23.c_hat(1)).invert(),
        [[0, 0, ["6/13", "0/1", "0/1", "0/1"]], [1, 0, ["-3/13", "0/1", "0/1", "0/1"]], [2, 0, ["3/26", "0/1", "0/1", "0/1"]]],
        "c0s0:6/13,0,0,0;c1s0:-3/13,0,0,0;c2s0:3/26,0,0,0",
        "c0s0:6/13,0,0,0;c1s0:-3/13,0,0,0;c2s0:3/26,0,0,0",
    ),
    (
        "i-q2",
        lambda c5, c7, r23: c5.i() * c5.q(2),
        [[0, 0, ["0/1", "0/1", "0/1", "-1/1", "0/1", "0/1", "0/1", "0/1"]]],
        "c0s0:0,0,0,-1,0,0,0,0",
        "i*q^2",
    ),
    (
        "monomial-all-markers",
        lambda c5, c7, r23: r23.from_fraction(Fraction(-3, 4)) * r23.i() * r23.q(1) * r23.c_hat(2) * r23.sqrt_pi(1),
        [[2, 1, ["0/1", "3/4", "0/1", "0/1"]]],
        "c2s1:0,3/4,0,0",
        "-3/4*i*q*c^2*sqrtpi",
    ),
    (
        "mixed-denominators",
        lambda c5, c7, r23: c5.from_fraction(Fraction(1, 2)) + c5.q(1) * Fraction(1, 3) - c5.c_hat(2) * c5.sqrt_pi(2) * Fraction(5, 6),
        [[0, 0, ["1/2", "0/1", "0/1", "0/1", "1/3", "0/1", "0/1", "0/1"]], [2, 2, ["-5/6", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1"]]],
        "c0s0:1/2,0,0,0,1/3,0,0,0;c2s2:-5/6,0,0,0,0,0,0,0",
        "c0s0:1/2,0,0,0,1/3,0,0,0;c2s2:-5/6,0,0,0,0,0,0,0",
    ),
]


@pytest.mark.parametrize(
    "build, canonical, text, pretty", [pytest.param(*g[1:], id=g[0]) for g in _GOLDEN]
)
def test_golden_boundary_forms(build, canonical, text, pretty):
    x = build(FieldContext(5), FieldContext(7), FieldContext(3, Fraction(2, 3)))
    assert x.canonical() == canonical
    assert x.canonical_string() == text
    assert x.pretty() == pretty


# -- differential check against a Fraction-vector reference --
#
# _Ref is an independent small model of the same ring: coefficients are
# Fraction vectors, reduction is long division by Phi_4p(x) = Phi_p(-x^2),
# and inverses solve the linear system a * y = 1 over Q by elimination.
# Scalars from fsusy.scalars are read in through their canonical() form.


class _Ref:
    def __init__(self, p, r):
        self.p, self.r = p, Fraction(r)
        self.d = 2 * (p - 1)
        self.phi = [Fraction((-1) ** (j // 2)) if j % 2 == 0 else Fraction(0)
                    for j in range(self.d + 1)]

    def reduce(self, poly):
        poly = list(poly) + [Fraction(0)] * max(0, self.d - len(poly))
        for j in range(len(poly) - 1, self.d - 1, -1):
            c = poly[j]
            if c:
                for k, fk in enumerate(self.phi):
                    poly[j - self.d + k] -= c * fk
        return tuple(poly[: self.d])

    def xpow(self, n):
        return self.reduce([Fraction(0)] * n + [Fraction(1)])

    @staticmethod
    def clean(terms):
        return {k: v for k, v in terms.items() if any(v)}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = tuple(x + y for x, y in zip(out[k], v)) if k in out else v
        return self.clean(out)

    def neg(self, a):
        return {k: tuple(-x for x in v) for k, v in a.items()}

    def mul(self, a, b):
        out = {}
        for (c1, s1), u in a.items():
            for (c2, s2), v in b.items():
                conv = [Fraction(0)] * (2 * self.d - 1)
                for j, x in enumerate(u):
                    for k, y in enumerate(v):
                        conv[j + k] += x * y
                vec, c = self.reduce(conv), c1 + c2
                if c >= self.p:
                    vec, c = tuple(self.r * x for x in vec), c - self.p
                out = self.add(out, {(c, s1 + s2): vec})
        return out

    def conj(self, a):
        out = {}
        for key, v in a.items():
            acc = [Fraction(0)] * self.d
            for t, x in enumerate(v):
                acc = [y + x * z for y, z in zip(acc, self.xpow(4 * self.p - t))]
            out[key] = tuple(acc)
        return out

    def invert(self, a):
        """a^-1 for a single sqrt(pi) power; ZeroDivisionError if a * y = 1
        has no solution."""
        (spow,) = {s for _, s in a}
        body = {(c, 0): v for (c, _), v in a.items()}
        basis = [(c, t) for c in range(self.p) for t in range(self.d)]
        cols = []
        for c, t in basis:
            img = self.mul(body, {(c, 0): self.xpow(t)})
            cols.append([img.get((cc, 0), (0,) * self.d)[tt] for cc, tt in basis])
        n = len(basis)
        rows = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col]), None)
            if piv is None:
                raise ZeroDivisionError("reference: singular")
            rows[col], rows[piv] = rows[piv], rows[col]
            lead = rows[col][col]
            rows[col] = [x / lead for x in rows[col]]
            for i in range(n):
                f = rows[i][col]
                if i != col and f:
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
        sol = {}
        for (c, t), row in zip(basis, rows):
            sol.setdefault((c, -spow), [Fraction(0)] * self.d)[t] = row[-1]
        return self.clean({k: tuple(v) for k, v in sol.items()})

    @staticmethod
    def string(a):
        if not a:
            return "0"
        return ";".join(
            f"c{c}s{s}:" + ",".join(str(x) for x in a[(c, s)]) for c, s in sorted(a)
        )


def _to_ref(scalar):
    return {(c, s): tuple(Fraction(x) for x in vec) for c, s, vec in scalar.canonical()}


_TERMS = st.lists(
    st.tuples(
        st.integers(-6, 6).filter(bool),  # numerator
        st.integers(1, 6),  # denominator
        st.integers(0, 10**3),  # zeta power, reduced mod 4p
        st.integers(0, 10**3),  # c power, reduced mod p
        st.integers(-1, 1),  # sqrt(pi) power
    ),
    min_size=1,
    max_size=4,
)
_FIELDS = [
    pytest.param(p, r, id=f"p{p}-r{r}".replace("/", "_"))
    for p in PRIMES
    for r in (1, Fraction(2, 3))
]


def _build(ctx, ref, terms, one_spow=False):
    """The same random element in both models."""
    acc, racc = ctx.zero(), {}
    for num, den, j, cpow, spow in terms:
        j, cpow, spow = j % (4 * ctx.p), cpow % ctx.p, 0 if one_spow else spow
        f = Fraction(num, den)
        acc = acc + ctx.from_fraction(f) * ctx.zeta(j) * ctx.c_hat(cpow) * ctx.sqrt_pi(spow)
        racc = ref.add(racc, {(cpow, spow): tuple(f * x for x in ref.xpow(j))})
    return acc, racc


@pytest.mark.parametrize("p, r", _FIELDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(ta=_TERMS, tb=_TERMS)
def test_differential_ring_ops(p, r, ta, tb):
    ctx, ref = FieldContext(p, r), _Ref(p, r)
    a, ra = _build(ctx, ref, ta)
    b, rb = _build(ctx, ref, tb)
    assert _to_ref(a) == ra and _to_ref(b) == rb
    assert _to_ref(a + b) == ref.add(ra, rb)
    assert _to_ref(a - b) == ref.add(ra, ref.neg(rb))
    prod = a * b
    assert _to_ref(prod) == ref.mul(ra, rb)
    assert _to_ref(a.conjugate()) == ref.conj(ra)
    for x, rx in ((a, ra), (a + b, ref.add(ra, rb)), (prod, ref.mul(ra, rb))):
        assert x.canonical_string() == _Ref.string(rx)


@pytest.mark.parametrize("p, r", _FIELDS)
# no shrink phase: each reference inverse at p = 7 solves an 84 x 84 system
@settings(derandomize=True, deadline=None, max_examples=8, phases=[Phase.generate])
@given(ta=_TERMS)
def test_differential_invert(p, r, ta):
    ctx, ref = FieldContext(p, r), _Ref(p, r)
    a, ra = _build(ctx, ref, ta, one_spow=True)
    if not ra:
        return
    try:
        want = ref.invert(ra)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            a.invert()
        return
    assert _to_ref(a.invert()) == want
