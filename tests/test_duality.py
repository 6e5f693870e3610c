import itertools
import math
import random
from fractions import Fraction

import pytest

from fsusy.afalg import AElement, random_a_element
from fsusy.duality import (
    DualityContext,
    PairingConvention,
    _by_degree,
    _matched_a_monos,
    _pair_cop_x,
    _probe_pass,
    _product_rule_checks,
    classical_integral,
    default_conformance_monomials,
    determine_convention,
    duality_suite,
    fractional_root_suite,
    gaussian_moment,
    gaussian_monomial,
    gaussian_right_act,
    hermitian_form,
    integral_suite,
    reo_conformance,
    star_representation_suite,
)
from fsusy.scalars import FieldContext
from fsusy.sparse import _degree
from fsusy.ufalg import UElement, random_u_element


@pytest.fixture(scope="session")
def dual3(ctx3):
    return DualityContext(ctx3)


@pytest.fixture(scope="session")
def dual5(ctx5):
    return DualityContext(ctx5)


def qs_of(dual):
    return dual.ctx.sqrt_q(1) * Fraction(dual.convention.sqrt_q_sign)


# -- convention determination --------------------------------------------------


def test_convention_unique_and_pinned(ctx):
    conv = determine_convention(ctx)
    assert conv == PairingConvention(left_first=True, sqrt_q_sign=-1, h=1)
    assert conv.describe() == "left factor pairs first leg; sqrt_q = -1 * q^((p+1)/2); h = +1"


def test_only_one_convention_survives_probes(ctx3):
    winners = [
        (lf, ss, h)
        for lf in (True, False)
        for ss in (1, -1)
        for h in (1, -1)
        if _probe_pass(ctx3, lf, ss, h)
    ]
    assert winners == [(True, -1, 1)]


def test_default_context_uses_determined_convention(dual3):
    assert dual3.convention == determine_convention(dual3.ctx)


# -- pinned pairing values -----------------------------------------------------


def test_pair_units(dual3):
    assert dual3.pair(dual3.ualg.one(), dual3.aalg.one()) == dual3.ctx.one()


def test_pair_grouplike_table(dual3):
    # <k^a, d^j> = q^(aj), and the zeta projectors pick out single powers
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    p = ctx.p
    for a in range(p):
        for j in range(p):
            assert dual3.pair(ual.kappa(a), aal.delta(j)) == ctx.q(a * j)
        for j in range(p):
            expect = ctx.one() if j == a % p else ctx.zero()
            assert dual3.pair(ual.kappa(a), aal.zeta_projector(j)) == expect


def test_pair_fractional_powers(dual3):
    # <p+^a, e+^a d^j> = i^a qs^a [a]! q^(aj); the grading index of p+^a is a
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    p = ctx.p
    qs = qs_of(dual3)
    for a in range(1, p):
        for j in range(p):
            lhs = dual3.pair(ual.p_plus() ** a, aal.monomial(n=a, k=j))
            assert lhs == ctx.i() ** a * qs ** a * ctx.qfact(a) * ctx.q(a * j)
            lhs = dual3.pair(ual.p_minus() ** a, aal.monomial(m=a, k=j))
            assert lhs == ctx.i() ** a * qs ** (-a) * ctx.qfact(a) * ctx.q(a * j)


def test_pair_mixed_eta(dual3):
    # <p+ p-, e+ e- d^j> = -q^(2j - 1): the qs factors cancel
    ctx = dual3.ctx
    x = dual3.ualg.p_plus() * dual3.ualg.p_minus()
    for j in range(ctx.p):
        a = dual3.aalg.monomial(n=1, m=1, k=j)
        assert dual3.pair(x, a) == -ctx.q(2 * j - 1)


def test_pair_translations(dual3):
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    for t, s in itertools.product(range(3), range(3)):
        x = ual.monomial(t=t, s=s)
        for t2, s2 in itertools.product(range(3), range(3)):
            a = aal.monomial(t=t2, s=s2)
            if (t, s) == (t2, s2):
                expect = ctx.i() ** (t + s) * Fraction(math.factorial(t) * math.factorial(s))
            else:
                expect = ctx.zero()
            assert dual3.pair(x, a) == expect


def test_pair_boost_lambda_table(dual3):
    # <H^l, L^j exp(u L)> = [j <= l] i^l l!/(l-j)! u^(l-j)
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    mus = (Fraction(0), Fraction(1, ctx.p), Fraction(1))
    for l in range(3):
        x = ual.monomial(l=l)
        for j in range(4):
            for mu in mus:
                a = aal.monomial(l=j, mu=mu)
                got = dual3.pair(x, a)
                if j > l:
                    assert got.is_zero()
                else:
                    coeff = Fraction(math.factorial(l), math.factorial(l - j)) * mu ** (l - j)
                    assert got == ctx.i() ** l * coeff


def test_pair_degree_mismatch_zero(dual3):
    ual, aal = dual3.ualg, dual3.aalg
    assert dual3.pair(ual.p_plus(), aal.eta_minus()).is_zero()
    assert dual3.pair(ual.p_plus(), aal.z_plus()).is_zero()
    assert dual3.pair(ual.P_plus(), aal.eta_plus()).is_zero()
    assert dual3.pair(ual.boost(), aal.z_plus()).is_zero()
    assert dual3.pair(ual.kappa(), aal.eta_plus()).is_zero()


# -- the indexed pairing against a brute-force double loop ---------------------


def _brute_pair(dual, x, a):
    acc = dual.ctx.zero()
    for um, uc in x.terms.items():
        for am, ac in a.terms.items():
            if (um[0], um[1], um[3], um[4]) == (am[0], am[1], am[3], am[4]):
                acc = acc + uc * ac * dual._pair_mono(um, am)
    return acc


def _brute_mono(dual, x, amono):
    return _brute_pair(dual, x, AElement(dual.aalg, {amono: dual.ctx.one()}))


def _brute_act(dual, phi, a, leg):
    out = dual.aalg.zero()
    for key, c in a.coproduct().terms.items():
        v = _brute_mono(dual, phi, key[leg])
        if v:
            out = out + AElement(dual.aalg, {key[1 - leg]: c * v})
    return out


def _near_pair(dual, rng, x):
    """A function-side element whose terms sit on or next to the multidegrees
    of x, so that many term pairs match and many miss by one slot."""
    aal, p = dual.aalg, dual.ctx.p
    out = random_a_element(aal, rng, degree=2, nterms=2)
    for n, m, _k, t, s, l in x.terms:
        shift = [0] * 4
        shift[rng.randrange(4)] = rng.choice((0, 0, 1, -1))
        n, m, t, s = (max(0, v + dv) for v, dv in zip((n, m, t, s), shift))
        mu = Fraction(rng.randint(-p, p), p)
        out = out + aal.monomial(n, m, rng.randrange(p), t, s, rng.randint(0, l), mu)
    return out


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("left_first", (True, False))
def test_indexed_pairing_matches_brute_force(p, left_first):
    # the determined convention pairs the left factor with the first leg;
    # the other leg order runs through the same code during the probe scan
    dual = DualityContext(FieldContext(p), PairingConvention(left_first, -1, 1))
    ual = dual.ualg
    rng = random.Random(41 + p)
    # the coproduct side draws from its own stream, so the data of the
    # other checks stay as they are
    rng_cop = random.Random(43 + p)
    left, right = (0, 1) if dual.convention.left_first else (1, 0)
    one = dual.ctx.one()
    nonzero = nonzero_cop = 0
    for _ in range(12):
        x = random_u_element(ual, rng, degree=3, nterms=4)
        y = random_u_element(ual, rng, degree=2, nterms=3)
        a = _near_pair(dual, rng, x)
        got = dual.pair(x, a)
        assert got == _brute_pair(dual, x, a)
        nonzero += bool(got)
        ta = _near_pair(dual, rng, x * y).coproduct()
        first, second = (x, y) if left == 0 else (y, x)
        want = dual.ctx.zero()
        for (a1, a2), c in ta.terms.items():
            want = want + c * _brute_mono(dual, first, a1) * _brute_mono(dual, second, a2)
        assert dual.pair_tensor(x, y, ta) == want
        nonzero += bool(want)
        assert dual.right_act(x, a) == _brute_act(dual, x, a, left)
        assert dual.left_act(x, a) == _brute_act(dual, x, a, right)
        nonzero += not dual.right_act(x, a).is_zero()
        # sum c <x_(1), a> <x_(2), b> over Delta x, with a and b near the
        # two legs of a few of its terms
        cop = x.coproduct()
        picks = rng_cop.sample(sorted(cop.terms), 3)
        a = _near_pair(dual, rng_cop, UElement(ual, {key[left]: one for key in picks}))
        b = _near_pair(dual, rng_cop, UElement(ual, {key[right]: one for key in picks}))
        want = dual.ctx.zero()
        for key, c in cop.terms.items():
            u1, u2 = UElement(ual, {key[left]: one}), UElement(ual, {key[right]: one})
            want = want + c * _brute_pair(dual, u1, a) * _brute_pair(dual, u2, b)
        assert _pair_cop_x(dual, x, a, b) == want
        nonzero_cop += bool(want)
    assert nonzero >= 18
    assert nonzero_cop >= 10


@pytest.mark.parametrize("p", (3, 5))
def test_group_reads_build_no_whole_coproduct(p):
    # the actions and the contraction of Delta x read Delta(mon) one
    # leg-degree group at a time, so no whole coproduct is built or kept
    dual = DualityContext(FieldContext(p))
    ual, aal = dual.ualg, dual.aalg
    rng = random.Random(17 + p)
    cases = []
    for _ in range(8):
        x = random_u_element(ual, rng, degree=3, nterms=4)
        a = _near_pair(dual, rng, x)
        b = _near_pair(dual, rng, x)
        cases.append((x, a, b, dual.right_act(x, a), dual.left_act(x, a), _pair_cop_x(dual, x, a, b)))
    assert aal._cop_groups and ual._cop_groups
    assert not aal._cop_cache and not ual._cop_cache
    # the same answers as the whole coproducts give
    left, right = (0, 1) if dual.convention.left_first else (1, 0)
    for x, a, b, racted, lacted, cop in cases:
        assert racted == _brute_act(dual, x, a, left)
        assert lacted == _brute_act(dual, x, a, right)
        assert cop == dual.pair(x, a * b)
    assert sum(not racted.is_zero() for _, _, _, racted, _, _ in cases) >= 4


@pytest.mark.parametrize("left_first", (True, False))
def test_product_rule_left_action_matches_pair_tensor(ctx3, left_first):
    # the suite checks <x (x) y, Delta a> as <x, L(y) a>, read from the group
    # of L(y) a at x's multidegree; on every (x, y, a) it checks at bound 1
    # both must agree with the two-leg contraction
    dual = DualityContext(ctx3, PairingConvention(left_first, -1, 1))
    ual, aal, one = dual.ualg, dual.aalg, dual.ctx.one()
    window = itertools.product(range(2), repeat=6)  # p = 3, bound 1
    checked = nonzero = 0
    for (am, g), pairs in _product_rule_checks(dual, window).items():
        a = AElement(aal, {am: one})
        y = ual.generator(g)
        lya = dual.left_act(y, a)
        groups = _by_degree(lya)
        cop = a.coproduct()
        for um, _xy in pairs:
            x = UElement(ual, {um: one})
            got = dual.pair(x, lya)
            assert got == dual.pair_tensor(x, y, cop), (um, g, am)
            assert got == dual._pair_terms(groups.get(_degree(um), ()), um, True)
            checked += 1
            nonzero += bool(got)
    assert checked == 6144
    assert nonzero == (3360 if left_first else 3186)


@pytest.mark.parametrize("left_first", (True, False))
@pytest.mark.parametrize("sqrt_sign", (1, -1))
def test_pair_values_independent_of_cache_order(ctx3, left_first, sqrt_sign):
    # a cached pairing value depends only on its inputs: each pair of the
    # bound-2 window, evaluated on a cold cache, gives the value it gives
    # from a cache warmed in a shuffled order
    dual = DualityContext(ctx3, PairingConvention(left_first, sqrt_sign, 1))
    pairs = [
        (um, am)
        for um in itertools.product(range(3), repeat=6)
        for am in _matched_a_monos(dual, um, (0, 1, -1, 3))
    ]
    cold = []
    for um, am in pairs:
        dual._pair_values.clear()
        cold.append(dual._pair_mono(um, am))
    order = list(range(len(pairs)))
    random.Random(5).shuffle(order)
    dual._pair_values.clear()
    for i in order:
        assert dual._pair_mono(*pairs[i]) == cold[i], pairs[i]
    for pair, want in zip(pairs, cold):
        assert dual._pair_mono(*pair) == want, pair
    assert len(dual._pair_values) == 5103
    assert sum(map(bool, cold)) == 15309


def test_product_rule_builds_one_left_action_per_pair(ctx3, monkeypatch):
    # a count, not a clock: the product-rule section calls left_act once per
    # distinct (a, y), and only the random triples reach _contract
    determine_convention(ctx3)
    acts, contracts = [], []
    left_act, contract = DualityContext.left_act, DualityContext._contract

    def counted_left_act(self, phi, x):
        acts.append((tuple(phi.terms), tuple(x.terms)))
        return left_act(self, phi, x)

    def counted_contract(self, *args):
        contracts.append(args)
        return contract(self, *args)

    monkeypatch.setattr(DualityContext, "left_act", counted_left_act)
    monkeypatch.setattr(DualityContext, "_contract", counted_contract)
    rep = duality_suite(ctx3, exponent_bound=1, samples=8, seed=3)
    assert rep.passed, rep.summary()
    window = itertools.product(range(2), repeat=6)
    checks = _product_rule_checks(DualityContext(ctx3), window)
    assert len(acts) == len(set(acts)) == len(checks) == 1824
    assert sum(map(len, checks.values())) == 6144
    assert len(contracts) == 8


def test_pair_normal_ordering_composition(dual3):
    # k p+ reorders to q p+ k, so <k p+, e+ d^j> = i qs q^(2j + 1)
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    qs = qs_of(dual3)
    for j in range(ctx.p):
        got = dual3.pair(ual.kappa() * ual.p_plus(), aal.monomial(n=1, k=j))
        assert got == ctx.i() * qs * ctx.q(2 * j + 1)


def test_pair_boost_commutator(dual3):
    # H p+ = p+ H + (i/p) p+, so <H p+, e+ exp(u L)> = -qs (u + 1/p)
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    qs = qs_of(dual3)
    for mu in (Fraction(0), Fraction(1, ctx.p), Fraction(1)):
        got = dual3.pair(ual.boost() * ual.p_plus(), aal.monomial(n=1, mu=mu))
        assert got == -(qs * (mu + Fraction(1, ctx.p)))


def test_translation_splitting(dual3):
    # every split of p+^p across the product rule lands on <P+, z+> = i
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    p = ctx.p
    cop = aal.z_plus().coproduct()
    expect = ctx.i()
    assert dual3.pair(ual.P_plus(), aal.z_plus()) == expect
    assert dual3.pair(ual.p_plus() ** p, aal.z_plus()) == expect
    for split in range(1, p):
        got = dual3.pair_tensor(ual.p_plus() ** split, ual.p_plus() ** (p - split), cop)
        assert got == expect


# -- actions -------------------------------------------------------------------


def test_action_counit_cases(dual3):
    a = dual3.aalg.monomial(n=1, k=2, t=1)
    assert dual3.right_act(dual3.ualg.one(), a) == a
    assert dual3.left_act(dual3.ualg.one(), a) == a
    # R(phi) 1 = eps(phi) 1
    assert dual3.right_act(dual3.ualg.p_plus(), dual3.aalg.one()).is_zero()
    assert dual3.right_act(dual3.ualg.kappa(), dual3.aalg.one()) == dual3.aalg.one()


def test_action_examples(dual3):
    ual, aal, ctx = dual3.ualg, dual3.aalg, dual3.ctx
    q = ctx.q(1)
    k = ual.kappa()
    assert dual3.right_act(k, aal.eta_plus()) == aal.eta_plus() * q
    assert dual3.right_act(k, aal.delta()) == aal.delta() * q
    assert dual3.left_act(k, aal.delta()) == aal.delta() * q
    # left translations leave the eta sector alone
    assert dual3.left_act(k, aal.eta_plus()) == aal.eta_plus()
    # opposite weights cancel
    assert dual3.right_act(k, aal.eta_plus() * aal.eta_minus()) == aal.eta_plus() * aal.eta_minus()

    for t in range(1, 4):
        got = dual3.right_act(ual.P_plus(), aal.z_plus() ** t)
        assert got == aal.z_plus() ** (t - 1) * (ctx.i() * Fraction(t))
    assert dual3.right_act(ual.boost(), aal.z_plus() * aal.z_minus()).is_zero()
    assert dual3.right_act(ual.boost(), aal.eta_plus()) == aal.eta_plus() * (
        ctx.i() * Fraction(1, ctx.p)
    )

    qs = qs_of(dual3)
    assert dual3.right_act(ual.p_plus(), aal.eta_plus()) == aal.one() * (ctx.i() * qs)
    assert dual3.right_act(ual.p_minus(), aal.eta_plus()).is_zero()


def test_right_action_is_antihomomorphism(dual3):
    ual, aal = dual3.ualg, dual3.aalg
    rng = random.Random(11)
    for _ in range(5):
        x = random_u_element(ual, rng, degree=2)
        y = random_u_element(ual, rng, degree=2)
        a = random_a_element(aal, rng, degree=2)
        assert dual3.right_act(x * y, a) == dual3.right_act(y, dual3.right_act(x, a))
        assert dual3.left_act(x * y, a) == dual3.left_act(x, dual3.left_act(y, a))
        # the two realizations commute
        assert dual3.right_act(x, dual3.left_act(y, a)) == dual3.left_act(
            y, dual3.right_act(x, a)
        )


def test_closed_forms_match_duality_route(dual3):
    # with the determined square root the closed forms agree on the nose
    monos = default_conformance_monomials(dual3, zbound=1)
    for gen in ("k", "H", "P+", "P-", "p+", "p-"):
        phi = dual3.ualg.generator(gen)
        for mon in monos:
            x = AElement(dual3.aalg, {mon: dual3.ctx.one()})
            assert dual3.closed_right_act(gen, x) == dual3.right_act(phi, x)


def test_closed_form_rejects_lambda_sector(dual3):
    with pytest.raises(ValueError):
        dual3.closed_right_act("k", dual3.aalg.lam())


def test_reo_conformance_report(ctx3):
    rep = reo_conformance(ctx3)
    assert rep.passed, rep.summary()
    minus_one = (-ctx3.one()).pretty()
    assert rep.measurements["ratio[p+]"] == minus_one
    assert rep.measurements["ratio[p-]"] == minus_one


def test_fractional_root_small(ctx3):
    rep = fractional_root_suite(ctx3, degree_bound=2)
    assert rep.passed, rep.summary()


def test_fractional_root_direct(dual3):
    # p applications of R(p+) reach R(P+) on a nilpotent-sector sample
    p = dual3.ctx.p
    for mon in ((1, 1, 0, 1, 0, 0, Fraction(0)), (0, 2, 1, 0, 1, 0, Fraction(0))):
        x = AElement(dual3.aalg, {mon: dual3.ctx.one()})
        acc = x
        for _ in range(p):
            acc = dual3.right_act(dual3.ualg.p_plus(), acc)
        assert acc == dual3.right_act(dual3.ualg.P_plus(), x)


# -- integrals -----------------------------------------------------------------


def test_integral_values(dual3):
    aal, ctx = dual3.aalg, dual3.ctx
    p = ctx.p
    top = aal.monomial(n=p - 1, m=p - 1)
    assert dual3.grassmann_integral(top) == ctx.q(-1)
    assert dual3.grassmann_integral(aal.eta_plus()).is_zero()
    assert dual3.grassmann_integral(aal.one()).is_zero()
    assert dual3.grassmann_integral(aal.monomial(n=p - 1, m=p - 1, k=1)).is_zero()
    with pytest.raises(ValueError):
        dual3.grassmann_integral(aal.z_plus())


def test_integral_invariance_both_sides(dual3):
    aal = dual3.aalg
    p = dual3.ctx.p
    for n, m, k in itertools.product(range(p), range(p), range(2)):
        a = aal.monomial(n=n, m=m, k=k)
        expect = aal.one() * dual3.grassmann_integral(a)
        left, right = dual3.integral_invariance(a)
        assert left == expect
        assert right == expect


def test_integral_suite(ctx3):
    rep = integral_suite(ctx3)
    assert rep.passed, rep.summary()


# -- Gaussian sector -----------------------------------------------------------


def test_gaussian_moments(ctx):
    sp = ctx.sqrt_pi(1)
    assert gaussian_moment(ctx, 0) == sp
    assert gaussian_moment(ctx, 1).is_zero()
    assert gaussian_moment(ctx, 2) == sp * Fraction(1, 2)
    assert gaussian_moment(ctx, 4) == sp * Fraction(3, 4)
    assert classical_integral(ctx, {(0, 0): ctx.one()}) == ctx.sqrt_pi(2)
    assert classical_integral(ctx, {(1, 2): ctx.one()}).is_zero()
    assert classical_integral(ctx, {(2, 2): ctx.one()}) == ctx.sqrt_pi(2) * Fraction(1, 4)


def _random_gaussian(dual, rng, zbound=2):
    p = dual.ctx.p
    acc = gaussian_monomial(dual, coeff=0)
    for _ in range(3):
        acc = acc + gaussian_monomial(
            dual,
            rng.randrange(p),
            rng.randrange(p),
            rng.randrange(zbound + 1),
            rng.randrange(zbound + 1),
            coeff=dual.ctx.q(rng.randrange(p)) * Fraction(rng.randrange(1, 4)),
        )
    return acc


def test_hermitian_form_values(dual3):
    ctx = dual3.ctx
    p = ctx.p
    top = gaussian_monomial(dual3, p - 1, p - 1)
    unit = gaussian_monomial(dual3)
    pi = ctx.sqrt_pi(2)
    assert hermitian_form(top, unit) == ctx.q(-1) * pi
    assert hermitian_form(unit, top) == ctx.q(2 * (p - 1) ** 2 - 1) * pi
    # the exponent is 1 mod p, so the two values are conjugate
    assert hermitian_form(unit, top) == hermitian_form(top, unit).conjugate()


def test_hermitian_symmetry_random(dual3):
    rng = random.Random(23)
    for _ in range(6):
        x = _random_gaussian(dual3, rng)
        y = _random_gaussian(dual3, rng)
        assert hermitian_form(x, y) == hermitian_form(y, x).conjugate()


def test_gaussian_action_examples(dual3):
    ctx = dual3.ctx
    i = ctx.i()
    # grading unit scales by the eta weight
    for n, m in itertools.product(range(ctx.p), range(ctx.p)):
        x = gaussian_monomial(dual3, n, m, 1, 0)
        assert gaussian_right_act(dual3, "k", x) == x * ctx.q(n - m)
    # weight-aware derivative: d(z^a w) = (a z^(a-1) - z^(a+1)) w
    x0 = gaussian_monomial(dual3, 1, 0, 0, 0)
    assert gaussian_right_act(dual3, "P+", x0) == gaussian_monomial(dual3, 1, 0, 1, 0) * (-i)
    x1 = gaussian_monomial(dual3, 1, 0, 1, 0)
    assert gaussian_right_act(dual3, "P+", x1) == gaussian_monomial(dual3, 1, 0, 0, 0) * i + (
        gaussian_monomial(dual3, 1, 0, 2, 0) * (-i)
    )


def test_gaussian_monomial_cap(dual3):
    assert gaussian_monomial(dual3, dual3.ctx.p, 0).is_zero()


# a Gaussian element is a function-algebra element: printed, multiplied
# and validated by the function algebra


def test_gaussian_element_prints_as_function_word(dual3):
    assert str(gaussian_monomial(dual3, 1, 0, 1, 0)) == "e+ z+"


def test_gaussian_elements_multiply(dual3):
    product = gaussian_monomial(dual3, 0, 1) * gaussian_monomial(dual3, 1, 0)
    assert product == gaussian_monomial(dual3, 1, 1, coeff=dual3.ctx.q(2))


def test_gaussian_monomial_rejects_negative_exponent(dual3):
    # z^-2 has no Gaussian moment, so the sector must not hold it
    with pytest.raises(ValueError, match="negative exponent"):
        gaussian_monomial(dual3, 2, 2, -2, 0)


def test_star_representation_rejects_negative_zbound(ctx3):
    # an empty window would pass every check vacuously
    with pytest.raises(ValueError, match="zbound must be non-negative, got -1"):
        star_representation_suite(ctx3, zbound=-1)


def test_star_representation_suite(ctx3):
    rep = star_representation_suite(ctx3, zbound=1)
    assert rep.passed, rep.summary()
    # frozen empirical observation: the fractional pair is exactly
    # self-adjoint on this sector, and does not match its partner
    self_plus = rep.measurements["adjoint_candidate[p+ vs p+]"]
    hits, total = self_plus.split("/")
    assert hits == total and int(total) > 0
    cross = rep.measurements["adjoint_candidate[p+ vs p-]"]
    assert cross.split("/")[0] == "0"


# -- suites --------------------------------------------------------------------


def test_duality_suite_smoke(ctx3):
    rep = duality_suite(ctx3, exponent_bound=1, samples=8, seed=3)
    assert rep.passed, rep.summary()
    assert rep.measurements["convention"] == determine_convention(ctx3).describe()
    star_keys = [k for k in rep.measurements if k.startswith("star_variant[")]
    assert len(star_keys) == 2
    for key in star_keys:
        total = int(rep.measurements[key].split("/")[1])
        assert total > 0


def test_convention_shared_at_five(dual5):
    # mirror the orientation pin away from the smallest prime
    ctx = dual5.ctx
    qs = qs_of(dual5)
    assert dual5.pair(dual5.ualg.kappa(), dual5.aalg.delta(3)) == ctx.q(3)
    assert dual5.pair(dual5.ualg.p_plus(), dual5.aalg.monomial(n=1, k=2)) == ctx.i() * qs * ctx.q(2)
    assert dual5.right_act(dual5.ualg.boost(), dual5.aalg.eta_plus()) == dual5.aalg.eta_plus() * (
        ctx.i() * Fraction(1, 5)
    )
