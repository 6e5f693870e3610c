import itertools
import random
from fractions import Fraction

import pytest

from fsusy.afalg import AAlgebra, AElement, a_axiom_suite, parse_a, random_a_element
from fsusy.scalars import FieldContext
from fsusy.ufalg import UAlgebra
from generator_tables import gen_coproduct


@pytest.fixture(scope="session", params=(3, 5, 7))
def aal(request):
    return AAlgebra(FieldContext(request.param))


@pytest.fixture(scope="session")
def aal3():
    return AAlgebra(FieldContext(3))


def test_reordering(aal):
    q2 = aal.ctx.q(2)
    ep, em, d = aal.eta_plus(), aal.eta_minus(), aal.delta()
    assert em * ep == ep * em * q2
    assert ep * d == d * ep * q2
    assert em * d == d * em * q2
    # inverted orientation: d e+ = q^-2 e+ d
    assert d * ep == ep * d * aal.ctx.q(-2)


def test_nilpotency_and_order(aal):
    p = aal.ctx.p
    assert (aal.eta_plus() ** p).is_zero()
    assert (aal.eta_minus() ** p).is_zero()
    assert aal.delta() ** p == aal.one()
    assert aal.delta(1) * aal.delta(-1) == aal.one()


def test_exp_weights(aal):
    p = aal.ctx.p
    e1 = aal.exp_lambda(Fraction(1, p))
    e2 = aal.exp_lambda(Fraction(p - 1, p))
    assert e1 * e2 == aal.exp_lambda(1)
    assert e1 * aal.exp_lambda(Fraction(-1, p)) == aal.one()
    with pytest.raises(ValueError):
        aal.exp_lambda(Fraction(1, 2 * p))


def test_classical_center(aal):
    rng = random.Random(5)
    central = [aal.z_plus(), aal.z_minus(), aal.lam(), aal.exp_lambda(Fraction(1, aal.ctx.p))]
    for c in central:
        for _ in range(5):
            x = random_a_element(aal, rng, 2)
            assert c * x == x * c


def test_eta_pair_squares(aal):
    # (e+ e-)^2 = q^2 e+^2 e-^2, and xi^m = q^(m^2) e+^m e-^m
    ctx = aal.ctx
    pair = aal.eta_plus() * aal.eta_minus()
    assert pair * pair == aal.monomial(n=2, m=2, coeff=ctx.q(2))
    xi = aal.xi()
    for mm in range(ctx.p):
        assert xi ** mm == aal.monomial(n=mm, m=mm, coeff=ctx.q(mm * mm))


def test_parse_and_format(aal3):
    assert parse_a(aal3, "e- e+") == aal3.monomial(n=1, m=1, coeff=aal3.ctx.q(2))
    assert parse_a(aal3, "d e+") == aal3.monomial(n=1, k=1, coeff=aal3.ctx.q(-2))
    assert parse_a(aal3, "e+^3").is_zero()
    assert parse_a(aal3, "d^-1") == aal3.delta(2)
    assert parse_a(aal3, "exp(1/3L) exp(-1/3L)") == aal3.one()
    assert parse_a(aal3, "exp(1/3L)^2") == aal3.exp_lambda(Fraction(2, 3))
    x = parse_a(aal3, "e+ d z+^2 L exp(-2/3L)")
    assert str(x) == "e+ d z+^2 L exp(-2/3L)"
    with pytest.raises(ValueError):
        parse_a(aal3, "w+")
    with pytest.raises(ValueError):
        parse_a(aal3, "z+^-1")


# strings recorded when the weight was still stored as a Fraction
EXP_GOLDEN = {
    3: [
        ("exp(1/3L)", "exp(1/3L)"),
        ("exp(-1/3L)", "exp(-1/3L)"),
        ("exp(2/3L)^2", "exp(4/3L)"),
        ("exp(1L)", "exp(1L)"),
        ("exp(-1L)", "exp(-1L)"),
        ("e+ exp(2/3L)^2 exp(-1L) d", "e+ d exp(1/3L)"),
        ("z- exp(1/3L)^-1", "z- exp(-1/3L)"),
    ],
    7: [
        ("exp(1/7L)", "exp(1/7L)"),
        ("exp(-1/7L)", "exp(-1/7L)"),
        ("exp(2/7L)^2", "exp(4/7L)"),
        ("exp(1L)", "exp(1L)"),
        ("exp(-1L)", "exp(-1L)"),
        ("e+ exp(2/7L)^2 exp(-1L) d", "e+ d exp(-3/7L)"),
        ("z- exp(1/7L)^-1", "z- exp(-1/7L)"),
    ],
}
SUM_GOLDEN = {
    3: "exp(-2/3L) + 2 * exp(-1/3L) + 1 + exp(1/3L) + exp(1L) + z+ exp(-1L)",
    7: "exp(-2/7L) + 2 * exp(-1/7L) + 1 + exp(1/7L) + exp(1L) + z+ exp(-1L)",
}


@pytest.mark.parametrize("p", (3, 7))
def test_exp_weight_golden_round_trips(p):
    aal = AAlgebra(FieldContext(p))
    for text, want in EXP_GOLDEN[p]:
        x = parse_a(aal, text)
        assert str(x) == want
        assert parse_a(aal, want) == x
    # terms print in weight order, negative weights first
    x = (
        aal.exp_lambda(Fraction(1, p))
        + aal.exp_lambda(Fraction(-1, p)) * 2
        + aal.exp_lambda(1)
        + aal.one()
        + aal.exp_lambda(-1) * aal.z_plus()
        + aal.exp_lambda(Fraction(-2, p))
    )
    assert str(x) == SUM_GOLDEN[p]


def test_exp_lambda_accepts_int_and_fraction(aal):
    p = aal.ctx.p
    assert aal.exp_lambda(1) == aal.exp_lambda(Fraction(p, p)) == parse_a(aal, "exp(1L)")
    assert aal.exp_lambda(-2) == aal.exp_lambda(Fraction(-2)) == aal.exp_lambda(-1) ** 2
    assert aal.exp_lambda(0) == aal.exp_lambda(Fraction(0)) == aal.one()
    assert str(aal.exp_lambda(Fraction(-2, p))) == f"exp(-2/{p}L)"
    assert str(aal.exp_lambda(3)) == "exp(3L)"


def test_weight_slot_holds_the_integer_p_mu(aal):
    p = aal.ctx.p
    x = parse_a(aal, f"e+ z- exp(2/{p}L) d") + parse_a(aal, "e- z+ L exp(-1L)")
    assert sorted(mon[6] for mon in x.terms) == [-p, 2]
    images = [x * x, x.antipode(), x.star()]
    keys = [mon for y in images for mon in y.terms]
    keys += [mon for key in x.coproduct().terms for mon in key]
    assert keys and all(type(mon[6]) is int for mon in keys)


def test_monomial_validates_weight_before_nilpotency(aal):
    p = aal.ctx.p
    assert aal.monomial(n=p, mu=Fraction(1, p)).is_zero()
    for kwargs in ({"n": p}, {"m": p}, {}):
        with pytest.raises(ValueError, match="exponential weight"):
            aal.monomial(mu=Fraction(1, 2 * p), **kwargs)


def test_associativity_random(aal):
    rng = random.Random(17)
    for _ in range(8):
        x = random_a_element(aal, rng, 2)
        y = random_a_element(aal, rng, 2)
        z = random_a_element(aal, rng, 2)
        assert (x * y) * z == x * (y * z)


# -- Hopf structure --

def test_coproduct_grouplikes(aal):
    d = aal.delta()
    assert d.coproduct() == aal.tensor(d, d)
    e = aal.exp_lambda(Fraction(1, aal.ctx.p))
    assert e.coproduct() == aal.tensor(e, e)
    lam = aal.lam()
    assert lam.coproduct() == aal.tensor(lam, aal.one()) + aal.tensor(aal.one(), lam)


@pytest.mark.parametrize("p", (3, 5))
def test_relabelled_coproduct_matches_generator_products(p):
    # _coproduct_mono builds only the (k, u)-free coproduct and relabels
    # both legs for d^k exp(u L); the reference multiplies the generator
    # coproducts Delta(e+)^n Delta(e-)^m Delta(d)^k Delta(z+)^t Delta(z-)^s
    # Delta(L)^l Delta(exp(u L)) out with Tensor.__mul__
    aal = AAlgebra(FieldContext(p))
    d = aal.delta()
    gen = {slot: gen_coproduct(aal, slot) for slot in (0, 1, 3, 4, 5)}
    gen[2] = aal.tensor(d, d)
    weights = [Fraction(w, p) for w in (0, 1, -1, 2, p)]
    grouplike = {}
    for mu in weights:
        e = aal.exp_lambda(mu)
        grouplike[mu] = aal.tensor(e, e)
    zbound = 2 if p == 3 else 1
    checked = 0
    for n, m, k in itertools.product(range(p), repeat=3):
        for t, s, l in itertools.product(range(zbound + 1), range(zbound + 1), range(2)):
            ref = aal.tensor_one(2)
            for slot, e in zip((0, 1, 2, 3, 4, 5), (n, m, k, t, s, l)):
                for _ in range(e):
                    ref = ref * gen[slot]
            for mu in weights:
                (mon,) = aal.monomial(n, m, k, t, s, l, mu).terms
                assert aal._coproduct_mono(mon) == ref * grouplike[mu], mon
                checked += 1
    assert checked == p**3 * (zbound + 1) ** 2 * 2 * len(weights)


@pytest.mark.parametrize("p", (3, 5))
def test_central_power_coproduct_matches_generator_products(p):
    # for l > 0, _coproduct_mono multiplies the binomial Delta(L)^l onto the
    # l = 0 coproduct; the reference multiplies Delta(L) in l times
    aal = AAlgebra(FieldContext(p))
    lam = gen_coproduct(aal, 5)
    for n, m, t, s in ((0, 0, 0, 0), (1, 2, 1, 0), (2, 1, 2, 2), (p - 1, 0, 0, 1)):
        ref = aal._coproduct_mono((n, m, 0, t, s, 0, 0))
        for l in range(1, 5):
            ref = ref * lam
            assert aal._coproduct_mono((n, m, 0, t, s, l, 0)) == ref, (n, m, t, s, l)
            assert aal._coproduct_mono((n, m, 1, t, s, l, -1)) == ref * aal.tensor(
                aal.monomial(k=1, mu=Fraction(-1, p)), aal.monomial(k=1, mu=Fraction(-1, p))
            )


def test_coproduct_eta_nilpotent(aal):
    # Delta(e+-)^p = 0: the mixed terms die through root-of-unity binomials
    p = aal.ctx.p
    assert (aal.eta_plus().coproduct() ** p).is_zero()
    assert (aal.eta_minus().coproduct() ** p).is_zero()


def test_coproduct_z_coassociative(aal):
    # the heavy check: exercises the full coproduct tail bookkeeping
    for z in (aal.z_plus(), aal.z_minus()):
        cop = z.coproduct()
        assert cop.apply_coproduct(0) == cop.apply_coproduct(1)


def test_antipode_axiom_on_z(aal):
    # m(S (x) id) Delta(z+-) = eps(z+-) 1 = 0; this fails if either the
    # antipode exponential corrections or the coproduct tail coefficients
    # are transcribed wrong
    for z in (aal.z_plus(), aal.z_minus()):
        cop = z.coproduct()
        assert cop.map_leg(0, AElement.antipode).multiply_legs().is_zero()
        assert cop.map_leg(1, AElement.antipode).multiply_legs().is_zero()


def test_antipode_axiom_on_eta(aal):
    for e in (aal.eta_plus(), aal.eta_minus()):
        cop = e.coproduct()
        assert cop.map_leg(0, AElement.antipode).multiply_legs().is_zero()
        assert cop.map_leg(1, AElement.antipode).multiply_legs().is_zero()


def test_antipode_values(aal):
    p = aal.ctx.p
    # S(e+) = -d^-1 exp(-L/p) e+, normalized: the d-crossing gives q^2
    expect = aal.monomial(n=1, k=p - 1, mu=Fraction(-1, p), coeff=-aal.ctx.q(2))
    assert aal.eta_plus().antipode() == expect
    assert aal.z_plus().antipode() == aal.monomial(t=1, mu=-1, coeff=-1)
    assert aal.z_minus().antipode() == aal.monomial(s=1, mu=1, coeff=-1)
    assert aal.lam().antipode() == -aal.lam()
    assert aal.delta().antipode() == aal.delta(-1)
    e = aal.exp_lambda(Fraction(2, p))
    assert e.antipode() == aal.exp_lambda(Fraction(-2, p))


def test_counit(aal):
    assert aal.eta_plus().counit().is_zero()
    assert aal.z_plus().counit().is_zero()
    assert aal.lam().counit().is_zero()
    assert aal.delta(2).counit() == aal.ctx.one()
    assert aal.exp_lambda(Fraction(1, aal.ctx.p)).counit() == aal.ctx.one()
    for j in range(aal.ctx.p):
        expect = aal.ctx.one() if j == 0 else aal.ctx.zero()
        assert aal.zeta_projector(j).counit() == expect


def test_star(aal):
    ctx = aal.ctx
    # (e+ e-)* = e- e+ = q^2 e+ e-
    x = aal.eta_plus() * aal.eta_minus()
    assert x.star() == x * ctx.q(2)
    # xi = q e+ e- is star-fixed: conj(q) q^2 = q
    assert aal.xi().star() == aal.xi()
    rng = random.Random(23)
    for _ in range(10):
        a = random_a_element(aal, rng, 2)
        b = random_a_element(aal, rng, 2)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_zeta_projector_identities(aal3):
    # explicit p=3 form: zeta(0) = (1 + d + d^2)/3
    z0 = aal3.zeta_projector(0)
    expect = (aal3.one() + aal3.delta(1) + aal3.delta(2)) * Fraction(1, 3)
    assert z0 == expect
    assert z0 * z0 == z0
    assert aal3.delta() * aal3.zeta_projector(1) == aal3.zeta_projector(1) * aal3.ctx.q(1)
    total = aal3.zeta_projector(0) + aal3.zeta_projector(1) + aal3.zeta_projector(2)
    assert total == aal3.one()


def test_zeta_coproduct_convolution(aal):
    # Delta(zeta(m)) = sum_{m1+m2=m mod p} zeta(m1) (x) zeta(m2)
    p = aal.ctx.p
    for mm in range(p):
        lhs = aal.zeta_projector(mm).coproduct()
        rhs = aal.tensor_zero(2)
        for m1 in range(p):
            rhs = rhs + aal.tensor(aal.zeta_projector(m1), aal.zeta_projector((mm - m1) % p))
        assert lhs == rhs


def test_axiom_suite_smoke(aal3):
    rep = a_axiom_suite(aal3, degree_bound=2, samples=20, seed=1)
    assert rep.passed, rep.summary()


def test_tensors_from_another_algebra_are_rejected():
    ctx = FieldContext(3)
    tu = UAlgebra(ctx).p_plus().coproduct()
    ta = AAlgebra(ctx).eta_plus().coproduct()
    for x, y in ((tu, ta), (ta, tu)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x * y
