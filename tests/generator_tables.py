"""The Hopf maps of each generator, as the two algebras state them, and
their powers by repeated multiplication: the reference the closed-form
generator powers of fsusy.afalg and fsusy.ufalg answer to."""

from fractions import Fraction

from fsusy.afalg import A_UNIT, AAlgebra, ATensor
from fsusy.ufalg import UNIT_MONO, UTensor


def _a_gen_coproduct(alg, slot):
    one = alg.ctx.one()
    p = alg.ctx.p
    if slot == 0:
        mon = (1, 0, 0, 0, 0, 0, 0)
        return ATensor(alg, 2, {(mon, A_UNIT): one, ((0, 0, 1, 0, 0, 0, 1), mon): one})
    if slot == 1:
        mon = (0, 1, 0, 0, 0, 0, 0)
        return ATensor(alg, 2, {(mon, A_UNIT): one, ((0, 0, p - 1, 0, 0, 0, -1), mon): one})
    if slot == 2:
        mon = (0, 0, 1, 0, 0, 0, 0)
        return ATensor(alg, 2, {(mon, mon): one})
    if slot in (3, 4):
        sign = 1 if slot == 3 else -1
        zmon = (0, 0, 0, 1, 0, 0, 0) if slot == 3 else (0, 0, 0, 0, 1, 0, 0)
        emon = (0, 0, 0, 0, 0, 0, sign * p)
        terms = {(zmon, A_UNIT): one, (emon, zmon): one}
        for nn in range(1, p):
            coeff = (
                alg.kappa0
                * alg.ctx.q(sign * nn * nn)
                / (alg.ctx.qfact(p - nn) * alg.ctx.qfact(nn))
            )
            if slot == 3:
                left = (p - nn, 0, nn % p, 0, 0, 0, nn)
                right = (nn, 0, 0, 0, 0, 0, 0)
            else:
                left = (0, p - nn, (-nn) % p, 0, 0, 0, -nn)
                right = (0, nn, 0, 0, 0, 0, 0)
            terms[(left, right)] = coeff
        return ATensor(alg, 2, terms)
    # slot 5: the central coordinate is primitive
    mon = (0, 0, 0, 0, 0, 1, 0)
    return ATensor(alg, 2, {(mon, A_UNIT): one, (A_UNIT, mon): one})


def _a_gen_antipode(alg, slot):
    p = alg.ctx.p
    if slot == 0:
        return (alg.delta(-1) * alg.exp_lambda(Fraction(-1, p)) * alg.eta_plus()) * Fraction(-1)
    if slot == 1:
        return (alg.delta(1) * alg.exp_lambda(Fraction(1, p)) * alg.eta_minus()) * Fraction(-1)
    if slot == 2:
        return alg.delta(-1)
    if slot == 3:
        return alg.exp_lambda(-1) * alg.z_plus() * Fraction(-1)
    if slot == 4:
        return alg.exp_lambda(1) * alg.z_minus() * Fraction(-1)
    return -alg.lam()


def _u_gen_coproduct(alg, slot):
    one = alg.ctx.one()
    p = alg.ctx.p
    if slot == 0:  # p+ (x) k + k^{-1} (x) p+
        return UTensor(
            alg,
            2,
            {
                ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)): one,
                ((0, 0, p - 1, 0, 0, 0), (1, 0, 0, 0, 0, 0)): one,
            },
        )
    if slot == 1:
        return UTensor(
            alg,
            2,
            {
                ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)): one,
                ((0, 0, p - 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)): one,
            },
        )
    if slot == 2:
        return UTensor(alg, 2, {((0, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 0)): one})
    args = [0] * 6
    args[slot] = 1
    mon = tuple(args)
    return UTensor(alg, 2, {(mon, UNIT_MONO): one, (UNIT_MONO, mon): one})


def _u_gen_antipode(alg, slot):
    # S(p_pm) = -q^{pm 1} p_pm, S(k) = k^{-1}; P_pm and H are primitive
    if slot == 2:
        return alg.kappa(-1)
    phase = alg.ctx.q((1, -1, 0, 0, 0, 0)[slot])
    return alg.generator(alg.GEN_NAMES[slot]) * -phase


def gen_coproduct(alg, slot):
    """Delta of the generator of one slot, from the algebra's table."""
    table = _a_gen_coproduct if isinstance(alg, AAlgebra) else _u_gen_coproduct
    return table(alg, slot)


def gen_antipode(alg, slot):
    """S of the generator of one slot, from the algebra's table."""
    table = _a_gen_antipode if isinstance(alg, AAlgebra) else _u_gen_antipode
    return table(alg, slot)


def gen_cop_power(alg, slot, n):
    """Delta(generator)^n, multiplied out with Tensor.__mul__."""
    out = alg.tensor_one(2)
    for _ in range(n):
        out = out * gen_coproduct(alg, slot)
    return out


def gen_anti_power(alg, slot, n):
    """S(generator)^n, multiplied out with Element.__mul__."""
    out = alg.one()
    for _ in range(n):
        out = out * gen_antipode(alg, slot)
    return out
