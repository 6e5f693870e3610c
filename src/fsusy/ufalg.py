"""The fractional enveloping side of the dual pair.

Generators: two fractional translations p+ and p-, the grading unit k
(k^p = 1), the classical translations P+ and P- (with p_pm^p = P_pm), and
the boost H.  Monomials are kept in the fixed product order

    p+^n  p-^m  k^k  P+^t  P-^s  H^l

with n, m, k in [0, p) and t, s, l >= 0.  Reordering rules:

    k p_pm = q^{pm 1} p_pm k          [p+, p-] = 0,   [P+, P-] = 0
    H X    = X (H + i theta_X)        theta additive over factors
    p_pm^p = P_pm                     k^p = 1,   [k, H] = 0

The boost weights theta are h/p for p+, -h/p for p-, h for P+, -h for P-,
where h = +1 or -1 picks the relative sign between the boost commutators
and everything else.  The dual pairing singles out h = +1 (see duality);
h = -1 is kept selectable so the choice stays an observable fact rather
than a buried constant.

The Hopf structure: Delta(p_pm) = p_pm (x) k + k^{-1} (x) p_pm, k group-like,
P_pm and H primitive, S(p_pm) = -q^{pm 1} p_pm, all generators *-fixed.  The
Hopf maps of a monomial multiply generator powers in closed form.  The two
terms of Delta(p_pm) q-commute, and reordering the right leg cancels the
phase of the q-binomial theorem:

    Delta(p_pm^n) = sum_j [n]!/([j]![n-j]!) p_pm^(n-j) k^-j (x) p_pm^j k^(n-j)
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .report import NumericReport, require_non_negative
from .scalars import FieldContext
from .sparse import Element, SparseAlgebra, Tensor, hopf_element_checks, hopf_pair_checks
from .sparse import parse as parse_u

# the arithmetic and the token grammar live in sparse; these names stay
UElement = Element
UTensor = Tensor

UNIT_MONO = (0, 0, 0, 0, 0, 0)


class UAlgebra(SparseAlgebra):
    """Factory and rewrite engine for one (p, r, h) choice."""

    UNIT = UNIT_MONO
    SHORT_MINUS = True
    GEN_NAMES = ("p+", "p-", "k", "P+", "P-", "H")
    GEN_SLOTS = {name: slot for slot, name in enumerate(GEN_NAMES)}

    def __init__(self, ctx: FieldContext, h: int = 1):
        if h not in (1, -1):
            raise ValueError("h must be +1 or -1")
        self.ctx = ctx
        self.h = h
        self.key = (ctx.key, h)
        self._mono_cache = {}
        self._cop_cache = {}
        self._cop_groups = {}
        self._anti_cache = {}
        self._star_cache = {}
        self._gen_cop_pows = {}

    # -- element factories --

    def monomial(self, n=0, m=0, k=0, t=0, s=0, l=0, coeff=1):
        if n < 0 or m < 0 or t < 0 or s < 0 or l < 0:
            raise ValueError("negative exponent")
        dt, n = divmod(n, self.ctx.p)
        ds, m = divmod(m, self.ctx.p)
        mon = (n, m, k % self.ctx.p, t + dt, s + ds, l)
        c = self.ctx.from_fraction(coeff) if isinstance(coeff, (int, Fraction)) else coeff
        if not c:
            return self.zero()
        return UElement(self, {mon: c})

    def p_plus(self):
        return self.monomial(n=1)

    def p_minus(self):
        return self.monomial(m=1)

    def kappa(self, j: int = 1):
        return self.monomial(k=j)

    def P_plus(self):
        return self.monomial(t=1)

    def P_minus(self):
        return self.monomial(s=1)

    def boost(self):
        return self.monomial(l=1)

    def generator(self, name: str):
        if name not in self.GEN_SLOTS:
            raise ValueError(f"unknown generator {name!r}")
        args = [0] * 6
        args[self.GEN_SLOTS[name]] = 1
        return self.monomial(*args)

    def casimir(self):
        return self.monomial(n=1, m=1)

    # -- the rewrite core --

    def _theta(self, mon) -> Fraction:
        """Boost weight of a monomial: H x = x (H + i theta(x))."""
        n, m, _k, t, s, _l = mon
        return Fraction(self.h) * (Fraction(n - m, self.ctx.p) + (t - s))

    def _mono_mul(self, a, b):
        got = self._mono_cache.get((a, b))
        if got is not None:
            return got
        ctx = self.ctx
        p = ctx.p
        n1, m1, k1, t1, s1, l1 = a
        n2, m2, k2, t2, s2, l2 = b
        coeff = ctx.q(k1 * (n2 - m2))
        dt, n = divmod(n1 + n2, p)
        ds, m = divmod(m1 + m2, p)
        k = (k1 + k2) % p
        t = t1 + t2 + dt
        s = s1 + s2 + ds
        theta = self._theta(b)
        if l1 == 0 or theta == 0:
            out = {(n, m, k, t, s, l1 + l2): coeff}
        else:
            out = {}
            itheta = ctx.i() * theta
            for j in range(l1 + 1):
                c = coeff * math.comb(l1, j) * itheta ** (l1 - j)
                if c:
                    out[(n, m, k, t, s, j + l2)] = c
        self._mono_cache[(a, b)] = out
        return out

    def _legs_mul(self, ka, kb):
        legs = [self._mono_mul(a, b).items() for a, b in zip(ka, kb)]
        out = []
        for combo in itertools.product(*legs):
            f = combo[0][1]
            for _, g in combo[1:]:
                f = f * g
            out.append((tuple(mon for mon, _ in combo), f))
        return out

    # -- Hopf structure --

    def _cop_power_terms(self, slot: int, n: int):
        if slot not in (0, 1):
            return super()._cop_power_terms(slot, n)
        p = self.ctx.p
        return [
            ((self._slot_mono(slot, n - j)[:2] + (-j % p, 0, 0, 0),
              self._slot_mono(slot, j)[:2] + ((n - j) % p, 0, 0, 0)),
             self.ctx.qbinom(n, j))
            for j in range(n + 1)
        ]

    def _anti_power(self, slot: int, n: int):
        if slot not in (0, 1):
            return super()._anti_power(slot, n)
        # -1 = zeta^(2p)
        phase = 2 * self.ctx.p * n + 4 * (1 - 2 * slot) * n
        return UElement(self, {self._slot_mono(slot, n): self.ctx.zeta(phase)})


# the generator tokens in slot order
GEN_NAMES = UAlgebra.GEN_NAMES


def random_u_element(alg: UAlgebra, rng, degree: int = 3, nterms: int = 3) -> UElement:
    """Seeded random element: a few monomials of bounded total degree with
    small cyclotomic coefficients."""
    out = alg.zero()
    for _ in range(nterms):
        budget = rng.randint(0, degree)
        exps = [0] * 6
        for _ in range(budget):
            exps[rng.randrange(6)] += 1
        exps[2] = rng.randrange(alg.ctx.p)
        coeff = alg.ctx.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        coeff = coeff * alg.ctx.zeta(rng.randrange(4 * alg.ctx.p))
        if coeff:
            out = out + alg.monomial(*exps, coeff=coeff)
    return out


# -- the axiom suite ----------------------------------------------------------

def u_axiom_suite(alg: UAlgebra, degree_bound: int = 3, samples: int = 100, seed: int = 1):
    """Exact verification of the Hopf axioms on generators and seeded random
    elements.  Returns a NumericReport, which passes when every check holds."""
    require_non_negative(degree_bound=degree_bound, samples=samples)
    rng = random.Random(seed)
    ctx = alg.ctx
    report = NumericReport(f"u_axiom_suite p={ctx.p} h={alg.h}")

    gens = [alg.generator(g) for g in GEN_NAMES] + [alg.kappa(-1)]
    pool = list(gens)
    for _ in range(samples):
        pool.append(random_u_element(alg, rng, degree_bound))

    for idx, x in enumerate(pool):
        hopf_element_checks(report, idx, x)
        sstar = x.star().antipode().star().antipode()
        report.check(f"s_star_square[{idx}]", sstar == x)

    # morphism properties on random pairs
    for idx in range(max(10, samples // 4)):
        x = random_u_element(alg, rng, degree_bound)
        y = random_u_element(alg, rng, degree_bound)
        hopf_pair_checks(report, idx, x, y)

    # the defining relations, asserted through the product engine
    q = ctx.q(1)
    report.check("k_order", alg.kappa(1) ** ctx.p == alg.one())
    report.check("kp_plus", alg.kappa() * alg.p_plus() == (alg.p_plus() * alg.kappa()) * q)
    report.check(
        "kp_minus", alg.kappa() * alg.p_minus() == (alg.p_minus() * alg.kappa()) * ctx.q(-1)
    )
    report.check("p_commute", alg.p_plus() * alg.p_minus() == alg.p_minus() * alg.p_plus())
    report.check("p_power_plus", alg.p_plus() ** ctx.p == alg.P_plus())
    report.check("p_power_minus", alg.p_minus() ** ctx.p == alg.P_minus())
    ih = ctx.i() * Fraction(alg.h)
    report.check(
        "boost_P_plus",
        alg.P_plus() * alg.boost() - alg.boost() * alg.P_plus() == alg.P_plus() * (-ih),
    )
    report.check(
        "boost_p_plus",
        alg.p_plus() * alg.boost() - alg.boost() * alg.p_plus()
        == alg.p_plus() * (-ih * Fraction(1, ctx.p)),
    )
    report.check("boost_kappa", alg.kappa() * alg.boost() == alg.boost() * alg.kappa())

    c = alg.casimir()
    for g in GEN_NAMES:
        report.check(f"casimir_central[{g}]", c * alg.generator(g) == alg.generator(g) * c)

    # coproducts respect the power folding
    for which, gen, target in (
        ("plus", alg.p_plus(), alg.P_plus()),
        ("minus", alg.p_minus(), alg.P_minus()),
    ):
        report.check(
            f"delta_p_power_{which}",
            gen.coproduct() ** ctx.p == target.coproduct(),
        )
    return report
