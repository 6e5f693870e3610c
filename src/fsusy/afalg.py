"""The function-algebra side of the dual pair.

Generators: two Grassmann-like coordinates e+ and e- (nilpotent of order p),
the grading coordinate d (d^p = 1), two classical coordinates z+ and z-, the
central coordinate L, and group-like exponential weights exp(u L) with u in
(1/p)Z.  Monomials are kept in the fixed order

    e+^n  e-^m  d^k  z+^t  z-^s  L^l  exp(u L)

with n, m, k in [0, p) and t, s, l >= 0, and stored as the key
(n, m, k, t, s, l, p u): slot 6 holds the integer p u, so the weight never
needs a Fraction inside the algebra.  The only non-commutativity sits in
the first three slots:

    e- e+ = q^2 e+ e-        e+- d = q^2 d e+-        e+-^p = 0,  d^p = 1

z+, z-, L, exp(u L) are central.  The classical and quantum halves only talk
to each other through the coproduct of z+-:

    Delta(e+-) = e+- (x) 1 + g+- (x) e+-,        g = d exp(L/p), g- = g^{-1}
    Delta(d)   = d (x) d
    Delta(L)   = L (x) 1 + 1 (x) L
    Delta(z+-) = z+- (x) 1 + exp(+-L) (x) z+-
               + k0 sum_{n=1}^{p-1} q^{+-n^2}/([p-n]![n]!) e+-^{p-n} d^{+-n} exp(+-nL/p) (x) e+-^n

with k0 = (-1)^((p+1)/2).  The antipode carries exponential corrections on
the twisted generators:

    S(e+-) = -d^{-+} exp(-+L/p) e+-        S(z+-) = -exp(-+L) z+-

(both are forced by the antipode axiom m(S (x) id)Delta = eps 1; the suite
re-derives this instead of trusting the transcription).  The star fixes all
generators, conjugates coefficients and reverses products.

The Hopf maps of a monomial multiply generator powers in closed form.  The
two terms of Delta(e+-) q-commute, YX = q^(-+2) XY, which gives the
q-binomial theorem; A = z+- (x) 1 and B = exp(+-L) (x) z+- are central, and
any product of two terms of the tail T of Delta(z+-) vanishes:

    Delta(e+-^n) = sum_j q^(-+j(n-j)) [n]!/([j]![n-j]!) e+-^(n-j) g+-^j (x) e+-^j
    Delta(z+-^n) = (A + B)^n + n (A + B)^(n-1) T
    S(e+-)^n = (-1)^n q^(+-n(n+1)) e+-^n g+-^-n      S(z+-)^n = (-1)^n z+-^n exp(-+nL)
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from .report import NumericReport, require_non_negative
from .scalars import FieldContext
from .sparse import Element, SparseAlgebra, Tensor, hopf_element_checks, hopf_pair_checks
from .sparse import parse as parse_a

# the arithmetic and the token grammar live in sparse; these names stay
AElement = Element
ATensor = Tensor

A_UNIT = (0, 0, 0, 0, 0, 0, 0)
# a weight token exp(uL), u an integer or a fraction with non-zero denominator
_EXP_RE = re.compile(r"^exp\((-?\d+(?:/0*[1-9]\d*)?)L\)$")


def _check_mu(mu, p: int) -> int:
    """The key slot p*mu of an exponential weight mu in (1/p)Z."""
    mu = Fraction(mu)
    if mu.denominator not in (1, p):
        raise ValueError(f"exponential weight {mu} not in (1/{p})Z")
    return mu.numerator * (p // mu.denominator)


class AAlgebra(SparseAlgebra):
    """Factory and rewrite engine for the function algebra at one (p, r).

    _cop_cache and _cop_groups hold Delta, and its groups, of monomials
    with k = u = 0 only; sparse lists the other caches."""

    UNIT = A_UNIT
    SHORT_MINUS = False
    GEN_NAMES = ("e+", "e-", "d", "z+", "z-", "L")
    GEN_SLOTS = {name: slot for slot, name in enumerate(GEN_NAMES)}

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.key = ctx.key
        self.kappa0 = self.ctx.from_fraction((-1) ** ((ctx.p + 1) // 2))
        self._cop_cache = {}
        self._cop_groups = {}
        self._anti_cache = {}
        self._star_cache = {}
        self._gen_cop_pows = {}

    # -- factories --

    def monomial(self, n=0, m=0, k=0, t=0, s=0, l=0, mu=0, coeff=1):
        if min(n, m, t, s, l) < 0:
            raise ValueError("negative exponent")
        pmu = _check_mu(mu, self.ctx.p)
        if n >= self.ctx.p or m >= self.ctx.p:
            return self.zero()
        c = self.ctx.from_fraction(coeff) if isinstance(coeff, (int, Fraction)) else coeff
        if not c:
            return self.zero()
        return AElement(self, {(n, m, k % self.ctx.p, t, s, l, pmu): c})

    def eta_plus(self):
        return self.monomial(n=1)

    def eta_minus(self):
        return self.monomial(m=1)

    def delta(self, j: int = 1):
        return self.monomial(k=j)

    def z_plus(self):
        return self.monomial(t=1)

    def z_minus(self):
        return self.monomial(s=1)

    def lam(self):
        return self.monomial(l=1)

    def exp_lambda(self, mu):
        return self.monomial(mu=mu)

    def xi(self):
        """The invariant quadratic combination q e+ e-."""
        return self.monomial(n=1, m=1, coeff=self.ctx.q(1))

    def zeta_projector(self, j: int) -> AElement:
        """Spectral idempotent of d: (1/p) sum_n q^{-nj} d^n."""
        p = self.ctx.p
        out = self.zero()
        inv_p = Fraction(1, p)
        for nn in range(p):
            out = out + self.monomial(k=nn, coeff=self.ctx.q(-nn * j) * inv_p)
        return out

    # -- rewrite core: single-term structure constants --

    def _reorder(self, a, b):
        """Reordered product of two basis monomials: the target monomial and
        the integer exponent of the q-power it picks up, or None if an
        eta-power overflows into zero."""
        p = self.ctx.p
        n1, m1, k1, t1, s1, l1, u1 = a
        n2, m2, k2, t2, s2, l2, u2 = b
        n = n1 + n2
        m = m1 + m2
        if n >= p or m >= p:
            return None
        # e-^{m1} crossing e+^{n2}, then d^{k1} crossing e+-^{n2+m2}
        exp = 2 * m1 * n2 - 2 * k1 * (n2 + m2)
        mon = (n, m, (k1 + k2) % p, t1 + t2, s1 + s2, l1 + l2, u1 + u2)
        return mon, exp

    def _mono_mul(self, a, b):
        hit = self._reorder(a, b)
        if hit is None:
            return {}
        return {hit[0]: self.ctx.q(hit[1])}

    def _legs_mul(self, ka, kb):
        # one q-power for all legs: the exponents add before the scalar
        # is looked up
        legs = []
        e = 0
        for a, b in zip(ka, kb):
            hit = self._reorder(a, b)
            if hit is None:
                return ()
            legs.append(hit[0])
            e += hit[1]
        return ((tuple(legs), self.ctx.q(e)),)

    def _format_mono(self, mon) -> str:
        word = super()._format_mono(mon)
        if not mon[6]:
            return word
        weight = f"exp({Fraction(mon[6], self.ctx.p)}L)"
        return weight if word == "1" else f"{word} {weight}"

    def _parse_weight(self, name: str):
        m = _EXP_RE.match(name)
        if m is None:
            return None
        return lambda e: self.exp_lambda(Fraction(m.group(1)) * e)

    # -- Hopf structure --

    def _eg(self, slot: int, a: int, j: int):
        """The key of e+^a g+^j for slot 0, of e-^a g-^j for slot 1."""
        sign = 1 - 2 * slot
        return self._slot_mono(slot, a)[:2] + (sign * j % self.ctx.p, 0, 0, 0, sign * j)

    def _cop_power_terms(self, slot: int, n: int):
        ctx, p = self.ctx, self.ctx.p
        if slot in (0, 1):
            sign = 1 - 2 * slot
            return [
                ((self._eg(slot, n - j, j), self._slot_mono(slot, j)),
                 ctx.q(-sign * j * (n - j)) * ctx.qbinom(n, j))
                for j in range(n + 1)
            ]
        if slot not in (3, 4):
            return super()._cop_power_terms(slot, n)
        sign = 7 - 2 * slot

        def z(a, i, j):  # a times z+-^i exp(+-jL)
            return a[:slot] + (i,) + a[slot + 1 : 6] + (a[6] + sign * j * p,)

        # (A + B)^n, then n (A + B)^(n-1) times each tail term
        binom = [ctx.from_fraction(math.comb(n, i)) for i in range(n + 1)]
        out = [((z(A_UNIT, n - i, i), z(A_UNIT, i, 0)), binom[i]) for i in range(n + 1)]
        for j in range(1, p):
            c = self.kappa0 * ctx.q(sign * j * j) / (ctx.qfact(p - j) * ctx.qfact(j))
            left, right = self._eg(slot - 3, p - j, j), self._slot_mono(slot - 3, j)
            out += [
                ((z(left, n - 1 - i, i), z(right, i, 0)), c * (n * math.comb(n - 1, i)))
                for i in range(n)
            ]
        return out

    def _anti_power(self, slot: int, n: int):
        ctx = self.ctx
        if slot in (0, 1):  # -1 = zeta^(2p)
            phase = 2 * ctx.p * n + 4 * (1 - 2 * slot) * n * (n + 1)
            return AElement(self, {self._eg(slot, n, -n): ctx.zeta(phase)})
        out = super()._anti_power(slot, n)
        return out * self.exp_lambda((2 * slot - 7) * n) if slot in (3, 4) else out

    def _relabelled(self, terms, k: int, pmu: int) -> list:
        """Coproduct terms ((a, b), c) times g (x) g, g = d^k exp(u L) with
        pmu = p u: g sits rightmost, picks up no phase and moves slots 2, 6."""
        p = self.ctx.p

        def move(a):
            return (a[0], a[1], (a[2] + k) % p, a[3], a[4], a[5], a[6] + pmu)

        return [((move(a), move(b)), c) for (a, b), c in terms]

    def _cop_group(self, mon, legs: tuple, degs: tuple) -> list:
        """The group of the (k, u)-free monomial, relabelled on read."""
        n, m, k, t, s, l, pmu = mon
        group = super()._cop_group((n, m, 0, t, s, l, 0), legs, degs)
        return self._relabelled(group, k, pmu) if k or pmu else group

    def _coproduct_mono(self, mon) -> ATensor:
        n, m, k, t, s, l, pmu = mon
        base = super()._coproduct_mono((n, m, 0, t, s, l, 0))
        if not (k or pmu):
            return base
        # Delta(x g) = Delta(x) (g (x) g) for the group-like part g
        return ATensor(self, 2, dict(self._relabelled(base.terms.items(), k, pmu)))


def random_a_element(alg: AAlgebra, rng, degree: int = 2, nterms: int = 3) -> AElement:
    out = alg.zero()
    p = alg.ctx.p
    for _ in range(nterms):
        budget = rng.randint(0, degree)
        exps = [0] * 6
        for _ in range(budget):
            exps[rng.randrange(6)] += 1
        if exps[0] >= p or exps[1] >= p:
            continue
        exps[2] = rng.randrange(p)
        mu = Fraction(rng.randint(-p, p), p)
        coeff = alg.ctx.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        coeff = coeff * alg.ctx.zeta(rng.randrange(4 * p))
        if coeff:
            out = out + alg.monomial(*exps, mu=mu, coeff=coeff)
    return out


# -- the axiom suite ----------------------------------------------------------

def a_axiom_suite(alg: AAlgebra, degree_bound: int = 2, samples: int = 100, seed: int = 1):
    """Exact verification of the Hopf axioms on the function algebra.  The
    antipode axiom on z+- is the sharpest check here: it exercises every
    coefficient of the long coproduct tail."""
    require_non_negative(degree_bound=degree_bound, samples=samples)
    rng = random.Random(seed)
    ctx = alg.ctx
    p = ctx.p
    report = NumericReport(f"a_axiom_suite p={p}")

    gens = [
        alg.eta_plus(),
        alg.eta_minus(),
        alg.delta(1),
        alg.delta(-1),
        alg.z_plus(),
        alg.z_minus(),
        alg.lam(),
        alg.exp_lambda(Fraction(1, p)),
        alg.exp_lambda(Fraction(-1, p)),
    ]
    pool = list(gens)
    for _ in range(samples):
        pool.append(random_a_element(alg, rng, degree_bound))

    for idx, x in enumerate(pool):
        hopf_element_checks(report, idx, x)

    for idx in range(max(10, samples // 4)):
        x = random_a_element(alg, rng, degree_bound)
        y = random_a_element(alg, rng, degree_bound)
        hopf_pair_checks(report, idx, x, y)

    # defining relations and their images under Delta and S
    q2 = ctx.q(2)
    ep, em, dd = alg.eta_plus(), alg.eta_minus(), alg.delta()
    report.check("em_ep", em * ep == ep * em * q2)
    report.check("ep_d", ep * dd == dd * ep * q2)
    report.check("em_d", em * dd == dd * em * q2)
    report.check("d_order", dd ** p == alg.one())
    report.check("e_nilpotent_plus", (ep ** p).is_zero())
    report.check("e_nilpotent_minus", (em ** p).is_zero())
    report.check("exp_weights_add", alg.exp_lambda(Fraction(1, p)) * alg.exp_lambda(
        Fraction(-1, p)
    ) == alg.one())
    dp, dm = ep.coproduct(), em.coproduct()
    report.check("delta_em_ep", dm * dp == dp * dm * q2)
    report.check("delta_e_nilpotent_plus", (dp ** p).is_zero())
    report.check("delta_e_nilpotent_minus", (dm ** p).is_zero())
    report.check(
        "antipode_em_ep",
        em.antipode() * ep.antipode() * q2 == ep.antipode() * em.antipode(),
    )

    # spectral idempotents of the grading coordinate
    zetas = [alg.zeta_projector(j) for j in range(p)]
    total = alg.zero()
    for j, zj in enumerate(zetas):
        total = total + zj
        report.check(f"zeta_idem[{j}]", zj * zj == zj)
        report.check(f"zeta_eigen[{j}]", dd * zj == zj * ctx.q(j))
        for j2 in range(j + 1, p):
            report.check(f"zeta_orth[{j},{j2}]", (zj * zetas[j2]).is_zero())
    report.check("zeta_complete", total == alg.one())
    for jj in range(p):
        back = alg.zero()
        for mm in range(p):
            back = back + zetas[mm] * ctx.q(jj * mm)
        report.check(f"delta_from_zeta[{jj}]", back == alg.delta(jj))
    return report
