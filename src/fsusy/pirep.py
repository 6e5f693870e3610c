"""The weight-basis representation of the enveloping side.

The carrier is spanned by formal vectors (mu, j): an exponential weight
e^(mu x) with mu rational of denominator dividing p, and a cyclic power t^j
with t^p = 1.  Every generator acts monomially,

    p_pm: (mu, j) -> (-c) (mu +- 1/p, j +- 1)      c^p = r
    P_pm: (mu, j) -> (-r) (mu +- 1,   j)
    H:    (mu, j) -> h i mu (mu, j)
    k:    (mu, j) -> q^j    (mu, j)

where h is the boost sign shared with the enveloping algebra (taken from the
empirically determined pairing convention unless overridden).  A general
element therefore acts by a finite sum of field multiples of the monomials

    (sigma, tau, e, d):  (mu, j) -> mu^d q^(e j) (mu + sigma, j + tau)

and this calculus is closed under composition and the formal adjoint, which
makes operator identities decidable exactly and globally, with no window.
PiAlgebra makes it a sparse algebra (fsusy.sparse) on these flat keys: the
product is composition, the star is the adjoint.

The adjoint is taken against the pseudo-Euclidean form on t-polynomials,
G_jk = [j + k = 0 mod p]: the permutation matrix of the involution j -> -j,
whose fixed point j = 0 and (p-1)/2 transpositions give the signature
((p+1)/2, (p-1)/2, 0) (gram_signature).  Conjugation A -> G^-1 A^+ G fixes
both cyclic atoms, the shift t^j -> t^(j+tau) and the diagonal q^(e j), so
the adjoint is a map on the keys: reverse the order of the atoms, conjugate
the coefficient, and take the formal rules on the weight part (multiplication
by a real exponential is self-adjoint, differentiation is skew).  On a single
term it reads

    (c (sigma, tau, e, d))^adj = conj(c) (-1)^d q^(e tau) (mu + sigma)^d (sigma, tau, e, 0)

with (mu + sigma)^d expanded back into the monomials (sigma, tau, e, a).

Every key of every operator the enveloping side maps here has
tau = p sigma (mod p), so c = j - p mu (mod p) is preserved and the carrier
splits into p invariant sectors, the chains {(b/p, b + c)} over integer b.
Each sector is irreducible, for all b at once: H is the single key
(0, 0, 0, 1), so its eigenvalues i h mu are pairwise distinct on a sector
and a commuting operator is diagonal there; p+ is the single key
(1/p, 1, 0, 0) with a constant coefficient, so that diagonal is constant
along the chain.  sector_certificate reads both facts from the keys.  The
sectors are pairwise inequivalent: k is the single key (0, 0, 1, 0) and q a
primitive p-th root, so an intertwiner, commuting with H and k, keeps mu and
j mod p, hence c (sectors_inequivalent).
"""

from __future__ import annotations

import itertools
import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .afalg import AElement, _check_mu
from .duality import DualityContext, determine_convention
from .report import NumericReport, require_non_negative
from .scalars import FieldContext, FieldScalar, is_odd_prime
from .sparse import Element, SparseAlgebra, _accumulate
from .ufalg import GEN_NAMES, UAlgebra, UElement, random_u_element


class BasisVector(NamedTuple):
    mu: Fraction
    j: int

    def pretty(self) -> str:
        return f"(mu={self.mu}, j={self.j})"


class PiOperator(Element):
    """Finite sum of monomial terms (sigma, tau, e, d) acting by
    mu^d q^(e j) (mu + sigma, j + tau).  Sums, scaling, composition, powers
    and equality are the sparse core's; equality is decidable because
    distinct keys act through linearly independent functions of (mu, j)."""

    __slots__ = ()

    @classmethod
    def identity(cls, ctx: FieldContext):
        return PiAlgebra(ctx).one()

    compose = Element.__mul__
    adjoint = Element.star

    def apply(self, v: BasisVector) -> dict:
        """Image of a basis vector as {BasisVector: FieldScalar}."""
        ctx = self.alg.ctx
        p = ctx.p
        out = {}
        for (sig, tau, e, d), c in self.terms.items():
            val = c * (v.mu ** d) if d else c
            if e:
                val = val * ctx.q(e * v.j)
            if val:
                _accumulate(out, BasisVector(v.mu + sig, (v.j + tau) % p), val)
        return out


class PiAlgebra(SparseAlgebra):
    """The operator calculus on the weight basis as a sparse algebra: the
    product is composition (left after right), the star the formal adjoint."""

    UNIT = (Fraction(0), 0, 0, 0)
    SHORT_MINUS = False

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.key = ("pi", ctx.key)
        self._mono_cache = {}
        self._star_cache = {}

    def zero(self):
        return PiOperator(self, {})

    def one(self):
        return PiOperator(self, {self.UNIT: self.ctx.one()})

    def _mono_mul(self, a, b):
        got = self._mono_cache.get((a, b))
        if got is not None:
            return got
        ctx = self.ctx
        s1, t1, e1, d1 = a
        s2, t2, e2, d2 = b
        sig, tau, e = s1 + s2, (t1 + t2) % ctx.p, (e1 + e2) % ctx.p
        phase = ctx.q(e1 * t2)
        # a acts on the shifted source weight: mu^d2 (mu + s2)^d1
        out = {
            (sig, tau, e, d2 + k): phase * (math.comb(d1, k) * s2 ** (d1 - k))
            for k in range(d1 + 1)
            if s2 or k == d1
        }
        self._mono_cache[(a, b)] = out
        return out

    def _star_mono(self, mon) -> PiOperator:
        """Adjoint of one key, (-1)^d q^(e tau) (mu + sigma)^d (sigma, tau, e, 0).

        The key applies mu^d, then q^(e j), then the shift; the adjoint applies
        the atoms' adjoints in reverse.  G^-1 A^+ G fixes the shift and the
        diagonal, so reversing them costs the phase q^(e tau); mu^d is the d-th
        derivative's symbol, skew, hence (-1)^d, and is read at the shifted
        weight.  Element.star conjugates the coefficient."""
        got = self._star_cache.get(mon)
        if got is not None:
            return got
        sig, tau, e, d = mon
        base = self.ctx.q(e * tau) * (-1) ** d
        out = PiOperator(self, {
            (sig, tau, e, k): base * (math.comb(d, k) * sig ** (d - k))
            for k in range(d + 1)
            if sig or k == d
        })
        self._star_cache[mon] = out
        return out

    def _format_mono(self, mon) -> str:
        sig, tau, e, d = mon
        return f"shift(mu+{sig}, j+{tau}) q^({e}j) mu^{d}"


@dataclass(frozen=True)
class CorepTerm:
    """One term of the universal corepresentation sum: the function-side
    coefficient (already divided by the pairing normalization), and the
    scaled image vector."""

    a_coeff: AElement
    scalar: FieldScalar
    vector: BasisVector


class PiRepresentation:
    """Exact action of the enveloping side on the weight basis."""

    def __init__(self, ctx: FieldContext, h: int | None = None):
        if h is None:
            h = determine_convention(ctx).h
        if h not in (1, -1):
            raise ValueError("boost sign must be +1 or -1")
        self.ctx = ctx
        self.h = h
        self.ualg = UAlgebra(ctx, h=h)
        self.pialg = PiAlgebra(ctx)
        self._dual = None
        self._gen_ops = {}

    # -- vectors and windows --

    def vector(self, mu=0, j: int = 0) -> BasisVector:
        p = self.ctx.p
        return BasisVector(Fraction(_check_mu(mu, p), p), j % p)

    def chain_window(self, length: int):
        """Vectors along the raising chain from (0, 0)."""
        p = self.ctx.p
        return [self.vector(Fraction(b, p), b) for b in range(length)]

    # -- operators --

    def generator(self, name: str) -> PiOperator:
        op = self._gen_ops.get(name)
        if op is None:
            op = self.operator(self.ualg.generator(name))
            self._gen_ops[name] = op
        return op

    def operator(self, x: UElement) -> PiOperator:
        self.ualg._check(x)
        ctx = self.ctx
        p = ctx.p
        terms = {}
        for (n, m, k, t, s, l), c in x.terms.items():
            sig = Fraction(n - m, p) + t - s
            coeff = c * ctx.c_hat(n + m) * (ctx.i() ** l)
            scale = Fraction(ctx.r) ** (t + s)
            if (n + m + t + s) % 2:
                scale = -scale
            if self.h < 0 and l % 2:
                scale = -scale
            _accumulate(terms, (sig, (n - m) % p, k % p, l), coeff * scale)
        return PiOperator(self.pialg, terms)

    def apply_generator(self, name: str, v: BasisVector):
        """(scalar, vector) image of a basis vector under one generator."""
        out = self.generator(name).apply(v)
        if not out:
            return self.ctx.zero(), v
        (w, c), = out.items()
        return c, w

    # -- corepresentation terms --

    @property
    def duality(self) -> DualityContext:
        if self._dual is None:
            self._dual = DualityContext(self.ctx)
        return self._dual

    def corep_term(self, indices, v: BasisVector) -> CorepTerm:
        """One (n,m,k,t,s,l) term of the universal corepresentation sum on a
        basis vector: the function-side coefficient carries the inverse of
        the pairing normalization, the vector side carries the action."""
        n, m, k, t, s, l = indices
        p = self.ctx.p
        if not (0 <= n < p and 0 <= m < p and 0 <= k < p):
            raise ValueError("cyclic indices must sit in [0, p)")
        if t < 0 or s < 0 or l < 0:
            raise ValueError("classical indices must be nonnegative")
        dual = self.duality
        phi = self.ualg.monomial(n=n, m=m, k=k, t=t, s=s, l=l)
        aal = dual.aalg
        a_elem = aal.monomial(n=n, m=m, t=t, s=s, l=l) * aal.zeta_projector((k + n + m) % p)
        denom = dual.pair(phi, a_elem)
        if not denom:
            raise RuntimeError(f"pairing normalization vanished at {indices}")
        out = self.operator(phi).apply(v)
        if not out:
            raise RuntimeError(f"action vanished at {indices}")
        (w, c), = out.items()
        return CorepTerm(a_elem * denom.invert(), c, w)


# -- the Gram form on the cyclic factor -----------------------------------------


@dataclass(frozen=True)
class SignatureResult:
    n_plus: int
    n_minus: int
    n_zero: int


def gram_signature(ctx_or_p) -> SignatureResult:
    """Signature of the Gram form G_jk = [j + k = 0 mod p], the permutation
    matrix of the involution j -> -j, counted on its cycles: a fixed point
    t^j is a +1 eigenvector, and a transposition {j, -j} spans one +1
    (t^j + t^-j) and one -1 (t^j - t^-j).  An int p that is not an odd
    prime raises ValueError, as FieldContext does."""
    p = ctx_or_p if isinstance(ctx_or_p, int) else ctx_or_p.p
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    fixed = sum(1 for j in range(p) if (-j) % p == j)
    swaps = sum(1 for j in range(p) if j < (-j) % p)
    return SignatureResult(fixed + swaps, swaps, 0)


# -- sectors and irreducibility ---------------------------------------------------


def sector_certificate(rep: PiRepresentation, ops=()) -> tuple[bool, bool]:
    """(sectors, irreducible) from the operator keys, for all b at once.

    sectors: every key of the six generators and of ops has tau = p sigma
    (mod p), so each chain {(b/p, b + c)} is invariant.  irreducible: H is
    the single key (0, 0, 0, 1), whose eigenvalues i h mu are distinct on a
    sector, and p+ the single key (1/p, 1, 0, 0), which steps along it with
    a constant nonzero coefficient; a commuting operator is then scalar."""
    p = rep.ctx.p
    gens = {g: list(rep.generator(g).terms) for g in GEN_NAMES}
    keys = itertools.chain(*gens.values(), *(op.terms for op in ops))
    sectors = all((p * sig - tau) % p == 0 for sig, tau, _, _ in keys)
    irreducible = gens["H"] == [(0, 0, 0, 1)] and gens["p+"] == [(Fraction(1, p), 1, 0, 0)]
    return sectors, irreducible


def sectors_inequivalent(rep: PiRepresentation) -> bool:
    """Whether the p sectors are pairwise inequivalent, read from the keys.

    H is the single key (0, 0, 0, 1), eigenvalue i h mu, and k the single key
    (0, 0, 1, 0), eigenvalue q^j with q a primitive p-th root, so an
    intertwiner keeps mu and j mod p, hence c = j - p mu: two different
    sectors admit only the zero intertwiner."""
    ctx = rep.ctx
    primitive = all(ctx.q(j) != ctx.one() for j in range(1, ctx.p))
    return (
        primitive
        and list(rep.generator("H").terms) == [(0, 0, 0, 1)]
        and list(rep.generator("k").terms) == [(0, 0, 1, 0)]
    )


# -- the verification suite -------------------------------------------------------

# Enveloping monomials (n, m, k, t, s, l) whose adjoints the suite checks:
# each generator alone, then mixed words with every atom kind.
_ADJOINT_MONOS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 0, 2, 0, 0, 1),
    (2, 1, 1, 1, 0, 0),
    (0, 2, 0, 0, 1, 2),
)


def _chain_length(p: int, chain_length: int | None) -> int:
    """The pointwise-root window length, 3p unless given."""
    if chain_length is None:
        return 3 * p
    if chain_length < 1:
        raise ValueError(f"chain_length must be at least 1, got {chain_length}")
    return chain_length


def representation_suite(
    ctx: FieldContext,
    chain_length: int | None = None,
    samples: int = 15,
    seed: int = 7,
) -> NumericReport:
    """Exact checks of the representation: the defining relations as operator
    identities, the fractional root both in the calculus and pointwise on a
    chain window, the adjoint key map against the star and the self-adjoint
    generators, the Gram signature counted on the cycles of j -> -j, the
    sector certificate and the sectors' inequivalence, and the
    corepresentation reassembly."""
    require_non_negative(samples=samples)
    rep = PiRepresentation(ctx)
    ual = rep.ualg
    p = ctx.p
    length = _chain_length(p, chain_length)
    rng = _random.Random(seed)
    rrep = NumericReport(f"representation_suite p={p} r={ctx.r}")
    rrep.measure("h", rep.h)
    rrep.measure("chain_length", length)

    gens = {g: rep.generator(g) for g in GEN_NAMES}

    # products of generator pairs against the normalized algebra products
    bad = 0
    for g1, g2 in itertools.product(GEN_NAMES, repeat=2):
        lhs = gens[g1].compose(gens[g2])
        rhs = rep.operator(ual.generator(g1) * ual.generator(g2))
        if lhs != rhs:
            bad += 1
    rrep.check("generator_pair_products", bad == 0, f"{bad} of 36 mismatch")

    bad = 0
    sampled = []
    for _ in range(samples):
        x = random_u_element(ual, rng, degree=3)
        y = random_u_element(ual, rng, degree=3)
        sampled += [rep.operator(x), rep.operator(y)]
        if rep.operator(x * y) != sampled[-2].compose(sampled[-1]):
            bad += 1
    rrep.check("homomorphism_random", bad == 0, f"{bad} mismatches")

    rrep.check("grading_order", gens["k"] ** p == PiOperator.identity(ctx))
    q = ctx.q(1)
    kap_inv = gens["k"] ** (p - 1)
    rrep.check(
        "grading_conjugation",
        gens["k"].compose(gens["p+"]).compose(kap_inv) == gens["p+"] * q
        and gens["k"].compose(gens["p-"]).compose(kap_inv) == gens["p-"] * ctx.q(-1),
    )
    ih = ctx.i() * Fraction(rep.h, p)
    comm = gens["p+"].compose(gens["H"]) - gens["H"].compose(gens["p+"])
    rrep.check("boost_commutator_plus", comm == gens["p+"] * (-ih))
    comm = gens["p-"].compose(gens["H"]) - gens["H"].compose(gens["p-"])
    rrep.check("boost_commutator_minus", comm == gens["p-"] * ih)

    # the fractional root, globally in the calculus
    rrep.check("root_calculus_plus", gens["p+"] ** p == gens["P+"])
    rrep.check("root_calculus_minus", gens["p-"] ** p == gens["P-"])

    # and pointwise along a chain of distinct vectors
    for name, whole in (("p+", "P+"), ("p-", "P-")):
        bad = 0
        for v in rep.chain_window(length):
            state = {v: ctx.one()}
            for _ in range(p):
                nxt = {}
                for w, c in state.items():
                    for u, d in gens[name].apply(w).items():
                        acc = nxt.get(u)
                        nxt[u] = c * d if acc is None else acc + c * d
                state = nxt
            if state != gens[whole].apply(v):
                bad += 1
        rrep.check(f"root_window[{name}]", bad == 0, f"{bad} of {length} vectors")

    # eigenvalue anchors
    v = rep.vector(Fraction(1, p), 0)
    c, w = rep.apply_generator("H", v)
    rrep.check("boost_eigenvalue", w == v and c == ctx.i() * Fraction(rep.h, p))
    c, w = rep.apply_generator("k", rep.vector(0, 1))
    rrep.check("grading_eigenvalue", w == rep.vector(0, 1) and c == q)
    c, w = rep.apply_generator("p+", rep.vector(0, 0))
    rrep.check(
        "raising_step",
        w == rep.vector(Fraction(1, p), 1) and c == -ctx.c_hat(1),
    )

    # adjoints: the key map against the star element
    bad = 0
    for mono in _ADJOINT_MONOS:
        x = ual.monomial(*mono)
        if rep.operator(x).adjoint() != rep.operator(x.star()):
            bad += 1
    rrep.check("adjoint_matches_star", bad == 0, f"{bad} mismatches")

    for g in GEN_NAMES:
        rrep.check(f"self_adjoint[{g}]", gens[g].adjoint() == gens[g])

    bad_star = bad_anti = bad_invol = 0
    for _ in range(samples):
        x = random_u_element(ual, rng, degree=3)
        y = random_u_element(ual, rng, degree=2)
        ox, oy = rep.operator(x), rep.operator(y)
        if rep.operator(x.star()) != ox.adjoint():
            bad_star += 1
        if ox.compose(oy).adjoint() != oy.adjoint().compose(ox.adjoint()):
            bad_anti += 1
        if ox.adjoint().adjoint() != ox:
            bad_invol += 1
    rrep.check("adjoint_star_random", bad_star == 0, f"{bad_star} mismatches")
    rrep.check("adjoint_antimultiplicative", bad_anti == 0, f"{bad_anti} mismatches")
    rrep.check("adjoint_involutive", bad_invol == 0, f"{bad_invol} mismatches")

    # the quadratic invariant acts as the scalar c^2 and commutes with all
    cas = rep.operator(ual.casimir())
    rrep.check("casimir_scalar", cas == PiOperator.identity(ctx) * (ctx.c_hat(2)))
    bad = sum(
        1 for g in GEN_NAMES if cas.compose(gens[g]) != gens[g].compose(cas)
    )
    rrep.check("casimir_central", bad == 0, f"{bad} mismatches")

    # the grading is one key, the unit the identity, each generator one term
    grading = PiOperator(rep.pialg, {(Fraction(0), 0, 1, 0): ctx.one()})
    rrep.check("grading_key", gens["k"] == grading)
    rrep.check("identity_operator", rep.operator(ual.one()) == PiOperator.identity(ctx))
    bad = sum(1 for g in GEN_NAMES if len(gens[g].terms) != 1)
    rrep.check("monomial_generators", bad == 0, f"{bad} multi-term generators")

    sig = gram_signature(ctx)
    rrep.check(
        "gram_signature",
        (sig.n_plus, sig.n_minus, sig.n_zero) == ((p + 1) // 2, (p - 1) // 2, 0),
        f"{sig}",
    )
    rrep.measure("signature", f"(+{sig.n_plus}, -{sig.n_minus}, 0x{sig.n_zero})")

    sectors, irreducible = sector_certificate(rep, sampled)
    detail = f"tau = p sigma (mod p) on generators and {len(sampled)} sampled operators"
    rrep.check("sector_invariance", sectors, detail)
    rrep.check("irreducible_per_sector", irreducible, "H on (0, 0, 0, 1), p+ on (1/p, 1, 0, 0)")
    rrep.check(
        "sectors_inequivalent",
        sectors_inequivalent(rep),
        "H on (0, 0, 0, 1), k on (0, 0, 1, 0), q primitive",
    )

    # group-like sector of the corepresentation reassembles the cyclic basis
    bad = 0
    for j in range(p):
        v = rep.vector(0, j)
        acc = rep.duality.aalg.zero()
        for k in range(p):
            term = rep.corep_term((0, 0, k, 0, 0, 0), v)
            if term.vector != v:
                bad += 1
                continue
            acc = acc + term.a_coeff * term.scalar
        if acc != rep.duality.aalg.delta(j):
            bad += 1
    rrep.check("corep_grouplike_sector", bad == 0, f"{bad} mismatches")
    return rrep
