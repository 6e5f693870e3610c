import math
import random
from fractions import Fraction

import pytest

from fsusy.afalg import AAlgebra
from fsusy.pirep import (
    BasisVector,
    PiOperator,
    PiRepresentation,
    _ADJOINT_MONOS,
    gram_signature,
    representation_suite,
    sector_certificate,
    sectors_inequivalent,
)
from fsusy.scalars import FieldContext
from fsusy.sparse import _accumulate
from fsusy.ufalg import GEN_NAMES, random_u_element


@pytest.fixture(scope="session")
def rep3(ctx3):
    return PiRepresentation(ctx3)


@pytest.fixture(scope="session")
def rep5(ctx5):
    return PiRepresentation(ctx5)


# -- single-generator actions ----------------------------------------------------


def test_grading_action(rep3):
    ctx = rep3.ctx
    for j in range(3):
        c, w = rep3.apply_generator("k", rep3.vector(0, j))
        assert w == rep3.vector(0, j)
        assert c == ctx.q(j)


def test_boost_action(rep3):
    # the boost sign follows the determined convention (h = +1)
    ctx = rep3.ctx
    assert rep3.h == 1
    c, w = rep3.apply_generator("H", rep3.vector(Fraction(1, 3), 0))
    assert w == rep3.vector(Fraction(1, 3), 0)
    assert c == ctx.i() * Fraction(1, 3)
    c, _ = rep3.apply_generator("H", rep3.vector(2, 1))
    assert c == ctx.i() * 2


def test_raising_lowering_steps(rep3):
    ctx = rep3.ctx
    c, w = rep3.apply_generator("p+", rep3.vector(0, 0))
    assert w == rep3.vector(Fraction(1, 3), 1)
    assert c == -ctx.c_hat(1)
    c, w = rep3.apply_generator("p-", rep3.vector(0, 0))
    assert w == rep3.vector(Fraction(-1, 3), 2)
    assert c == -ctx.c_hat(1)
    c, w = rep3.apply_generator("P-", rep3.vector(1, 2))
    assert w == rep3.vector(0, 2)
    assert c == -ctx.from_fraction(ctx.r)


def test_root_by_iteration(rep3):
    # p raising steps compose to the whole translation
    ctx = rep3.ctx
    v = rep3.vector(0, 0)
    c_total = ctx.one()
    for _ in range(3):
        c, v = rep3.apply_generator("p+", v)
        c_total = c_total * c
    assert v == rep3.vector(1, 0)
    assert c_total == -ctx.from_fraction(ctx.r)
    cP, vP = rep3.apply_generator("P+", rep3.vector(0, 0))
    assert (cP, vP) == (c_total, v)


def test_steps_at_five(rep5):
    ctx = rep5.ctx
    c, w = rep5.apply_generator("p-", rep5.vector(Fraction(2, 5), 3))
    assert w == rep5.vector(Fraction(1, 5), 2)
    assert c == -ctx.c_hat(1)
    assert rep5.generator("p-") ** 5 == rep5.generator("P-")


def test_vector_validation(rep3):
    with pytest.raises(ValueError):
        rep3.vector(Fraction(1, 2), 0)
    assert rep3.vector(Fraction(4, 3), 5) == BasisVector(Fraction(4, 3), 2)


# -- operator calculus -----------------------------------------------------------


def test_operator_unit(rep3):
    assert rep3.operator(rep3.ualg.one()) == PiOperator.identity(rep3.ctx)
    assert rep3.operator(rep3.ualg.zero()).is_zero()


def test_operator_homomorphism_random(rep3):
    rng = random.Random(31)
    for _ in range(6):
        x = random_u_element(rep3.ualg, rng, degree=3)
        y = random_u_element(rep3.ualg, rng, degree=3)
        assert rep3.operator(x * y) == rep3.operator(x).compose(rep3.operator(y))


def test_grading_order_and_roots(rep3):
    ctx = rep3.ctx
    assert rep3.generator("k") ** 3 == PiOperator.identity(ctx)
    assert rep3.generator("p+") ** 3 == rep3.generator("P+")
    assert rep3.generator("p-") ** 3 == rep3.generator("P-")


def test_casimir_is_scalar(rep3):
    cas = rep3.operator(rep3.ualg.casimir())
    assert cas == PiOperator.identity(rep3.ctx) * rep3.ctx.c_hat(2)


def test_adjoint_atoms(rep3):
    for g in ("p+", "p-", "k", "P+", "P-", "H"):
        op = rep3.generator(g)
        assert op.adjoint() == op


def test_adjoint_products(rep3):
    ual = rep3.ualg
    x = ual.boost() * ual.p_plus()
    assert rep3.operator(x).adjoint() == rep3.operator(x.star())
    rng = random.Random(5)
    y = random_u_element(ual, rng, degree=3)
    oy = rep3.operator(y)
    assert oy.adjoint().adjoint() == oy
    assert rep3.operator(y.star()) == oy.adjoint()


def test_operator_linearity(rep3):
    ctx = rep3.ctx
    a = rep3.generator("p+")
    b = rep3.generator("H")
    s = a + b * ctx.q(1)
    v = rep3.vector(Fraction(1, 3), 1)
    img = s.apply(v)
    ia = a.apply(v)
    ib = b.apply(v)
    for w in set(ia) | set(ib):
        got = img.get(w, ctx.zero())
        want = ia.get(w, ctx.zero()) + ib.get(w, ctx.zero()) * ctx.q(1)
        assert got == want


def test_grading_operator_key(rep3):
    # k acts by q^j on (mu, j): one key (0, 0, 1, 0) with coefficient 1
    assert rep3.generator("k").terms == {(0, 0, 1, 0): rep3.ctx.one()}


# -- the Gram form ------------------------------------------------------------------
#
# Reference: the dense p x p routes the signature was once proved by, the trace
# recursion for the characteristic polynomial with root counting, and the
# congruence inertia, both exact over the rationals.


def gram_matrix(p: int):
    """G_jk = [j + k = 0 mod p] on the basis t^0 .. t^(p-1)."""
    return tuple(
        tuple(1 if (j + k) % p == 0 else 0 for k in range(p)) for j in range(p)
    )


def gram_char_poly(p: int):
    """Characteristic polynomial of the Gram matrix by the trace recursion,
    exact over the rationals; coefficients from x^p down to x^0."""
    M = [[Fraction(x) for x in row] for row in gram_matrix(p)]
    n = len(M)
    coeffs = [Fraction(1)]
    A = [row[:] for row in M]
    for k in range(1, n + 1):
        ck = -sum(A[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            A[i][i] += ck
        A = [
            [sum(M[i][t] * A[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return tuple(coeffs)


def _root_multiplicity(coeffs, root: Fraction):
    """Multiplicity of a rational root by repeated synthetic division."""
    coeffs = list(coeffs)
    mult = 0
    while len(coeffs) > 1:
        out = [coeffs[0]]
        for c in coeffs[1:]:
            out.append(c + root * out[-1])
        if out[-1] != 0:
            break
        coeffs = out[:-1]
        mult += 1
    return mult, coeffs


def _inertia(M):
    """Sylvester inertia of a symmetric rational matrix by congruence
    elimination with symmetric pivoting."""
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    pos = neg = zero = 0
    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if M[i][i] != 0), None)
        if pivot is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if M[i][j] != 0),
                None,
            )
            if off is None:
                zero += n - k
                break
            i, j = off
            # symmetric congruence: push the off-diagonal onto the diagonal
            for c in range(n):
                M[i][c] += M[j][c]
            for r in range(n):
                M[r][i] += M[r][j]
            pivot = i
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            for r in range(n):
                M[r][k], M[r][pivot] = M[r][pivot], M[r][k]
        d = M[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = M[i][k] / d
            if f:
                for c in range(k, n):
                    M[i][c] -= f * M[k][c]
        for j in range(k + 1, n):
            M[k][j] = Fraction(0)
            M[j][k] = Fraction(0)
        k += 1
    return pos, neg, zero


def _char_poly_signature(p: int):
    coeffs = gram_char_poly(p)
    m_plus, rest = _root_multiplicity(coeffs, Fraction(1))
    m_minus, rest = _root_multiplicity(rest, Fraction(-1))
    m_zero, rest = _root_multiplicity(rest, Fraction(0))
    assert len(rest) == 1, "Gram spectrum is not supported on {1, -1, 0}"
    return m_plus, m_minus, m_zero


def test_gram_matrix_shape(ctx):
    p = ctx.p
    G = gram_matrix(p)
    assert all(G[j][k] == G[k][j] for j in range(p) for k in range(p))
    # G is an involution: the squared matrix is the identity
    sq = [
        [sum(G[i][t] * G[t][j] for t in range(p)) for j in range(p)]
        for i in range(p)
    ]
    assert all(sq[i][j] == (1 if i == j else 0) for i in range(p) for j in range(p))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gram_signature(p):
    sig = gram_signature(p)
    got = (sig.n_plus, sig.n_minus, sig.n_zero)
    assert got == ((p + 1) // 2, (p - 1) // 2, 0)
    assert got == _char_poly_signature(p)
    assert got == _inertia(gram_matrix(p))
    assert gram_signature(FieldContext(p)) == sig


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4])
def test_gram_signature_rejects_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        gram_signature(p)


def test_gram_char_poly_pinned():
    # p=3: (x-1)^2 (x+1) = x^3 - x^2 - x + 1
    assert gram_char_poly(3) == (1, -1, -1, 1)


def test_inertia_helper():
    assert _inertia([[2, 0, 0], [0, -3, 0], [0, 0, 0]]) == (1, 1, 1)
    # zero diagonal, handled by the congruence push
    assert _inertia([[0, 1], [1, 0]]) == (1, 1, 0)


# Reference: the mechanical adjoint.  A monomial's action is a word of atoms;
# its adjoint reverses the word, conjugates the scalars, flips the derivative
# sign and conjugates each cyclic atom through the Gram matrix as p x p
# matrices, A -> G^-1 conj(A)^T G.


def _gram_conjugate(ctx, N):
    p = ctx.p
    return [
        [N[(-j) % p][(-i) % p].conjugate() for j in range(p)] for i in range(p)
    ]


def _tshift_matrix(ctx, tau: int):
    p = ctx.p
    one, zero = ctx.one(), ctx.zero()
    return [[one if i == (j + tau) % p else zero for j in range(p)] for i in range(p)]


def _tdiag_matrix(ctx, e: int):
    p = ctx.p
    zero = ctx.zero()
    return [[ctx.q(e * j) if i == j else zero for j in range(p)] for i in range(p)]


def _apply_t_matrix(ctx, M, state):
    """state: {(mu, j): coeff} -> matrix acting on the cyclic index."""
    p = ctx.p
    out = {}
    for (mu, j), c in state.items():
        for i in range(p):
            v = M[i][j]
            if v:
                _accumulate(out, (mu, i), c * v)
    return out


def _monomial_word(rep, mono):
    """The atomic word of one monomial action, in application order."""
    n, m, k, t, s, l = mono
    ctx = rep.ctx
    p = ctx.p
    word = []
    if l:
        word.append(("scalar", (ctx.i() * Fraction(rep.h)) ** l))
        word.append(("ddx", l))
    if s:
        word.append(("scalar", ctx.from_fraction(Fraction(-ctx.r) ** s)))
        word.append(("xshift", Fraction(-s)))
    if t:
        word.append(("scalar", ctx.from_fraction(Fraction(-ctx.r) ** t)))
        word.append(("xshift", Fraction(t)))
    if k:
        word.append(("tdiag", k % p))
    if m:
        word.append(("scalar", (-ctx.c_hat(1)) ** m))
        word.append(("xshift", Fraction(-m, p)))
        word.append(("tshift", (-m) % p))
    if n:
        word.append(("scalar", (-ctx.c_hat(1)) ** n))
        word.append(("xshift", Fraction(n, p)))
        word.append(("tshift", n % p))
    return word


def _apply_adjoint_word(rep, word, v):
    ctx = rep.ctx
    state = {(v.mu, v.j): ctx.one()}
    for kind, arg in reversed(word):
        if kind == "scalar":
            state = {key: c * arg.conjugate() for key, c in state.items()}
        elif kind == "ddx":
            out = {}
            for (mu, j), c in state.items():
                val = c * ((-mu) ** arg)
                if val:
                    out[(mu, j)] = val
            state = out
        elif kind == "xshift":
            state = {(mu + arg, j): c for (mu, j), c in state.items()}
        elif kind == "tshift":
            M = _gram_conjugate(ctx, _tshift_matrix(ctx, arg))
            state = _apply_t_matrix(ctx, M, state)
        elif kind == "tdiag":
            M = _gram_conjugate(ctx, _tdiag_matrix(ctx, arg))
            state = _apply_t_matrix(ctx, M, state)
        else:
            raise ValueError(kind)
    return {BasisVector(mu, j): c for (mu, j), c in state.items()}


def test_adjoint_matches_word_gram_route(ctx):
    # the key map of the star against the mechanical adjoint, on the suite's
    # monomials and 3p probe vectors
    rep = PiRepresentation(ctx)
    p = ctx.p
    probe_vectors = [rep.vector(Fraction(b, p), j) for b in (-1, 0, 2) for j in range(p)]
    for mono in _ADJOINT_MONOS:
        adj = rep.operator(rep.ualg.monomial(*mono)).adjoint()
        word = _monomial_word(rep, mono)
        for v in probe_vectors:
            assert _apply_adjoint_word(rep, word, v) == adj.apply(v), (mono, v)


def test_gram_conjugation_fixes_the_cyclic_atoms(ctx):
    # G^-1 A^+ G = A for the shift and the diagonal: the key map needs no matrix
    for a in range(ctx.p):
        for M in (_tshift_matrix(ctx, a), _tdiag_matrix(ctx, a)):
            assert _gram_conjugate(ctx, M) == M


# -- sectors and irreducibility -----------------------------------------------------


def _mutant(ctx, name, terms):
    """A representation whose generator `name` is replaced by terms(old terms)."""
    rep = PiRepresentation(ctx)
    rep._gen_ops[name] = PiOperator(rep.pialg, terms(rep.generator(name).terms))
    return rep


def test_sector_certificate(ctx):
    rep = PiRepresentation(ctx)
    rng = random.Random(ctx.p)
    ops = [rep.operator(random_u_element(rep.ualg, rng, degree=3)) for _ in range(4)]
    assert sector_certificate(rep, ops) == (True, True)
    assert sectors_inequivalent(rep)
    off = PiOperator(rep.pialg, {(Fraction(1, ctx.p), 2, 0, 0): ctx.one()})
    assert sector_certificate(rep, [*ops, off]) == (False, True)


@pytest.mark.parametrize("name", GEN_NAMES)
def test_sector_certificate_rejects_shifted_tau(ctx3, name):
    rep = _mutant(ctx3, name, lambda t: {(s, (tau + 1) % 3, e, d): c for (s, tau, e, d), c in t.items()})
    assert not sector_certificate(rep)[0]


def test_sector_certificate_rejects_zero_raising(ctx3):
    rep = _mutant(ctx3, "p+", lambda t: {})
    assert sector_certificate(rep) == (True, False)


def test_sector_certificate_rejects_constant_boost(ctx3):
    # H without its mu factor (d = 0) acts by a constant: no distinct eigenvalues
    rep = _mutant(ctx3, "H", lambda t: {(s, tau, e, 0): c for (s, tau, e, d), c in t.items()})
    assert sector_certificate(rep) == (True, False)


def test_sectors_inequivalent_rejects_trivial_grading(ctx3):
    # k on the key (0, 0, 0, 0) acts as the identity and no longer tells j mod p
    rep = _mutant(ctx3, "k", lambda t: {(Fraction(0), 0, 0, 0): c for c in t.values()})
    assert not sectors_inequivalent(rep)
    assert sector_certificate(rep) == (True, True)


def test_suite_fails_zero_raising_at_one_vector(ctx3, monkeypatch):
    # the certificate holds for all b, so even a one-vector root window catches it
    real = PiRepresentation.generator

    def generator(self, name):
        return self.pialg.zero() if name == "p+" else real(self, name)

    monkeypatch.setattr(PiRepresentation, "generator", generator)
    report = representation_suite(ctx3, chain_length=1, samples=0)
    assert "irreducible_per_sector" in {label for label, _ in report.failures()}


# -- corepresentation terms ----------------------------------------------------------


def test_corep_term_unit(rep3):
    v = rep3.vector(0, 0)
    term = rep3.corep_term((0, 0, 0, 0, 0, 0), v)
    assert term.vector == v
    assert term.scalar == rep3.ctx.one()
    assert term.a_coeff == rep3.duality.aalg.zeta_projector(0)


def test_corep_term_grading(rep3):
    ctx = rep3.ctx
    for j in range(3):
        term = rep3.corep_term((0, 0, 1, 0, 0, 0), rep3.vector(0, j))
        assert term.vector == rep3.vector(0, j)
        assert term.scalar == ctx.q(j)
        assert term.a_coeff == rep3.duality.aalg.zeta_projector(1)


def test_corep_term_raising(rep3):
    ctx = rep3.ctx
    dual = rep3.duality
    term = rep3.corep_term((1, 0, 0, 0, 0, 0), rep3.vector(0, 0))
    assert term.vector == rep3.vector(Fraction(1, 3), 1)
    assert term.scalar == -ctx.c_hat(1)
    qs = ctx.sqrt_q(1) * Fraction(dual.convention.sqrt_q_sign)
    expect = (dual.aalg.eta_plus() * dual.aalg.zeta_projector(1)) * (ctx.i() * qs).invert()
    assert term.a_coeff == expect


def test_corep_grouplike_reassembly(rep3):
    aal = rep3.duality.aalg
    for j in range(3):
        v = rep3.vector(0, j)
        acc = aal.zero()
        for k in range(3):
            term = rep3.corep_term((0, 0, k, 0, 0, 0), v)
            assert term.vector == v
            acc = acc + term.a_coeff * term.scalar
        assert acc == aal.delta(j)


def test_corep_term_validation(rep3):
    with pytest.raises(ValueError):
        rep3.corep_term((3, 0, 0, 0, 0, 0), rep3.vector(0, 0))
    with pytest.raises(ValueError):
        rep3.corep_term((0, 0, 0, -1, 0, 0), rep3.vector(0, 0))


# -- suite ------------------------------------------------------------------------------


def test_representation_suite(ctx3):
    rep = representation_suite(ctx3)
    assert rep.passed, rep.summary()
    assert rep.measurements["h"] == 1


def test_representation_suite_nonunit_r(ctx3):
    rep = representation_suite(FieldContext(3, r=Fraction(2)))
    assert rep.passed, rep.summary()


def test_operator_rejects_function_side_elements(rep3, ctx3):
    x = AAlgebra(ctx3).eta_plus()
    with pytest.raises(TypeError):
        rep3.operator(x)


def test_operator_context_checks():
    a = PiRepresentation(FieldContext(3))
    b = PiRepresentation(FieldContext(3))
    other = PiRepresentation(FieldContext(5))
    assert a.generator("k") == b.generator("k")
    with pytest.raises(TypeError):
        a.generator("p+") + other.generator("p+")
    with pytest.raises(TypeError):
        a.generator("p+").compose(other.generator("p+"))


def test_operator_prints_its_terms(rep3):
    assert str(rep3.generator("p+")) == "-c * shift(mu+1/3, j+1) q^(0j) mu^0"
    assert repr(rep3.generator("H")) == "i * shift(mu+0, j+0) q^(0j) mu^1"
    assert str(rep3.operator(rep3.ualg.zero())) == "0"


# -- reference: the nested-dict calculus the sparse operator replaced ----------
#
# Terms are {(sigma, tau, e): {d: coeff}}, built, composed, adjoined and
# applied exactly as the calculus did before it moved onto fsusy.sparse.


def _ref_clean(terms):
    out = {}
    for key, poly in terms.items():
        poly = {d: c for d, c in poly.items() if c}
        if poly:
            out[key] = poly
    return out


def _ref_add(a, b):
    out = {k: dict(poly) for k, poly in a.items()}
    for key, poly in b.items():
        tgt = out.setdefault(key, {})
        for d, c in poly.items():
            acc = tgt.get(d)
            tgt[d] = c if acc is None else acc + c
    return _ref_clean(out)


def _ref_operator(rep, x):
    ctx = rep.ctx
    p = ctx.p
    acc = {}
    for (n, m, k, t, s, l), c in x.terms.items():
        sig = Fraction(n - m, p) + t - s
        coeff = c * ctx.c_hat(n + m) * (ctx.i() ** l)
        scale = Fraction(ctx.r) ** (t + s)
        if (n + m + t + s) % 2:
            scale = -scale
        if rep.h < 0 and l % 2:
            scale = -scale
        acc = _ref_add(acc, {(sig, (n - m) % p, k % p): {l: coeff * scale}})
    return acc


def _ref_compose(ctx, a, b):
    p = ctx.p
    out = {}
    for (s1, t1, e1), p1 in a.items():
        for (s2, t2, e2), p2 in b.items():
            key = (s1 + s2, (t1 + t2) % p, (e1 + e2) % p)
            tgt = out.setdefault(key, {})
            phase = ctx.q(e1 * t2)
            for d1, c1 in p1.items():
                for d2, c2 in p2.items():
                    base = c1 * c2 * phase
                    for a_ in range(d1 + 1):
                        coeff = base * (Fraction(math.comb(d1, a_)) * s2 ** (d1 - a_))
                        if not coeff:
                            continue
                        d = d2 + a_
                        acc = tgt.get(d)
                        tgt[d] = coeff if acc is None else acc + coeff
    return _ref_clean(out)


def _ref_adjoint(ctx, a):
    out = {}
    for (sig, tau, e), poly in a.items():
        phase = ctx.q(e * tau)
        tgt = out.setdefault((sig, tau, e), {})
        for d, c in poly.items():
            base = c.conjugate() * phase
            if d % 2:
                base = -base
            for a_ in range(d + 1):
                coeff = base * (Fraction(math.comb(d, a_)) * sig ** (d - a_))
                if not coeff:
                    continue
                acc = tgt.get(a_)
                tgt[a_] = coeff if acc is None else acc + coeff
    return _ref_clean(out)


def _ref_apply(ctx, a, v):
    p = ctx.p
    out = {}
    for (sig, tau, e), poly in a.items():
        val = ctx.zero()
        for d, c in poly.items():
            val = val + c * (v.mu ** d)
        if e:
            val = val * ctx.q(e * v.j)
        if not val:
            continue
        w = BasisVector(v.mu + sig, (v.j + tau) % p)
        acc = out.get(w)
        total = val if acc is None else acc + val
        if total:
            out[w] = total
        elif acc is not None:
            del out[w]
    return out


def _ref_flat(a):
    return {(sig, tau, e, d): c for (sig, tau, e), poly in a.items() for d, c in poly.items()}


@pytest.mark.parametrize("h", [1, -1])
def test_calculus_matches_nested_dict_reference(ctx, h):
    p = ctx.p
    rep = PiRepresentation(ctx, h=h)
    ual = rep.ualg
    rng = random.Random(100 * p + h)

    def sample():
        # a random element plus one term with every classical slot in use
        coeff = ctx.zeta(rng.randrange(4 * p)) * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        tail = ual.monomial(
            n=rng.randrange(p), m=rng.randrange(p), k=rng.randrange(p),
            t=rng.randint(1, 2), s=rng.randint(1, 2), l=rng.randint(1, 3), coeff=coeff,
        )
        return random_u_element(ual, rng, degree=4) + tail

    vectors = [rep.vector(Fraction(b, p), j) for b in (-2, 0, 1, p + 1) for j in range(p)]
    for _ in range(4):
        x, y = sample(), sample()
        ox, oy = rep.operator(x), rep.operator(y)
        rx, ry = _ref_operator(rep, x), _ref_operator(rep, y)
        assert ox.terms == _ref_flat(rx)
        assert ox.compose(oy).terms == _ref_flat(_ref_compose(ctx, rx, ry))
        assert (ox * oy).terms == _ref_flat(_ref_compose(ctx, rx, ry))
        assert ox.adjoint().terms == _ref_flat(_ref_adjoint(ctx, rx))
        for v in vectors:
            assert ox.apply(v) == _ref_apply(ctx, rx, v)
            assert oy.adjoint().apply(v) == _ref_apply(ctx, _ref_adjoint(ctx, ry), v)
