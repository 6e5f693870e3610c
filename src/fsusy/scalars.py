"""Exact scalar arithmetic for the root-of-unity engine.

Scalars live in the ring  Q(zeta)[c]/(c^p - r) (x) Q[s, 1/s],  where zeta is
a primitive 4p-th root of unity (p an odd prime), r is a nonzero rational,
c is a formal p-th root of r, and s is a formal square root of pi.  Inside
Q(zeta) sit the constants everything downstream needs:

    q   = zeta^4            a primitive p-th root of unity
    i   = zeta^p            the imaginary unit
    q^(1/2) = q^((p+1)/2)   the canonical square root of q

Elements are stored as dicts mapping (c_power, sqrtpi_power) to coefficient
vectors over the power basis 1, x, ..., x^(2(p-1)-1) of Q(zeta), with x
standing for zeta and arithmetic done modulo the 4p-th cyclotomic
polynomial.  Each vector is a pair (tuple of int numerators, int
denominator) in lowest terms: the denominator is positive and shares no
factor with all the numerators, so equal scalars have equal dicts.  The
cyclotomic polynomial is monic and integral, so the reduction and
automorphism tables are integer tables, and arithmetic works on integer
numerators with one gcd per stored vector.  fractions.Fraction appears
only at the boundaries: factories taking rationals, scaling by a
rational, as_fraction, evaluate, and the canonical and pretty forms,
which format each coefficient as Fraction(numerator, denominator).
Nothing in this module ever rounds.

Inversion is supported for any element that is a single power of sqrt(pi)
times a unit of Q(zeta)[c]/(c^p - r).  Both steps are norm tricks: the
c-automorphisms c -> q^k c carry the element down to Q(zeta), and the
Galois automorphisms zeta -> zeta^k carry that down to Q.  When r is a
p-th power in Q the c extension is not a domain and honest zero divisors
exist; attempting to invert one raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath as mp

_ZERO = Fraction(0)


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


# -- cyclotomic polynomials --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree
    first.

    Built the slow honest way: divide x^n - 1 by every lower-order
    cyclotomic whose order divides n.  Every divisor is monic and integral,
    so the long division never leaves the integers.
    """
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            k = len(den) - 1
            quot = [0] * (len(num) - k)
            for j in range(len(quot) - 1, -1, -1):
                c = quot[j] = num[j + k]
                if c:
                    for i, di in enumerate(den):
                        num[j + i] -= c * di
            if any(num):
                raise ArithmeticError(f"cyclotomic tower broke at {n}/{d}")
            num = quot
    return tuple(num)


# -- integer vectors over a common denominator --------------------------------

def _normal(vec, den):
    """(vec, den) in lowest terms as a (tuple, positive int) pair, or None
    for the zero vector.  den must already be positive."""
    if not any(vec):
        return None
    g = gcd(den, *vec)
    if g == 1:
        return tuple(vec), den
    return tuple(x // g for x in vec), den // g


def _vsum(u, du, v, dv):
    """u/du + v/dv over the least common denominator, not reduced."""
    if du == dv:
        return [a + b for a, b in zip(u, v)], du
    g = gcd(du, dv)
    mu, mv = dv // g, du // g
    return [a * mu + b * mv for a, b in zip(u, v)], du * mu


class FieldScalar:
    """One element of the scalar ring.  Immutable; arithmetic returns new
    objects.  Do not construct directly, use the FieldContext factories."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        # {(c_pow, sqrtpi_pow): (int numerator tuple, int denominator)},
        # each pair in lowest terms with a positive denominator; no zero vectors
        self.terms = terms

    # -- ring structure --

    def __add__(self, other):
        ctx = self.ctx
        if not isinstance(other, FieldScalar) or other.ctx is not ctx:
            ctx._check(other)
        out = dict(self.terms)
        for key, pair in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = pair
            else:
                merged = _normal(*_vsum(*cur, *pair))
                if merged is None:
                    del out[key]
                else:
                    out[key] = merged
        return FieldScalar(ctx, out)

    def __neg__(self):
        return FieldScalar(
            self.ctx, {k: (tuple(-x for x in v), d) for k, (v, d) in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        if not isinstance(other, FieldScalar):
            if not isinstance(other, (int, Fraction)):
                # lets an algebra element take the product in its __rmul__
                return NotImplemented
            fn, fd = other.numerator, other.denominator
            if not fn:
                return ctx._zero
            return FieldScalar(
                ctx,
                {k: _normal([x * fn for x in v], d * fd) for k, (v, d) in self.terms.items()},
            )
        if other.ctx is not ctx:
            ctx._check(other)
        if other is ctx._one:
            return self
        if self is ctx._one:
            return other
        p = ctx.p
        rn, rd = ctx._r_num, ctx._r_den
        vmul = ctx._vmul
        out = {}
        for (c1, s1), (u, du) in self.terms.items():
            for (c2, s2), (v, dv) in other.terms.items():
                vec = vmul(u, v)
                den = du * dv
                cpow = c1 + c2
                if cpow >= p:  # fold c^p = r back into the rationals
                    cpow -= p
                    if rn != 1:
                        vec = [rn * x for x in vec]
                    den *= rd
                key = (cpow, s1 + s2)
                cur = out.get(key)
                out[key] = (vec, den) if cur is None else _vsum(*cur, vec, den)
        terms = {}
        for key, (vec, den) in out.items():
            got = _normal(vec, den)
            if got is not None:
                terms[key] = got
        return FieldScalar(ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        acc = self.ctx.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.invert()

    def __eq__(self, other):
        if isinstance(other, int):  # only 0 and 1 make sense unlifted
            other = self.ctx.from_fraction(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.ctx.key == other.ctx.key and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- star structure and valuation helpers --

    def conjugate(self):
        """The * involution: zeta -> zeta^(-1) (so q -> 1/q, i -> -i),
        while c and sqrt(pi) are fixed."""
        ctx = self.ctx
        return FieldScalar(
            ctx, {k: _normal(ctx._vauto(v, -1), d) for k, (v, d) in self.terms.items()}
        )

    def invert(self):
        ctx = self.ctx
        if not self.terms:
            raise ZeroDivisionError("inverting zero")
        spows = {k[1] for k in self.terms}
        if len(spows) != 1:
            raise ZeroDivisionError("mixed sqrt(pi) powers are not invertible")
        spow = spows.pop()
        body = FieldScalar(ctx, {(c, 0): v for (c, _), v in self.terms.items()})
        cpows = {k[0] for k in body.terms}
        if cpows == {0}:
            return FieldScalar(ctx, {(0, -spow): ctx._vinv(*body.terms[(0, 0)])})
        # norm trick over the automorphisms c -> q^k c, which fix Q(zeta)
        cof = ctx.one()
        for k in range(1, ctx.p):
            twisted = {}
            for (c, _), (v, dv) in body.terms.items():
                qe = ctx._zeta_pow[(4 * k * c) % (4 * ctx.p)]
                got = _normal(ctx._vmul(v, qe), dv)
                if got is not None:
                    twisted[(c, 0)] = got
            cof = cof * FieldScalar(ctx, twisted)
        norm = body * cof
        bad = [k for k in norm.terms if k[0] != 0]
        if bad:
            raise ArithmeticError("norm failed to land in Q(zeta)")
        if not norm.terms:
            raise ZeroDivisionError("zero divisor in the c extension")
        out = cof * FieldScalar(ctx, {(0, 0): ctx._vinv(*norm.terms[(0, 0)])})
        return FieldScalar(ctx, {(c, s - spow): v for (c, s), v in out.terms.items()})

    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if set(self.terms) != {(0, 0)}:
            return False
        vec, _ = self.terms[(0, 0)]
        return not any(vec[1:])

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        vec, den = self.terms[(0, 0)]
        return Fraction(vec[0], den)

    # -- numerical embedding --

    def evaluate(self, prec: int = 128) -> mp.mpc:
        """Embed into C at working precision prec (bits): zeta -> exp(i pi/2p),
        c -> the real p-th root of r, sqrt(pi) -> sqrt(pi)."""
        ctx = self.ctx
        with mp.workprec(prec + 16):
            zeta = mp.expjpi(mp.mpf(1) / (2 * ctx.p))
            rnum = mp.mpf(ctx.r.numerator) / ctx.r.denominator
            croot = mp.sign(rnum) * mp.root(abs(rnum), ctx.p)
            spi = mp.sqrt(mp.pi)
            total = mp.mpc(0)
            for (cpow, spow), (vec, den) in self.terms.items():
                acc = mp.mpc(0)
                for j in range(ctx.deg - 1, -1, -1):
                    acc = acc * zeta
                    if vec[j]:
                        cj = Fraction(vec[j], den)
                        acc += mp.mpf(cj.numerator) / cj.denominator
                total += acc * croot ** cpow * spi ** spow
            result = +total
        return result

    # -- canonical form --

    def _rows(self):
        """(c_pow, sqrtpi_pow, coefficient Fractions), sorted by key."""
        for key in sorted(self.terms):
            vec, den = self.terms[key]
            yield key[0], key[1], [Fraction(x, den) for x in vec]

    def canonical(self):
        """JSON-ready deterministic form: sorted list of
        [c_pow, sqrtpi_pow, ["num/den", ...]] rows."""
        return [
            [cpow, spow, [f"{c.numerator}/{c.denominator}" for c in vec]]
            for cpow, spow, vec in self._rows()
        ]

    def canonical_string(self) -> str:
        """Deterministic compact text form, stable across dict orderings."""
        if self.is_zero():
            return "0"
        return ";".join(
            f"c{cpow}s{spow}:" + ",".join(str(c) for c in vec)
            for cpow, spow, vec in self._rows()
        )

    def pretty(self) -> str:
        """Readable form.  Every unit in the cyclotomic root group is a power
        of q up to a factor of i and a sign, so most coefficients that occur
        in practice print as things like 'q^2', '-i*q', '1/2'; single terms
        in the root-scale and sqrt-pi sectors carry 'c' and 'sqrtpi' markers.
        Anything richer falls back to the canonical string."""
        if self.is_zero():
            return "0"
        if self.is_rational():
            return str(self.as_fraction())
        if len(self.terms) == 1:
            ctx = self.ctx
            ((cpow, spow), vec), = self.terms.items()
            base = FieldScalar(ctx, {(0, 0): vec})
            marks = [
                m
                for m in (
                    "" if not cpow else ("c" if cpow == 1 else f"c^{cpow}"),
                    "" if not spow else ("sqrtpi" if spow == 1 else f"sqrtpi^{spow}"),
                )
                if m
            ]
            for imag in (False, True):
                probe = base * ctx.zeta(-ctx.p) if imag else base
                for mpow in range(ctx.p):
                    t = probe * ctx.q(-mpow)
                    if t.is_rational():
                        c = t.as_fraction()
                        qpart = "" if mpow == 0 else ("q" if mpow == 1 else f"q^{mpow}")
                        parts = [x for x in ("i" if imag else "", qpart, *marks) if x]
                        if not parts:
                            return str(c)
                        head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                        return head + "*".join(parts)
        return self.canonical_string()

    def __str__(self):
        return self.pretty()

    __repr__ = __str__


class FieldContext:
    """Shared arithmetic state for one (p, r).  Builds the cyclotomic
    reduction tables once and hands out scalars."""

    def __init__(self, p: int, r=1):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.r = Fraction(r)
        if self.r == 0:
            raise ValueError("r must be nonzero")
        self._r_num, self._r_den = self.r.numerator, self.r.denominator
        self.key = (p, self.r)
        phi = cyclotomic(4 * p)
        self.deg = len(phi) - 1
        assert self.deg == 2 * (p - 1)
        self.phi = phi
        d = self.deg
        # x^j mod phi for j in [0, 4p); phi is monic, so these are integral
        base = [-c for c in phi[:d]]
        zp = []
        vec = [0] * d
        vec[0] = 1
        for _ in range(4 * p):
            zp.append(tuple(vec))
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                vec = [a + top * b for a, b in zip(vec, base)]
        self._zeta_pow = zp  # zeta^j as dense integer vectors
        # zeta^j again as sparse (t, c) rows: rows d..2d-2 fold products back
        # down, and row k*t mod 4p is the image of x^t under zeta -> zeta^k
        self._zeta_sparse = [tuple((t, c) for t, c in enumerate(v) if c) for v in zp]
        self._zero = FieldScalar(self, {})
        self._zeta_scalar = tuple(
            FieldScalar(self, {(0, 0): (self._zeta_pow[j], 1)}) for j in range(4 * p)
        )
        self._one = self.zeta(0)
        self._qint_cache = {}
        self._qfact_cache = {0: self._one}

    def _check(self, other):
        if not isinstance(other, FieldScalar) or other.ctx.key != self.key:
            raise TypeError("scalar from a different field context")

    # -- base-field vector ops, on integer numerator vectors --

    def _vmul(self, u, v):
        """u*v mod phi as an integer list."""
        d = self.deg
        acc = [0] * (2 * d - 1)
        vnz = [(b, vb) for b, vb in enumerate(v) if vb]
        for a, ua in enumerate(u):
            if ua:
                for b, vb in vnz:
                    acc[a + b] += ua * vb
        rows = self._zeta_sparse
        for j in range(d, 2 * d - 1):
            cj = acc[j]
            if cj:
                for t, c in rows[j]:
                    acc[t] += cj * c
        del acc[d:]
        return acc

    def _vauto(self, u, k):
        """The automorphism zeta -> zeta^k of Q(zeta) applied to u."""
        acc = [0] * self.deg
        rows, n = self._zeta_sparse, 4 * self.p
        for t, ut in enumerate(u):
            if ut:
                for j, c in rows[k * t % n]:
                    acc[j] += ut * c
        return acc

    def _vinv(self, u, du):
        """Inverse of u/du in Q(zeta), reduced: du times the product of the
        other Galois conjugates of u, over the norm of u, which is rational."""
        cof = None
        for k in range(3, 4 * self.p, 2):  # the units of Z/4p other than 1
            if k % self.p:
                conj = self._vauto(u, k)
                cof = conj if cof is None else self._vmul(cof, conj)
        norm = self._vmul(u, cof)
        if not any(norm):
            raise ZeroDivisionError("inverting zero in Q(zeta)")
        if any(norm[1:]):
            raise ArithmeticError("norm failed to land in Q")
        n = norm[0]
        if n < 0:
            n, du = -n, -du
        return _normal([x * du for x in cof], n)

    def _rational_vec(self, a):
        """The nonzero Fraction a as a stored coefficient vector."""
        return (a.numerator,) + (0,) * (self.deg - 1), a.denominator

    # -- scalar factories --

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, a):
        a = Fraction(a)
        if a == 0:
            return self._zero
        if a == 1:  # the unit object, which the products pass through
            return self._one
        return FieldScalar(self, {(0, 0): self._rational_vec(a)})

    def zeta(self, j: int = 1):
        return self._zeta_scalar[j % (4 * self.p)]

    def q(self, n: int = 1):
        """q^n with q = zeta^4."""
        return self.zeta(4 * n)

    def i(self):
        return self.zeta(self.p)

    def sqrt_q(self, n: int = 1):
        """The canonical square root q^((p+1)/2), raised to the n-th power."""
        return self.q(n * (self.p + 1) // 2)

    def c_hat(self, n: int = 1):
        """c^n, with c^p = r folded down so the stored power sits in [0, p)."""
        fold, rem = divmod(n, self.p)
        return FieldScalar(self, {(rem, 0): self._rational_vec(self.r ** fold)})

    def sqrt_pi(self, n: int = 1):
        return FieldScalar(self, {(0, n): (self._zeta_pow[0], 1)})

    # -- q-combinatorics (all inside Q(zeta), cached) --

    def qint(self, n: int):
        """[n] = (q^n - q^-n)/(q - q^-1), expanded as a balanced power sum."""
        if n < 0:
            return -self.qint(-n)
        got = self._qint_cache.get(n)
        if got is None:
            got = self._zero
            for t in range(n):
                got = got + self.q(n - 1 - 2 * t)
            self._qint_cache[n] = got
        return got

    def qfact(self, n: int):
        got = self._qfact_cache.get(n)
        if got is None:
            got = self.qfact(n - 1) * self.qint(n)
            self._qfact_cache[n] = got
        return got

    def qbinom(self, n: int, j: int):
        """[n]!/([j]! [n-j]!) for 0 <= j <= n < p, the unit object at j = 0, n."""
        if j in (0, n):
            return self._one
        return self.qfact(n) / (self.qfact(j) * self.qfact(n - j))
