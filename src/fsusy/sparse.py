"""Sparse linear combinations of ordered monomials: the element and tensor
arithmetic shared by both sides of the dual pair (the Gaussian sector of
duality among them) and the weight-basis operator calculus of pirep.

An element stores {monomial: FieldScalar}, a tensor {(monomial, ...):
FieldScalar} with one monomial per leg; zero coefficients are never
stored.  The arithmetic here knows nothing about any one algebra.  Every
such fact comes from the algebra object an element carries:

    ctx, key, _check(other)        scalar context, identity, operand check
    UNIT                           the unit monomial
    _mono_mul(a, b)                {monomial: factor}, product of two monomials
    _legs_mul(ka, kb)              [(key, factor)], product of two tensor keys
    _cop_power_terms(slot, n)      [((a, b), c)]: Delta(x)^n of a twisted
    _anti_power(slot, n)           generator x, and S(x)^n, in closed form
    GEN_NAMES, GEN_SLOTS           generator tokens of slots 0..5 and back
    _parse_weight(name)            optional: claims a group-like weight token
    SHORT_MINUS                    a leading -1 prints as "- word" when true

SparseAlgebra states Delta(x)^n and S(x)^n for a primitive x and Delta(x)^n
for the group-like x of slot 2, and derives the coproduct of a monomial
(the slot powers multiplied in slot order), its antipode and star (one word
reversal that puts the group-like part g in front, as g^-1 or g, of the
image of the g-free part), its printed word and the grammar of parse, and
the index of a coproduct by the multidegrees of its legs, filling the caches
_gen_cop_pows, _cop_cache, _anti_cache, _star_cache (g-free parts included)
and _cop_indexes each algebra creates.  Only the
operations an element actually uses need to exist: the operator calculus
has no coproduct and brings its own star and printing.  Sums, negation
and products keep the class of their left operand, so an Element
subclass survives its own arithmetic.  In every Hopf-algebra monomial,
slots 0, 1, 3, 4 and 5 carry the exponents the counit and the degree
see; slot 2 and any slot past 5 are group-like.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .scalars import FieldScalar

# the multidegree (n, m, t, s) of a monomial of either side, in slots 0, 1,
# 3 and 4: the dual pairing of two monomials vanishes unless they agree there
_degree = operator.itemgetter(0, 1, 3, 4)


def check_operand(alg, other):
    """Raise TypeError unless other is an element or tensor of alg."""
    if not isinstance(other, (Element, Tensor)) or other.alg.key != alg.key:
        raise TypeError("element from a different algebra")


def _accumulate(out, key, v):
    """out[key] += v, keeping zero coefficients out of the dict."""
    cur = out.get(key)
    s = v if cur is None else cur + v
    if s:
        out[key] = s
    elif cur is not None:
        del out[key]


def _power(x, one, n: int):
    """x**n for n >= 0 by repeated right multiplication onto one."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    acc = one
    for _ in range(n):
        acc = acc * x
    return acc


def _counit_kills(mon) -> bool:
    return bool(mon[0] or mon[1] or mon[3] or mon[4] or mon[5])


class SparseAlgebra:
    """Factories shared by the algebras; subclasses set UNIT and ctx."""

    _check = check_operand

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {self.UNIT: self.ctx.one()})

    def tensor_zero(self, nlegs: int):
        return Tensor(self, nlegs, {})

    def tensor_one(self, nlegs: int):
        return Tensor(self, nlegs, {(self.UNIT,) * nlegs: self.ctx.one()})

    def tensor(self, *elements):
        """Outer product of elements into one tensor."""
        terms = {(): self.ctx.one()}
        for el in elements:
            nxt = {}
            for key, c in terms.items():
                for mon, f in el.terms.items():
                    v = c * f
                    if v:
                        nxt[key + (mon,)] = v
            terms = nxt
        return Tensor(self, len(elements), terms)

    def _slot_mono(self, slot: int, e: int):
        """The monomial x^e of the generator x of one slot."""
        return self.UNIT[:slot] + (e,) + self.UNIT[slot + 1 :]

    def _cop_power_terms(self, slot: int, n: int):
        """Delta(x)^n for the group-like x of slot 2 or a primitive x."""
        mono = self._slot_mono
        if slot == 2:
            return [((mono(2, n % self.ctx.p),) * 2, self.ctx._one)]
        c = self.ctx.from_fraction
        return [((mono(slot, n - j), mono(slot, j)), c(math.comb(n, j))) for j in range(n + 1)]

    def _anti_power(self, slot: int, n: int):
        """S(x)^n = (-1)^n x^n for a primitive x."""
        return Element(self, {self._slot_mono(slot, n): self.ctx.from_fraction((-1) ** n)})

    def _gen_cop_power(self, slot: int, n: int):
        """Delta(generator)^n, cached per (slot, n)."""
        got = self._gen_cop_pows.get((slot, n))
        if got is None:
            got = Tensor(self, 2, dict(self._cop_power_terms(slot, n)))
            self._gen_cop_pows[slot, n] = got
        return got

    def _coproduct_mono(self, mon):
        """Delta of one monomial: the slot powers multiplied in slot order."""
        got = self._cop_cache.get(mon)
        if got is None:
            got = self.tensor_one(2)
            for slot, e in enumerate(mon):
                if e:
                    got = got * self._gen_cop_power(slot, e)
            self._cop_cache[mon] = got
        return got

    def _cop_index(self, mon, legs: tuple) -> dict:
        """{degrees of the legs numbered in legs: [(key, coefficient)]} over
        the terms of Delta(mon), built once per (mon, legs)."""
        got = self._cop_indexes.get((mon, legs))
        if got is None:
            got = {}
            for key, c in self._coproduct_mono(mon).terms.items():
                got.setdefault(tuple(_degree(key[i]) for i in legs), []).append((key, c))
            self._cop_indexes[(mon, legs)] = got
        return got

    def _reversed(self, mon, cache, image, sign: int):
        """mon under the word reversal sending a power e of slot 0, 1, 3-5 to
        image(slot, e) and g to g**sign in front: g commutes with slots 3-5."""
        got = cache.get(mon)
        if got is None:
            free = mon[:2] + (0,) + mon[3:6] + (0,) * len(mon[6:])
            if free == mon:
                got = self.one()
                for slot in (5, 4, 3, 1, 0):
                    if mon[slot]:
                        got = got * image(slot, mon[slot])
            else:
                g = (0, 0, sign * mon[2] % self.ctx.p, 0, 0, 0) + tuple(sign * w for w in mon[6:])
                got = Element(self, {g: self.ctx._one}) * self._reversed(free, cache, image, sign)
            cache[mon] = got
        return got

    def _antipode_mono(self, mon):
        return self._reversed(mon, self._anti_cache, self._anti_power, -1)

    def _star_mono(self, mon):
        got = self._star_cache.get(mon)
        return got if got is not None else self._reversed(mon, self._star_cache, self._star_power, 1)

    def _star_power(self, slot, e):  # every generator and weight is *-fixed
        return Element(self, {self._slot_mono(slot, e): self.ctx._one})

    def _format_mono(self, mon) -> str:
        parts = []
        for name, e in zip(self.GEN_NAMES, mon):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    def _parse_weight(self, name: str):
        """A map from an exponent to the weight element the token names, or
        None if the token is not a weight."""
        return None


class Element:
    """Linear combination of ordered monomials with field coefficients."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def __add__(self, other):
        self.alg._check(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            _accumulate(out, mon, c)
        return type(self)(self.alg, out)

    def __neg__(self):
        return type(self)(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        alg = self.alg
        if isinstance(other, (int, Fraction)):
            other = alg.ctx.from_fraction(other)
        if isinstance(other, FieldScalar):
            return type(self)(alg, {m: v for m, c in self.terms.items() if (v := c * other)})
        alg._check(other)
        mono_mul = alg._mono_mul
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                prod = mono_mul(ma, mb)
                if not prod:
                    continue
                base = ca * cb
                for mon, f in prod.items():
                    _accumulate(out, mon, base * f)
        return type(self)(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldScalar)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, self.alg.one(), n)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.alg.key == other.alg.key and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total exponent weight of the non-group-like slots."""
        return max((m[0] + m[1] + m[3] + m[4] + m[5] for m in self.terms), default=0)

    # -- Hopf maps --

    def coproduct(self):
        alg = self.alg
        one = alg.ctx._one
        if len(self.terms) == 1:
            ((mon, c),) = self.terms.items()
            cop = alg._coproduct_mono(mon)
            return cop if c is one else cop * c
        out = {}
        for mon, c in self.terms.items():
            scale = c is not one
            for key, f in alg._coproduct_mono(mon).terms.items():
                _accumulate(out, key, f * c if scale else f)
        return Tensor(alg, 2, out)

    def counit(self) -> FieldScalar:
        acc = self.alg.ctx.zero()
        for mon, c in self.terms.items():
            if not _counit_kills(mon):
                acc = acc + c
        return acc

    def antipode(self):
        alg = self.alg
        if len(self.terms) == 1:
            ((mon, c),) = self.terms.items()
            img = alg._antipode_mono(mon)
            return img if c is alg.ctx._one else img * c
        out = alg.zero()
        for mon, c in self.terms.items():
            out = out + alg._antipode_mono(mon) * c
        return out

    def star(self):
        alg = self.alg
        out = alg.zero()
        for mon, c in self.terms.items():
            out = out + alg._star_mono(mon) * c.conjugate()
        return out

    # -- presentation --

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.alg
        parts = []
        for mon in sorted(self.terms):
            word = alg._format_mono(mon)
            cs = self.terms[mon].pretty()
            if word == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(word)
            elif cs == "-1" and not parts and alg.SHORT_MINUS:
                parts.append(f"- {word}")
            else:
                parts.append(f"{cs} * {word}")
        return " + ".join(parts)

    __repr__ = __str__


class Tensor:
    """Element of a tensor power of an algebra; keys are monomial tuples."""

    __slots__ = ("alg", "nlegs", "terms")

    def __init__(self, alg, nlegs, terms):
        self.alg = alg
        self.nlegs = nlegs
        self.terms = terms

    def _check(self, other):
        self.alg._check(other)
        if not isinstance(other, Tensor) or other.nlegs != self.nlegs:
            raise ValueError("tensors with different numbers of legs")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return Tensor(self.alg, self.nlegs, out)

    def __sub__(self, other):
        return self + other * self.alg.ctx.from_fraction(-1)

    def __mul__(self, other):
        alg = self.alg
        if isinstance(other, (int, Fraction)):
            other = alg.ctx.from_fraction(other)
        if isinstance(other, FieldScalar):
            return Tensor(
                alg, self.nlegs, {k: v for k, c in self.terms.items() if (v := c * other)}
            )
        self._check(other)
        legs_mul = alg._legs_mul
        one = alg.ctx._one
        out = {}
        # the hottest loop of the exact suites: the accumulation is inlined
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                prod = legs_mul(ka, kb)
                if not prod:
                    continue
                base = ca * cb
                for key, f in prod:
                    sc = base if f is one else base * f
                    if not sc:
                        continue
                    cur = out.get(key)
                    s = sc if cur is None else cur + sc
                    if s:
                        out[key] = s
                    elif cur is not None:
                        del out[key]
        return Tensor(alg, self.nlegs, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, self.alg.tensor_one(self.nlegs), n)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.alg.key == other.alg.key
            and self.nlegs == other.nlegs
            and self.terms == other.terms
        )

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def apply_coproduct(self, leg: int):
        """Replace one leg by its coproduct, growing the tensor by a leg."""
        alg = self.alg
        out = {}
        for key, c in self.terms.items():
            for (a, b), f in alg._coproduct_mono(key[leg]).terms.items():
                sc = c * f
                if sc:
                    _accumulate(out, key[:leg] + (a, b) + key[leg + 1 :], sc)
        return Tensor(alg, self.nlegs + 1, out)

    def apply_counit(self, leg: int):
        """Contract one leg with the counit."""
        alg = self.alg
        out = {}
        for key, c in self.terms.items():
            if not _counit_kills(key[leg]):
                _accumulate(out, key[:leg] + key[leg + 1 :], c)
        if self.nlegs == 2:
            return Element(alg, {k[0]: v for k, v in out.items()})
        return Tensor(alg, self.nlegs - 1, out)

    def map_leg(self, leg: int, fn):
        """Apply an element-valued map (like the antipode) to one leg."""
        alg = self.alg
        one = alg.ctx.one()
        out = alg.tensor_zero(self.nlegs)
        for key, c in self.terms.items():
            img = fn(Element(alg, {key[leg]: one}))
            piece = {}
            for mon, f in img.terms.items():
                sc = f * c
                if sc:
                    piece[key[:leg] + (mon,) + key[leg + 1 :]] = sc
            out = out + Tensor(alg, self.nlegs, piece)
        return out

    def multiply_legs(self) -> Element:
        """The multiplication map: collapse all legs left to right."""
        alg = self.alg
        one = alg.ctx.one()
        out = alg.zero()
        for key, c in self.terms.items():
            acc = Element(alg, {key[0]: c})
            for mon in key[1:]:
                acc = acc * Element(alg, {mon: one})
            out = out + acc
        return out


# -- the token grammar of both sides ------------------------------------------


def parse(alg, text: str):
    """Parse a whitespace-separated product of generator tokens, each with an
    optional ^<int> exponent.  Only the cyclic grading generator (slot 2)
    may carry a negative exponent, which its order p folds back."""
    out = alg.one()
    for token in text.split():
        name, caret, exp = token.partition("^")
        slot = alg.GEN_SLOTS.get(name)
        weight = None if slot is not None else alg._parse_weight(name)
        if slot is None and weight is None:
            raise ValueError(f"unknown generator token {name!r}")
        e = 1
        if caret:
            try:
                e = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
        if weight is not None:
            out = out * weight(e)
            continue
        if e < 0 and slot != 2:
            raise ValueError(f"negative exponent not allowed for {name!r}")
        args = [0] * 6
        args[slot] = e % alg.ctx.p if slot == 2 else e
        out = out * alg.monomial(*args)
    return out


# -- the Hopf axioms shared by both suites ----------------------------------


def hopf_element_checks(report, idx: int, x):
    """Coassociativity, counit, antipode and star involution on one element."""
    cop = x.coproduct()
    report.check(f"coassoc[{idx}]", cop.apply_coproduct(0) == cop.apply_coproduct(1))
    report.check(f"counit_left[{idx}]", cop.apply_counit(0) == x)
    report.check(f"counit_right[{idx}]", cop.apply_counit(1) == x)
    eps1 = x.alg.one() * x.counit()
    report.check(
        f"antipode_left[{idx}]", cop.map_leg(0, Element.antipode).multiply_legs() == eps1
    )
    report.check(
        f"antipode_right[{idx}]", cop.map_leg(1, Element.antipode).multiply_legs() == eps1
    )
    report.check(f"star_involutive[{idx}]", x.star().star() == x)


def hopf_pair_checks(report, idx: int, x, y):
    """Delta and the counit multiplicative, S and star antimultiplicative."""
    report.check(f"delta_mult[{idx}]", (x * y).coproduct() == x.coproduct() * y.coproduct())
    report.check(f"eps_mult[{idx}]", (x * y).counit() == x.counit() * y.counit())
    report.check(f"antipode_antimult[{idx}]", (x * y).antipode() == y.antipode() * x.antipode())
    report.check(f"star_antimult[{idx}]", (x * y).star() == y.star() * x.star())
