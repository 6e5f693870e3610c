"""The Hopf maps and the token grammar sparse derives from each algebra's
generator table, checked against the hand-written per-algebra code they
replaced and against pinned error messages."""

import itertools
from fractions import Fraction

import pytest

from fsusy.afalg import AAlgebra, AElement, parse_a
from fsusy.scalars import FieldContext
from fsusy.sparse import parse
from fsusy.ufalg import UAlgebra, UElement, parse_u
from generator_tables import gen_anti_power, gen_antipode, gen_cop_power

# -- reference maps: the word-based per-algebra versions, kept verbatim in
# substance so the derived ones answer to an independent transcription --


def _ref_u_word_product(alg, monos, coeff):
    out = UElement(alg, {monos[0]: coeff})
    for mon in monos[1:]:
        out = out * UElement(alg, {mon: alg.ctx.one()})
    return out


def ref_u_antipode(alg, mon):
    n, m, k, t, s, l = mon
    p = alg.ctx.p
    # S reverses the word; the sign and q factors come off the generators
    sign = (-1) ** (n + m + t + s + l)
    coeff = alg.ctx.q(n - m) * Fraction(sign)
    word = (
        (0, 0, 0, 0, 0, l),
        (0, 0, 0, 0, s, 0),
        (0, 0, 0, t, 0, 0),
        (0, 0, (p - k) % p, 0, 0, 0),
        (0, m, 0, 0, 0, 0),
        (n, 0, 0, 0, 0, 0),
    )
    return _ref_u_word_product(alg, word, coeff)


def ref_u_star(alg, mon):
    n, m, k, t, s, l = mon
    word = (
        (0, 0, 0, 0, 0, l),
        (0, 0, 0, 0, s, 0),
        (0, 0, 0, t, 0, 0),
        (0, 0, k, 0, 0, 0),
        (0, m, 0, 0, 0, 0),
        (n, 0, 0, 0, 0, 0),
    )
    return _ref_u_word_product(alg, word, alg.ctx.one())


def ref_a_antipode(alg, mon):
    # S reverses the word, so the generator images multiply in the
    # opposite slot order
    out = AElement(alg, {(0, 0, 0, 0, 0, 0, -mon[6]): alg.ctx.one()})
    for slot in range(5, -1, -1):
        e = mon[slot]
        if e:
            out = out * gen_antipode(alg, slot) ** e
    return out


def ref_a_star(alg, mon):
    n, m, k, t, s, l, mu = mon
    # reversed word: d^k then e-^m then e+^n, classical slots unmoved
    left = AElement(alg, {(0, 0, k, t, s, l, mu): alg.ctx.one()})
    return left * alg.monomial(m=m) * alg.monomial(n=n)


def _window(p):
    return itertools.product(range(p), range(p), range(p), range(3), range(3), range(3))


@pytest.mark.parametrize("p", (3, 5))
def test_derived_u_maps_match_word_reference(p):
    alg = UAlgebra(FieldContext(p))
    for mon in _window(p):
        assert alg._antipode_mono(mon) == ref_u_antipode(alg, mon), mon
        assert alg._star_mono(mon) == ref_u_star(alg, mon), mon


@pytest.mark.parametrize("p", (3, 5))
def test_derived_a_maps_match_reference(p):
    alg = AAlgebra(FieldContext(p))
    for base in _window(p):
        for pmu in (0, 1, -1, p):
            mon = base + (pmu,)
            assert alg._antipode_mono(mon) == ref_a_antipode(alg, mon), mon
            assert alg._star_mono(mon) == ref_a_star(alg, mon), mon


def _power_range(alg, slot):
    """The exponents each closed-form generator power is checked at."""
    p = alg.ctx.p
    if slot in (0, 1):
        return range(p)
    if slot == 2:
        return range(p + 3)
    return range(4 if slot in (3, 4) and isinstance(alg, AAlgebra) and p >= 11 else 6)


@pytest.mark.parametrize("p", (3, 5, 7, 11))
@pytest.mark.parametrize("make", (UAlgebra, AAlgebra))
def test_closed_form_generator_powers_match_products(make, p):
    # Delta(x)^n and S(x)^n of every generator, stated in closed form by
    # each algebra, against the generator tables multiplied out; S of the
    # group-like slot 2 is the word reversal's g^-1
    alg = make(FieldContext(p))
    for slot in range(6):
        for n in _power_range(alg, slot):
            assert alg._gen_cop_power(slot, n) == gen_cop_power(alg, slot, n), (slot, n)
            anti = alg._anti_power(slot, n) if slot != 2 else alg._antipode_mono(
                alg._slot_mono(2, n % p)
            )
            assert anti == gen_anti_power(alg, slot, n), (slot, n)


# -- one grammar, one set of messages --

GRAMMARS = (
    (UAlgebra, "p+", "P-", "k"),
    (AAlgebra, "e+", "z-", "d"),
)


def test_one_parser_under_both_names():
    assert parse_u is parse_a is parse


@pytest.mark.parametrize("make, gen, classical, cyclic", GRAMMARS)
def test_parse_error_messages(make, gen, classical, cyclic):
    alg = make(FieldContext(3))
    cases = (
        ("w+", "unknown generator token 'w+'"),
        (f"{gen}^x", f"bad exponent in token '{gen}^x'"),
        (f"{gen}^", f"bad exponent in token '{gen}^'"),
        (f"{classical}^-1", f"negative exponent not allowed for '{classical}'"),
        # an unknown name wins over its bad exponent on both sides
        ("foo^x", "unknown generator token 'foo'"),
    )
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            parse(alg, text)
        assert str(exc.value) == message


def test_weight_token_is_function_side_only():
    with pytest.raises(ValueError, match=r"unknown generator token 'exp\(1/3L\)'"):
        parse(UAlgebra(FieldContext(3)), "exp(1/3L)")
    with pytest.raises(ValueError, match=r"bad exponent in token 'exp\(1/3L\)\^x'"):
        parse(AAlgebra(FieldContext(3)), "exp(1/3L)^x")


@pytest.mark.parametrize(
    "make, text, want",
    (
        (UAlgebra, "k^-4", {3: "k^2", 5: "k"}),
        (AAlgebra, "d^-4", {3: "d^2", 5: "d"}),
        (AAlgebra, "exp(1/3L)^-2", {3: "exp(-2/3L)"}),
    ),
)
def test_negative_exponent_round_trips(make, text, want):
    for p, printed in want.items():
        alg = make(FieldContext(p))
        x = parse(alg, text)
        assert str(x) == printed
        assert parse(alg, printed) == x


# -- powers --


@pytest.mark.parametrize("which", ["element", "tensor"])
def test_negative_power_is_an_error(which):
    x = UAlgebra(FieldContext(3)).p_plus()
    if which == "tensor":
        x = x.coproduct()
    with pytest.raises(ValueError, match="negative powers are not defined here"):
        x ** -1
    assert x**0 == (x.alg.one() if which == "element" else x.alg.tensor_one(2))
    assert x**2 == x * x
