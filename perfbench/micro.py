"""Per-layer micro-costs at p = 3, 5, 7, timed from outside the program.

Every call gets its own seeded inputs, and every batch of calls gets a
fresh algebra, DualityContext or PiRepresentation, so the per-instance
caches fill only within a batch and the numbers stay costs of the layer
rather than of dictionary lookups.  Each metric is the median over its
calls.  Inputs are built through the text grammar and the public
factories only; building them is not timed.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from inputs import PRIMES

BATCH = 8  # calls per fresh instance
MIN_CALLS = 5
MAX_CALLS = 64
BUDGET_S = 0.15  # stop a metric after this much timed work, once MIN_CALLS are in


def _measure(tracer, name: str, make_batch, scale: float) -> float:
    """Median per-call cost of `name` in units of 1/scale seconds.

    make_batch() returns a list of zero-argument calls that share one fresh
    instance; each call is timed on its own inside a span."""
    times = []
    spent = 0.0
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or spent < BUDGET_S):
        for call in make_batch():
            with tracer.span(name):
                t0 = time.perf_counter()
                call()
                dt = time.perf_counter() - t0
            times.append(dt)
            spent += dt
    return statistics.median(times) * scale


def _scalar(ctx, rng):
    """A dense-ish scalar: four random rationals on random roots of unity."""
    while True:
        x = ctx.zero()
        for _ in range(4):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            x = x + ctx.from_fraction(c) * ctx.zeta(rng.randrange(4 * ctx.p))
        if not x.is_zero():
            return x


def _matched(rng, p: int, with_lambda: bool = True):
    """Token lists of one u-monomial and one a-monomial of the same
    multidegree, in normal order."""
    n, m = rng.randint(0, min(2, p - 1)), rng.randint(0, min(2, p - 1))
    t, s, l = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
    k = rng.randrange(p)
    u = ["p+"] * n + ["p-"] * m + ["k"] * k + ["P+"] * t + ["P-"] * s + ["H"] * l
    a = ["e+"] * n + ["e-"] * m + ["d"] * rng.randrange(p) + ["z+"] * t + ["z-"] * s
    if with_lambda:
        a += ["L"] * rng.randint(0, l) + [f"exp({rng.choice((-1, 1))}/{p}L)"]
    return u or ["k"], a or ["d"]


def _combo(parse, alg, ctx, rng, texts):
    """A sum of parsed monomials with random scalar coefficients."""
    out = parse(alg, texts[0]) * _scalar(ctx, rng)
    for text in texts[1:]:
        out = out + parse(alg, text) * _scalar(ctx, rng)
    return out


def micro_costs(seed: int, tracer) -> dict:
    from fsusy.afalg import AAlgebra, parse_a, random_a_element
    from fsusy.bessel import bessel_eval
    from fsusy.duality import DualityContext
    from fsusy.kernels import KernelParams, QuadrantPoint, kernel_eval
    from fsusy.pirep import PiRepresentation, gram_signature
    from fsusy.scalars import FieldContext
    from fsusy.ufalg import GEN_NAMES, UAlgebra, parse_u, random_u_element

    rng = random.Random(f"micro:{seed}")
    us, ms = 1e6, 1e3
    out = {}
    for p in PRIMES:
        ctx = FieldContext(p)

        def scalar_batch(op):
            def make():
                calls = []
                for _ in range(BATCH):
                    x, y = _scalar(ctx, rng), _scalar(ctx, rng)
                    calls.append({"mul": lambda x=x, y=y: x * y,
                                  "add": lambda x=x, y=y: x + y,
                                  "invert": lambda x=x: x.invert()}[op])
                return calls
            return make

        for op in ("mul", "add", "invert"):
            out[f"scalars.{op}_us.p{p}"] = _measure(tracer, f"scalars.{op}", scalar_batch(op), us)

        def hopf_batch(alg_cls, random_element, degree, op):
            def make():
                alg = alg_cls(ctx)
                calls = []
                for _ in range(BATCH):
                    x = random_element(alg, rng, degree)
                    y = random_element(alg, rng, degree)
                    calls.append({"mul": lambda x=x, y=y: x * y,
                                  "coproduct": lambda x=x: x.coproduct(),
                                  "antipode": lambda x=x: x.antipode()}[op])
                return calls
            return make

        for op in ("mul", "coproduct", "antipode"):
            out[f"ufalg.{op}_us.p{p}"] = _measure(
                tracer, f"ufalg.{op}", hopf_batch(UAlgebra, random_u_element, 3, op), us)
            out[f"afalg.{op}_us.p{p}"] = _measure(
                tracer, f"afalg.{op}", hopf_batch(AAlgebra, random_a_element, 2, op), us)

        def duality_batch(op):
            def make():
                dual = DualityContext(ctx)
                ual, aal = dual.ualg, dual.aalg
                calls = []
                for _ in range(BATCH):
                    if op == "pair":
                        texts = [_matched(rng, p) for _ in range(3)]
                        x = _combo(parse_u, ual, ctx, rng, [" ".join(u) for u, _ in texts])
                        a = _combo(parse_a, aal, ctx, rng, [" ".join(a) for _, a in texts])
                        calls.append(lambda x=x, a=a: dual.pair(x, a))
                    elif op == "pair_tensor":
                        # <x (x) y, Delta a> with xy matched to a
                        u, a = _matched(rng, p)
                        cut = rng.randint(0, len(u))
                        x, y = parse_u(ual, " ".join(u[:cut])), parse_u(ual, " ".join(u[cut:]))
                        ta = parse_a(aal, " ".join(a)).coproduct()
                        calls.append(lambda x=x, y=y, ta=ta: dual.pair_tensor(x, y, ta))
                    elif op == "right_act":
                        phi = random_u_element(ual, rng, 2, 2)
                        a = random_a_element(aal, rng, 2)
                        calls.append(lambda phi=phi, a=a: dual.right_act(phi, a))
                    else:
                        gen = rng.choice(GEN_NAMES)
                        texts = [" ".join(_matched(rng, p, False)[1]) for _ in range(3)]
                        a = _combo(parse_a, aal, ctx, rng, texts)
                        calls.append(lambda gen=gen, a=a: dual.closed_right_act(gen, a))
                return calls
            return make

        for op in ("pair", "pair_tensor", "right_act", "closed_right_act"):
            out[f"duality.{op}_us.p{p}"] = _measure(tracer, f"duality.{op}", duality_batch(op), us)

        def pirep_batch(op):
            def make():
                rep = PiRepresentation(ctx)
                calls = []
                for _ in range(BATCH):
                    if op == "operator":
                        x = random_u_element(rep.ualg, rng, 3)
                        calls.append(lambda x=x: rep.operator(x))
                    else:
                        idx = (rng.randrange(p), rng.randrange(p), rng.randrange(p),
                               rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                        # a nonzero weight: the H^l part acts by mu^l
                        mu = Fraction(rng.choice((-1, 1)) * rng.randint(1, p), p)
                        v = rep.vector(mu=mu, j=rng.randrange(p))
                        calls.append(lambda idx=idx, v=v: rep.corep_term(idx, v))
                return calls
            return make

        for op in ("operator", "corep_term"):
            out[f"pirep.{op}_us.p{p}"] = _measure(tracer, f"pirep.{op}", pirep_batch(op), us)
        out[f"pirep.gram_signature_ms.p{p}"] = _measure(
            tracer, "pirep.gram_signature",
            lambda: [lambda: gram_signature(p)] * 2, ms)

    # numeric layers: a fresh order and argument (or kernel point) per call,
    # drawn without replacement so no module cache can serve a repeat
    orders = rng.sample(range(-1900, 1901), 3 * MAX_CALLS)
    args = rng.sample(range(300, 3001), 3 * MAX_CALLS)
    for kind in ("K", "H1", "H2"):
        def bessel_batch(kind=kind):
            return [lambda o=orders.pop(), a=args.pop(): bessel_eval(
                kind, Fraction(o, 1000), Fraction(a, 1000), precision="1e-25")]
        out[f"bessel.eval_ms.{kind}"] = _measure(tracer, f"bessel.eval.{kind}", bessel_batch, ms)

    nus = rng.sample(range(-600, 601), 4 * MAX_CALLS)
    rhos = rng.sample(range(500, 2501), 4 * MAX_CALLS)
    for route in ("closed", "integral"):
        for target in ("1e-16", "1e-45"):
            def kernel_batch(route=route, target=target):
                nu, rho = nus.pop(), rhos.pop()
                params = KernelParams(p=3, s=0, nu=Fraction(nu, 1000), mu=0, r=1,
                                      precision=target)
                point = QuadrantPoint.from_polar(rng.randint(1, 4), Fraction(rho, 1000),
                                                 Fraction(rng.randint(-100, 100), 100))
                return [lambda: kernel_eval(params, point, route)]
            out[f"kernels.eval_ms.{route}.{target}"] = _measure(
                tracer, f"kernels.eval.{route}.{target}", kernel_batch, ms)
    return out
