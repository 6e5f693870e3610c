"""Seeded inputs for the three workloads.

Everything here is plain data (strings, integers, argv lists) made from
the workload seed alone, so the same seed gives the same inputs and the
program under test receives nothing but these.  Seed 1 reproduces the
acceptance gates' own seed.
"""

from __future__ import annotations

import random

PRIMES = (3, 5, 7)

# -- exact-suites: the acceptance gates' configuration ----------------------


def exact_work(seed: int):
    """The fixed list of suite calls: (suite, p, keyword arguments).

    The seeded suites get the workload seed; `representation_suite` is
    shifted so that seed 1 gives its gate default of 7."""
    work = []
    for p in PRIMES:
        work.append(("u_axiom_suite", p, {"degree_bound": 3, "samples": 200, "seed": seed}))
        work.append(("a_axiom_suite", p, {"degree_bound": 2, "samples": 200, "seed": seed}))
    work.append(("duality_suite", 3, {"exponent_bound": 2, "samples": 50, "seed": seed}))
    for p in (3, 5):
        work.append(("reo_conformance", p, {}))
        work.append(("fractional_root_suite", p, {"degree_bound": 4}))
    for p in PRIMES:
        work.append(("representation_suite", p, {"chain_length": 3 * p, "seed": seed + 6}))
    for p in PRIMES:
        work.append(("integral_suite", p, {}))
    return work


# -- kernel-grid: the grid gate and both ladder gates ------------------------

# The grid and the ladder weight are the gates' own; they take no seed.
KERNEL_WORK = (
    ("kernel_verify", {}),
    ("d_ladder_suite", {"n": 0, "nu": "1/5"}),
    ("d_ladder_suite", {"n": 1, "nu": "1/5"}),
)

# closed vs integral tolerance per quadrant, as in the grid gate
QUADRANT_TOL = {1: 1e-6, 2: 1e-6, 3: 1e-8, 4: 1e-8}

# -- point-queries: a stream of independent CLI calls ------------------------

TARGETS = ("1e-10", "1e-16", "1e-30", "1e-45")
ROUTES = ("closed", "integral", "both")
QUERY_KINDS = ("pair", "right-act", "mul", "kernel-eval")

# per stream: exact queries by kind, fresh kernel points per
# (quadrant, route, target) cell, and revisits of earlier kernel points
N_PAIR = 72  # each exact kind splits evenly over p = 3, 5, 7
N_RIGHT_ACT = 72
N_MUL = 96  # and mul evenly over the two algebras
KERNEL_PER_CELL = 2
N_REVISIT = 12

_U_TOKENS = ("p+", "p-", "k", "P+", "P-", "H")
_A_TOKENS = ("e+", "e-", "d", "z+", "z-", "L")


def _tok(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _u_expr(rng, max_tokens: int = 3) -> str:
    toks = []
    for _ in range(rng.randint(1, max_tokens)):
        name = rng.choice(_U_TOKENS)
        e = rng.choice((-1, 1, 2)) if name == "k" else rng.randint(1, 2)
        toks.append(_tok(name, e))
    return " ".join(toks)


def _a_expr(rng, p: int, max_tokens: int = 3, with_lambda: bool = True) -> str:
    names = _A_TOKENS if with_lambda else _A_TOKENS[:5]
    toks = []
    for _ in range(rng.randint(1, max_tokens)):
        if with_lambda and rng.random() < 0.15:
            toks.append(f"exp({rng.choice((-1, 1, 2))}/{p}L)")
            continue
        name = rng.choice(names)
        e = rng.choice((-1, 1, 2)) if name == "d" else rng.randint(1, 2)
        toks.append(_tok(name, e))
    return " ".join(toks)


def _matched_pair(rng, p: int):
    """A u-expression and an a-expression of the same multidegree in
    (p+, p-, P+, P-), so that most pairings are nonzero."""
    n, m = rng.randint(0, 2), rng.randint(0, 2)
    t, s, l = rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)
    u = ["p+"] * n + ["p-"] * m + ["P+"] * t + ["P-"] * s + ["H"] * l
    if rng.random() < 0.5:
        u.append(_tok("k", rng.choice((-1, 1, 2))))
    rng.shuffle(u)
    a = [_tok("e+", n)] * bool(n) + [_tok("e-", m)] * bool(m) + ["z+"] * t + ["z-"] * s
    a.append(_tok("d", rng.randrange(1, p)))
    if l and rng.random() < 0.5:
        a.append("L")
    if rng.random() < 0.3:
        a.append(f"exp({rng.choice((-1, 1))}/{p}L)")
    return " ".join(u) or "k", " ".join(a)


def _decimal(rng, lo: int, hi: int) -> str:
    """A two-decimal number in [lo/100, hi/100] as a string."""
    v = rng.randint(lo, hi)
    sign = "-" if v < 0 else ""
    return f"{sign}{abs(v) // 100}.{abs(v) % 100:02d}"


def _kernel_point(rng, quadrant: int) -> dict:
    return {
        "quad": quadrant,
        "rho": _decimal(rng, 50, 250),
        "beta": _decimal(rng, -100, 100),
        "nu": _decimal(rng, -60, 60),
    }


def kernel_argv(point: dict, route: str, target: str) -> list:
    return [
        "kernel-eval",
        "--quad", str(point["quad"]),
        "--rho", point["rho"],
        "--beta", point["beta"],
        "--nu", point["nu"],
        "--mode", route,
        "--tol", target,
        "--format", "json",
    ]


def point_queries(seed: int):
    """The query stream: a list of dicts with `kind`, `argv` and, for
    kernel queries, `point`, `route`, `target` and `revisit_of` (the index
    of the earlier query whose point is revisited, or None)."""
    rng = random.Random(f"point-queries:{seed}")
    stream = []
    for i in range(N_PAIR):
        p = PRIMES[i % 3]
        u, a = _matched_pair(rng, p)
        stream.append({"kind": "pair", "p": p, "args": [u, a],
                       "argv": ["pair", "--p", str(p), u, a, "--format", "json"]})
    for i in range(N_RIGHT_ACT):
        p = PRIMES[i % 3]
        u, a = _u_expr(rng, 2), _a_expr(rng, p)
        stream.append({"kind": "right-act", "p": p, "args": [u, a],
                       "argv": ["right-act", "--p", str(p), u, a, "--format", "json"]})
    for i in range(N_MUL):
        p, alg = PRIMES[i % 3], ("u", "a")[i // 3 % 2]
        if alg == "u":
            left, right = _u_expr(rng), _u_expr(rng)
        else:
            left, right = _a_expr(rng, p), _a_expr(rng, p)
        stream.append({"kind": "mul", "p": p, "alg": alg, "args": [left, right],
                       "argv": ["mul", "--alg", alg, "--p", str(p), left, right,
                                "--format", "json"]})
    for quadrant in (1, 2, 3, 4):
        for route in ROUTES:
            for target in TARGETS:
                for _ in range(KERNEL_PER_CELL):
                    point = _kernel_point(rng, quadrant)
                    stream.append({"kind": "kernel-eval", "point": point, "route": route,
                                   "target": target, "revisit_of": None,
                                   "argv": kernel_argv(point, route, target)})
    rng.shuffle(stream)
    # a user refining a result: the same point by the same route again at
    # another target, placed somewhere after the first visit
    for _ in range(N_REVISIT):
        fresh = [i for i, q in enumerate(stream)
                 if q["kind"] == "kernel-eval" and q["revisit_of"] is None]
        first = rng.choice(fresh)
        orig = stream[first]
        target = rng.choice([t for t in TARGETS if t != orig["target"]])
        route = orig["route"]
        at = rng.randint(first + 1, len(stream))
        stream.insert(at, {"kind": "kernel-eval", "point": orig["point"], "route": route,
                           "target": target, "revisit_of": orig,
                           "argv": kernel_argv(orig["point"], route, target)})
    position = {id(q): i for i, q in enumerate(stream)}
    for q in stream:
        if q.get("revisit_of") is not None:
            q["revisit_of"] = position[id(q["revisit_of"])]
    return stream

