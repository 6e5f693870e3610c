"""Command-line front door.

One binary, subcommand style: normalization and products in both token
grammars, the pairing, the verification suites, kernel evaluation, and
the convention ledger.  Every JSON report embeds the configuration and
the ledger of discrete conventions the numbers depend on, so a report
is interpretable on its own.  All randomness is seeded; rerunning a
command with the same configuration reproduces the report byte for byte
except for the timestamp field.

Exit codes: 0 = success / all checks passed, 1 = a verification suite or
precision target failed, 2 = usage error.
"""

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from fractions import Fraction

from mpmath import mp

from . import __version__
from .afalg import AAlgebra, a_axiom_suite, parse_a
from .bessel import PrecisionError
from .duality import (
    ConventionError,
    DualityContext,
    determine_convention,
    duality_suite,
    fractional_root_suite,
    reo_conformance,
)
from .kernels import (
    KernelParams,
    QuadrantPoint,
    d_ladder_suite,
    kernel_eval_detailed,
    kernel_verify,
    omega_poly,
)
from .pirep import PiRepresentation, gram_signature, representation_suite
from .report import NumericReport
from .scalars import FieldContext, is_odd_prime
from .sparse import parse
from .ufalg import UAlgebra, parse_u, u_axiom_suite

# Discrete choices the numeric output depends on.  Version-tagged so a
# report names exactly which reading of each convention produced it.
CONVENTIONS = (
    {
        "key": "root-of-unity",
        "version": 1,
        "statement": "zeta = exp(i pi/(2p)) generates the scalar field; q = zeta^4",
    },
    {
        "key": "q-number",
        "version": 1,
        "statement": "[n] = (q^n - q^-n)/(q - q^-1), symmetric convention",
    },
    {
        "key": "pairing-order",
        "version": 1,
        "statement": "<xy, a> = <x, a_(1)><y, a_(2)>: left factor pairs the first coproduct leg",
    },
    {
        "key": "sqrt-q-sign",
        "version": 1,
        "statement": "sqrt q = -q^((p+1)/2), the sign the fractional-root identity forces",
    },
    {
        "key": "boost-sign",
        "version": 1,
        "statement": "[p_pm, H] = -+ (i/p) p_pm on the enveloping side (h = +1)",
    },
    {
        "key": "top-derivative-unit",
        "version": 1,
        "statement": "kappa0 = (-1)^((p+1)/2) normalizes the top q-derivative coefficient",
    },
    {
        "key": "quadrant-table",
        "version": 2,
        "statement": (
            "closed kernel forms by quadrant: 1 -> +H1/2 with the +i pi/2 "
            "half-turn, 2 -> K/(pi i) with -i pi/2, 3 -> -H2/2 with -i pi/2, "
            "4 -> K/(pi i) with +i pi/2"
        ),
    },
    {
        "key": "omega-denominator",
        "version": 1,
        "statement": (
            "coefficient m of the shift-s dressing polynomial divides by "
            "[m]! [m+s]!; the generator ladder discriminates this reading"
        ),
    },
    {
        "key": "ladder-constant",
        "version": 1,
        "statement": (
            "fractional ladder steps scale by -chat (chat^p = r), translation "
            "steps by -r, with no extra factor at the index wrap"
        ),
    },
)

# measurements that vary run to run and are kept out of serialized reports
_VOLATILE_MEASUREMENTS = ("elapsed_seconds",)
_VOLATILE_SUFFIX = "_cache_entries"

_NATURAL_FORMAT = {
    "normalize-u": "text",
    "normalize-a": "text",
    "mul": "text",
    "right-act": "text",
    "pair": "text",
    "omega": "text",
    "ledger": "text",
    "kernel-verify": "csv",
}


class UsageError(ValueError):
    pass


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _context(args) -> FieldContext:
    if not is_odd_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    if args.prec < 1:
        raise UsageError(f"--prec must be at least 1, got {args.prec}")
    r = _fraction(args.r)
    if r <= 0:
        raise UsageError("--r must be positive")
    return FieldContext(args.p, r)


def _nstr(value, prec_bits):
    return mp.nstr(value, max(8, int(prec_bits * 0.3)))


def _scalar_payload(scalar, prec_bits):
    with mp.workprec(prec_bits + 16):
        numeric = _nstr(scalar.evaluate(prec_bits), prec_bits)
    return {
        "exact": scalar.pretty(),
        "canonical": scalar.canonical_string(),
        "numeric": numeric,
    }


def _report_payload(report: NumericReport) -> dict:
    data = report.to_json()
    kept = {}
    for key, value in data["measurements"].items():
        if key in _VOLATILE_MEASUREMENTS or key.endswith(_VOLATILE_SUFFIX):
            continue
        kept[key] = value
    data["measurements"] = kept
    return data


# -- subcommand bodies --
# each returns (exit_code, payload dict, text rendering, csv rows or None)


def _cmd_normalize(args):
    algebra = UAlgebra if args.command == "normalize-u" else AAlgebra
    text = str(parse(algebra(_context(args)), args.expr))
    return 0, {"input": args.expr, "normal_form": text}, text, None


def _cmd_mul(args):
    alg = (UAlgebra if args.alg == "u" else AAlgebra)(_context(args))
    text = str(parse(alg, args.left) * parse(alg, args.right))
    payload = {
        "algebra": args.alg,
        "left": args.left,
        "right": args.right,
        "normal_form": text,
    }
    return 0, payload, text, None


def _cmd_pair(args):
    ctx = _context(args)
    dual = DualityContext(ctx)
    x = parse_u(dual.ualg, args.uexpr)
    a = parse_a(dual.aalg, args.aexpr)
    value = dual.pair(x, a)
    payload = {
        "u": args.uexpr,
        "a": args.aexpr,
        "pairing": _scalar_payload(value, args.prec),
    }
    text = f"{payload['pairing']['exact']}  =  {payload['pairing']['numeric']}"
    return 0, payload, text, None


def _cmd_right_act(args):
    ctx = _context(args)
    dual = DualityContext(ctx)
    phi = parse_u(dual.ualg, args.uexpr)
    target = parse_a(dual.aalg, args.aexpr)
    out = dual.right_act(phi, target)
    text = str(out)
    payload = {"u": args.uexpr, "a": args.aexpr, "normal_form": text}
    return 0, payload, text, None


def _suite_result(report: NumericReport):
    code = 0 if report.passed else 1
    return code, _report_payload(report), report.summary(), None


def _cmd_hopf(args):
    ctx = _context(args)
    ureport = u_axiom_suite(UAlgebra(ctx), args.degree, args.samples, args.seed)
    areport = a_axiom_suite(AAlgebra(ctx), min(args.degree, 2), args.samples, args.seed)
    passed = ureport.passed and areport.passed
    payload = {
        "passed": passed,
        "enveloping": _report_payload(ureport),
        "functions": _report_payload(areport),
    }
    text = ureport.summary() + "\n" + areport.summary()
    return (0 if passed else 1), payload, text, None


def _cmd_duality_suite(args):
    ctx = _context(args)
    return _suite_result(duality_suite(ctx, args.bound, args.samples, args.seed))


def _cmd_reo_conformance(args):
    return _suite_result(reo_conformance(_context(args)))


def _cmd_pi_suite(args):
    ctx = _context(args)
    report = representation_suite(
        ctx, chain_length=args.chain, samples=args.samples, seed=args.seed
    )
    code, payload, text, _rows = _suite_result(report)
    root = fractional_root_suite(ctx, degree_bound=args.root_degree)
    payload = {
        "passed": report.passed and root.passed,
        "representation": payload,
        "fractional_root": _report_payload(root),
    }
    text = text + "\n" + root.summary()
    return (0 if payload["passed"] else 1), payload, text, None


def _cmd_signature(args):
    ctx = _context(args)
    sig = gram_signature(ctx)
    payload = {"n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero}
    text = f"n_plus={sig.n_plus} n_minus={sig.n_minus} n_zero={sig.n_zero}"
    return 0, payload, text, None


def _cmd_trterm(args):
    ctx = _context(args)
    rep = PiRepresentation(ctx)
    term = rep.corep_term(
        (args.n, args.m, args.k, args.t, args.s, args.l),
        rep.vector(mu=_fraction(args.mu), j=args.j),
    )
    payload = {
        "indices": [args.n, args.m, args.k, args.t, args.s, args.l],
        "vector": {"mu": args.mu, "j": args.j},
        "function_factor": str(term.a_coeff),
        "scalar": _scalar_payload(term.scalar, args.prec),
        "image": term.vector.pretty(),
    }
    text = (
        f"function factor: {payload['function_factor']}\n"
        f"scalar: {payload['scalar']['exact']} = {payload['scalar']['numeric']}\n"
        f"image: {payload['image']}"
    )
    return 0, payload, text, None


def _cmd_omega(args):
    ctx = _context(args)
    om = omega_poly(args.shift, ctx, literal=args.literal)
    coeffs = [
        {"m": m, **_scalar_payload(c, args.prec)} for m, c in enumerate(om.coeffs)
    ]
    payload = {"shift": args.shift, "literal": args.literal, "coefficients": coeffs}
    text = "\n".join(f"m={c['m']}: {c['exact']} = {c['numeric']}" for c in coeffs)
    return 0, payload, text, None


def _cmd_kernel_eval(args):
    _context(args)  # validates p, r and prec
    params = KernelParams(
        p=args.p, s=args.s, nu=args.nu, mu=args.mu, r=args.r, precision=args.tol
    )
    point = QuadrantPoint.from_polar(args.quad, args.rho, args.beta, args.lam)
    payload = {
        "params": {
            "p": args.p,
            "s": args.s,
            "nu": args.nu,
            "mu": args.mu,
            "r": args.r,
            "precision": args.tol,
        },
        "point": {
            "quadrant": args.quad,
            "rho": args.rho,
            "beta": args.beta,
            "lambda": args.lam,
        },
    }
    modes = ("closed", "integral") if args.mode == "both" else (args.mode,)
    values = {}
    for mode in modes:
        value, diag = kernel_eval_detailed(params, point, mode)
        with mp.workprec(max(args.prec, 64) + 16):
            values[mode] = value.to_mpc()
        payload[mode] = {
            "value": _nstr(values[mode], args.prec),
            "err_estimate": mp.nstr(mp.mpf(value.err_estimate), 5),
            "diagnostics": {k: str(v) for k, v in sorted(diag.items())},
        }
    if len(modes) == 2:
        with mp.workprec(max(args.prec, 64) + 16):
            gap = abs(values["closed"] - values["integral"]) / abs(values["closed"])
        payload["relative_gap"] = mp.nstr(gap, 5)
    text = "\n".join(f"{mode}: {payload[mode]['value']}" for mode in modes)
    if "relative_gap" in payload:
        text += f"\nrelative gap: {payload['relative_gap']}"
    return 0, payload, text, None


def _cmd_kernel_verify(args):
    _context(args)
    quadrants = tuple(args.quad) if args.quad else (1, 2, 3, 4)
    report = kernel_verify(p=args.p, quadrants=quadrants)
    rows = report.measurements["rows"]
    del report.measurements["rows"]
    code, payload, text, _none = _suite_result(report)
    payload["rows"] = rows
    return code, payload, text, rows


def _cmd_ladder_suite(args):
    ctx = _context(args)
    nu = args.nu if args.nu is not None else f"1/{ctx.p + 2}"
    report = d_ladder_suite(
        args.n, nu, h=args.h, ctx=ctx, precision_bits=args.bits
    )
    return _suite_result(report)


def _cmd_ledger(args):
    ctx = _context(args)
    convention = determine_convention(ctx)
    payload = {
        "conventions": list(CONVENTIONS),
        "empirical": {
            "p": ctx.p,
            "r": str(ctx.r),
            "left_first": convention.left_first,
            "sqrt_q_sign": convention.sqrt_q_sign,
            "h": convention.h,
            "description": convention.describe(),
        },
    }
    lines = [
        f"{c['key']} (v{c['version']}): {c['statement']}" for c in CONVENTIONS
    ]
    lines.append(f"empirical at p={ctx.p}, r={ctx.r}: {convention.describe()}")
    return 0, payload, "\n".join(lines), None


_COMMANDS = {
    "normalize-u": _cmd_normalize,
    "normalize-a": _cmd_normalize,
    "mul": _cmd_mul,
    "hopf": _cmd_hopf,
    "pair": _cmd_pair,
    "duality-suite": _cmd_duality_suite,
    "right-act": _cmd_right_act,
    "reo-conformance": _cmd_reo_conformance,
    "pi-suite": _cmd_pi_suite,
    "signature": _cmd_signature,
    "trterm": _cmd_trterm,
    "omega": _cmd_omega,
    "kernel-eval": _cmd_kernel_eval,
    "kernel-verify": _cmd_kernel_verify,
    "ladder-suite": _cmd_ladder_suite,
    "ledger": _cmd_ledger,
}


@functools.cache  # built on the first call, shared after it
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=3, help="odd prime modulus (default 3)")
    common.add_argument("--r", default="1", help="positive rational scale (default 1)")
    common.add_argument(
        "--prec", type=int, default=128, help="working precision in bits (default 128)"
    )
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=None,
        help="output format (default: json, or the command's natural format)",
    )

    parser = argparse.ArgumentParser(
        prog="fsusy",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=f"fsusy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize-u", parents=[common], help="normal form in the enveloping grammar")
    sp.add_argument("expr")
    sp = sub.add_parser("normalize-a", parents=[common], help="normal form in the function grammar")
    sp.add_argument("expr")

    sp = sub.add_parser("mul", parents=[common], help="product of two expressions")
    sp.add_argument("--alg", choices=("u", "a"), default="u")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("hopf", parents=[common], help="Hopf axiom suites for both algebras")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--degree", type=int, default=3)

    sp = sub.add_parser("pair", parents=[common], help="duality pairing of two expressions")
    sp.add_argument("uexpr")
    sp.add_argument("aexpr")

    sp = sub.add_parser("duality-suite", parents=[common], help="Hopf pairing verification")
    sp.add_argument("--bound", type=int, default=2)
    sp.add_argument("--samples", type=int, default=50)

    sp = sub.add_parser("right-act", parents=[common], help="right action of an enveloping element")
    sp.add_argument("uexpr")
    sp.add_argument("aexpr")

    sub.add_parser("reo-conformance", parents=[common], help="closed actions vs the duality oracle")

    sp = sub.add_parser("pi-suite", parents=[common], help="weight-basis representation checks")
    sp.add_argument(
        "--chain", type=int, default=None, help="pointwise fractional-root window length (default 3p)"
    )
    sp.add_argument("--samples", type=int, default=15)
    sp.add_argument("--root-degree", type=int, default=4, dest="root_degree")

    sub.add_parser("signature", parents=[common], help="signature of the cyclic Gram form")

    sp = sub.add_parser("trterm", parents=[common], help="one term of the corepresentation sum")
    for name in ("n", "m", "k", "t", "s", "l"):
        sp.add_argument(f"--{name}", type=int, default=0)
    sp.add_argument("--mu", default="0", help="weight of the target vector")
    sp.add_argument("--j", type=int, default=0, help="cyclic index of the target vector")

    sp = sub.add_parser("omega", parents=[common], help="dressing polynomial coefficients")
    sp.add_argument("shift", type=int)
    sp.add_argument("--literal", action="store_true")

    sp = sub.add_parser("kernel-eval", parents=[common], help="one kernel value, either route")
    sp.add_argument("--s", type=int, default=0)
    sp.add_argument("--nu", default="0")
    sp.add_argument("--mu", default="0")
    sp.add_argument("--quad", type=int, choices=(1, 2, 3, 4), default=3)
    sp.add_argument("--rho", default="1")
    sp.add_argument("--beta", default="0")
    sp.add_argument("--lam", default="0")
    sp.add_argument("--mode", choices=("closed", "integral", "both"), default="both")
    sp.add_argument("--tol", default="1e-10", help="relative error target")

    sp = sub.add_parser("kernel-verify", parents=[common], help="closed vs integral over the grid")
    sp.add_argument("--quad", type=int, choices=(1, 2, 3, 4), action="append")

    sp = sub.add_parser("ladder-suite", parents=[common], help="generator ladder by finite differences")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--nu", default=None, help="weight (default 1/(p+2))")
    sp.add_argument("--h", default="1e-4", help="finite-difference step")
    sp.add_argument("--bits", type=int, default=192)

    sub.add_parser("ledger", parents=[common], help="print the convention ledger")
    return parser


def _envelope(args, payload) -> dict:
    return {
        "tool": "fsusy",
        "tool_version": __version__,
        "command": args.command,
        "config": {
            "p": args.p,
            "r": args.r,
            "prec": args.prec,
            "seed": args.seed,
            "format": args.format,
        },
        "conventions": list(CONVENTIONS),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": payload,
    }


def _render_csv(args, rows) -> str:
    buf = io.StringIO()
    buf.write("# fsusy kernel grid report\n")
    buf.write(
        f"# config: p={args.p} r={args.r} prec={args.prec} seed={args.seed}\n"
    )
    versions = ";".join(f"{c['key']}@v{c['version']}" for c in CONVENTIONS)
    buf.write(f"# conventions: {versions}\n")
    buf.write(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# negative fractions and exponent forms, which argparse reads as option
# flags when given as a separate value: its negative-number pattern knows
# only forms like "-1" and "-0.5", and those are left to it
_NEGATIVE_VALUE = re.compile(r"-(\d+/\d+|(\d+\.?\d*|\.\d+)[eE][-+]?\d+)$")


def _join_negative_values(argv):
    """Attach such a value to the option before it, as in "--mu -1/3" ->
    "--mu=-1/3", up to a bare "--"."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (
            _NEGATIVE_VALUE.match(tok)
            and prev.startswith("--")
            and "=" not in prev
            and "--" not in out
        ):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    handler = _COMMANDS[args.command]
    try:
        code, payload, text, rows = handler(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ConventionError, ArithmeticError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1

    fmt = args.format or _NATURAL_FORMAT.get(args.command, "json")
    if fmt == "csv":
        if rows is None:
            print("error: this command has no tabular output; use json or text", file=sys.stderr)
            return 2
        rendered = _render_csv(args, rows)
    elif fmt == "text":
        rendered = text if text.endswith("\n") else text + "\n"
    else:
        rendered = json.dumps(_envelope(args, payload), indent=2, sort_keys=True) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
