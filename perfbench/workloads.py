"""One pass of each workload, run inside a fresh child interpreter.

Each pass returns the operations it attempted, the per-call latencies,
the correctness problems it found, and (when traced) its spans.  The
program is reached only through its public functions and the `fsusy`
command's `main`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time
from fractions import Fraction

from inputs import KERNEL_WORK, PRIMES, QUADRANT_TOL, QUERY_KINDS, exact_work, point_queries

# every fsusy module; importing them all is part of set-up
MODULES = ("scalars", "ufalg", "afalg", "duality", "pirep", "bessel", "kernels", "cli")


def setup() -> dict:
    """Import fsusy and build FieldContext and DualityContext for p = 3, 5,
    7 (the first DualityContext per p runs the convention scan).  Returns
    the milliseconds each context took."""
    import importlib

    for name in MODULES:
        importlib.import_module(f"fsusy.{name}")
    from fsusy.duality import DualityContext
    from fsusy.scalars import FieldContext

    context_ms = {}
    for p in PRIMES:
        t0 = time.perf_counter()
        DualityContext(FieldContext(p))
        context_ms[p] = (time.perf_counter() - t0) * 1e3
    return context_ms


def _new_result():
    return {"ops": [], "attempted": 0, "failed": 0, "problems": [], "values": {}}


# -- exact-suites ----------------------------------------------------------------


def _suites():
    """suite name -> (function, builder of its first argument from a
    FieldContext)."""
    from fsusy.afalg import AAlgebra, a_axiom_suite
    from fsusy.duality import (
        duality_suite,
        fractional_root_suite,
        integral_suite,
        reo_conformance,
    )
    from fsusy.pirep import representation_suite
    from fsusy.ufalg import UAlgebra, u_axiom_suite

    def same(ctx):
        return ctx

    return {
        "u_axiom_suite": (u_axiom_suite, UAlgebra),
        "a_axiom_suite": (a_axiom_suite, AAlgebra),
        "duality_suite": (duality_suite, same),
        "reo_conformance": (reo_conformance, same),
        "fractional_root_suite": (fractional_root_suite, same),
        "representation_suite": (representation_suite, same),
        "integral_suite": (integral_suite, same),
    }


def run_exact(seed: int, tracer) -> dict:
    from fsusy.scalars import FieldContext

    suites = _suites()
    res = _new_result()
    checks = 0
    for name, p, kw in exact_work(seed):
        fn, first_arg = suites[name]
        gc.collect()  # free the last suite's algebra cycles before the next starts
        with tracer.span(name, suite=name, p=p):
            t0 = time.perf_counter()
            try:
                report = fn(first_arg(FieldContext(p)), **kw)
            except Exception as exc:  # the suite itself broke: a failed check
                report, error = None, exc
            dt = time.perf_counter() - t0
        if report is None:
            res["attempted"] += 1
            res["failed"] += 1
            res["problems"].append(f"{name} p={p} raised {error!r}")
            res["ops"].append({"kind": name, "p": p, "dt": None})
            continue
        n_checks = len(report.checks)
        checks += n_checks
        res["attempted"] += n_checks
        res["failed"] += len(report.failures())
        if not report.passed:
            res["problems"].append(f"{name} p={p}: {report.failures()[:3]}")
        res["ops"].append({"kind": name, "p": p, "dt": dt if report.passed else None})
    res["values"]["checks"] = checks
    return res


# -- kernel-grid -----------------------------------------------------------------


def run_kernel_grid(seed: int, tracer) -> dict:
    from fsusy.kernels import d_ladder_suite, kernel_verify

    del seed  # the grid gate and the ladder gates are fixed
    res = _new_result()
    for name, kw in KERNEL_WORK:
        gc.collect()
        label = name if name == "kernel_verify" else f"{name}.n{kw['n']}"
        with tracer.span(label, suite=name):
            t0 = time.perf_counter()
            try:
                if name == "kernel_verify":
                    report = kernel_verify(**kw)
                else:
                    report = d_ladder_suite(n=kw["n"], nu=Fraction(kw["nu"]))
            except Exception as exc:
                report, error = None, exc
            dt = time.perf_counter() - t0
        if report is None:
            res["attempted"] += 1
            res["failed"] += 1
            res["problems"].append(f"{label} raised {error!r}")
            res["ops"].append({"kind": label, "dt": None})
            continue
        bad = len(report.failures())
        res["attempted"] += len(report.checks)
        res["failed"] += bad
        if name == "kernel_verify":
            rows = report.measurements.get("rows", [])
            row_bad = [r for r in rows if not r["rel_err"] < QUADRANT_TOL[r["quadrant"]]]
            res["attempted"] += len(rows)
            res["failed"] += len(row_bad)
            if len(rows) != 324 or row_bad:
                res["problems"].append(
                    f"kernel_verify: {len(rows)} rows, {len(row_bad)} over tolerance"
                )
            # -1 where the report no longer carries a cache count
            contours = report.measurements.get("contour_cache_entries", -1)
            res["values"].update(
                bessel_cache_entries=report.measurements.get("bessel_cache_entries", -1),
                contour_cache_entries=contours,
                retried_rows=sum(bool(r.get("retried")) for r in rows),
                rows_per_contour=len(rows) / contours if contours > 0 else -1,
            )
        if not report.passed:
            res["problems"].append(f"{label}: {report.failures()[:3]}")
        res["ops"].append({"kind": label, "dt": dt if report.passed else None})
    return res


# -- point-queries ---------------------------------------------------------------


def _kernel_value(payload: dict, route: str):
    from mpmath import mp

    with mp.workprec(256):
        return mp.mpmathify(payload[route]["value"].replace(" ", ""))


def _exact_canonical(query: dict, payload: dict) -> str:
    if query["kind"] == "pair":
        return payload["pairing"]["canonical"]
    return payload["normal_form"]


def run_point_queries(seed: int, tracer) -> dict:
    from mpmath import mp

    from fsusy.cli import main

    stream = point_queries(seed)
    res = _new_result()
    canon = []
    fails = dict.fromkeys(QUERY_KINDS, 0)
    kernel_out = {}
    for i, q in enumerate(stream):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(q["kind"], kind=q["kind"], query=i):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(q["argv"])
            except Exception as exc:  # a query that raises is a failed query
                code = None
                err.write(repr(exc))
            dt = time.perf_counter() - t0
        res["attempted"] += 1
        if code != 0:
            res["failed"] += 1
            fails[q["kind"]] += 1
            res["ops"].append({"kind": q["kind"], "dt": None, "error": err.getvalue()[-200:]})
            continue
        res["ops"].append({"kind": q["kind"], "dt": dt})
        try:
            payload = json.loads(out.getvalue())["result"]
        except (ValueError, KeyError):
            res["problems"].append(f"query {i}: no JSON report on stdout")
            continue
        if q["kind"] != "kernel-eval":
            canon.append(f"{i} {q['kind']} {_exact_canonical(q, payload)}")
            continue
        quad = q["point"]["quad"]
        if q["route"] == "both":
            gap = float(payload["relative_gap"])
            if not gap < QUADRANT_TOL[quad]:
                res["problems"].append(f"query {i}: closed vs integral gap {gap} in Q{quad}")
        route = "closed" if "closed" in payload else "integral"
        kernel_out[i] = _kernel_value(payload, route)
        first = q["revisit_of"]
        if first is not None and first in kernel_out:
            # both values are certified to targets of 1e-10 or tighter, so
            # they must agree to the grid's tolerance
            with mp.workprec(256):
                rel = float(abs(kernel_out[i] - kernel_out[first]) / abs(kernel_out[first]))
            if not rel < QUADRANT_TOL[quad]:
                res["problems"].append(f"query {i} revisits {first}: values differ by {rel}")
    res["values"]["canonical"] = canon
    res["values"]["fails"] = fails
    return res


def reference_results(seed: int) -> dict:
    """query index -> canonical result line of each exact query, by the
    library route: shared contexts per p and no command-line layer."""
    from fsusy.afalg import AAlgebra, parse_a
    from fsusy.duality import DualityContext
    from fsusy.scalars import FieldContext
    from fsusy.ufalg import UAlgebra, parse_u

    duals, ualgs, aalgs = {}, {}, {}
    for p in PRIMES:
        ctx = FieldContext(p)
        duals[p], ualgs[p], aalgs[p] = DualityContext(ctx), UAlgebra(ctx), AAlgebra(ctx)
    lines = {}
    for i, q in enumerate(point_queries(seed)):
        if q["kind"] == "kernel-eval":
            continue
        p, (left, right) = q["p"], q["args"]
        dual = duals[p]
        if q["kind"] == "pair":
            text = dual.pair(parse_u(dual.ualg, left), parse_a(dual.aalg, right)).canonical_string()
        elif q["kind"] == "right-act":
            text = str(dual.right_act(parse_u(dual.ualg, left), parse_a(dual.aalg, right)))
        elif q["alg"] == "u":
            text = str(parse_u(ualgs[p], left) * parse_u(ualgs[p], right))
        else:
            text = str(parse_a(aalgs[p], left) * parse_a(aalgs[p], right))
        lines[i] = f"{i} {q['kind']} {text}"
    return lines


RUNNERS = {
    "exact-suites": run_exact,
    "kernel-grid": run_kernel_grid,
    "point-queries": run_point_queries,
}
