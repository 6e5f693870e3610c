"""fsusy benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload exact-suites --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; fsusy is imported from its `src`, nothing
is installed.  Every measurement happens in fresh child interpreters
(worker.py), one at a time, so module caches never carry over between
passes.

--trace 0  set-up probes, then back-to-back passes of the workload's fixed
           work list until --seconds have gone by (at least one pass).
           Prints the end-to-end metrics as medians over the passes.
--trace 1  set-up probes, the micro-cost harness, one traced pass of every
           workload, and one untraced pass each of kernel-grid and
           point-queries to measure the tracing overhead.  Prints the
           per-layer metrics and writes every span to
           .perfbench-out/trace-<workload>-seed<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Output checks that fail set correct to
false; an honest PrecisionError from a query is a failed operation only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import QUERY_KINDS, exact_work  # noqa: E402
from worker import MARK  # noqa: E402

WORKLOADS = ("exact-suites", "kernel-grid", "point-queries")
SETUP_PROBES = 5
TIME_LIMIT_S = 170  # everything one invocation starts must end by then
OUT_DIR = ".perfbench-out"
DIGESTS = HERE / "digests.json"  # written by make_digests.py


class BenchError(RuntimeError):
    pass


def run_child(job: dict, deadline: float):
    """Run one worker job; return (set-up seconds, result dict).  Set-up is
    timed from process start to the worker's ready line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        msgs = []
        setup_s = None
        for line in proc.stdout:
            if not line.startswith(MARK):
                continue
            msg = json.loads(line[len(MARK):])
            if msg["event"] == "ready":
                setup_s = time.perf_counter() - t0
            msgs.append(msg)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or len(msgs) != 2:
        raise BenchError(f"worker {job['job']} {job.get('workload', '')} exited with {code}")
    return setup_s, msgs[1]


def requests(workload: str, res: dict) -> list:
    """Latencies of the requests in one pass, None for a failed one.  A
    request is one query in point-queries; in the batch workloads it is the
    whole work list, which a user runs as one unit."""
    if workload == "point-queries":
        return [op["dt"] for op in res["ops"]]
    return [None if res["failed"] else res["wall_s"]]


def latency_ms(samples, q: float, stand_in: float) -> float:
    """Nearest-rank percentile in ms.  A failed request is infinitely late;
    if the percentile lands on one, `stand_in` seconds are reported."""
    ordered = sorted(math.inf if s is None else s for s in samples)
    v = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return 1e3 * (stand_in if math.isinf(v) else v)


def digest(reference: dict) -> str:
    """The digest of the exact queries' canonical results."""
    lines = [reference[k] for k in sorted(reference, key=int)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_reference(seed: int, reference: dict) -> list:
    """The library route's results against the recorded digest, where the
    table has the seed."""
    got = digest(reference)
    want = json.loads(DIGESTS.read_text()).get(str(seed))
    print(f"{len(reference)} exact queries, digest {got}, recorded {want}")
    if want is not None and got != want:
        return [f"exact results differ from the recorded digest for seed {seed}"]
    return []


def check_queries(result: dict, reference: dict) -> list:
    """Exact query results of the CLI against the library route, line by
    line."""
    problems = []
    for line in result["values"]["canonical"]:
        index = line.split(" ", 1)[0]
        if reference.get(index) != line:
            problems.append(f"query {index}: CLI gave {line!r}, library {reference.get(index)!r}")
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- untraced run ------------------------------------------------------------


def end_to_end(args, deadline):
    job = {"seed": args.seed, "trace": 0, "run": f"{args.workload}-s{args.seed}"}
    setups = [run_child(dict(job, job="setup"), deadline)[0] for _ in range(SETUP_PROBES)]
    passes = []
    start, longest = time.perf_counter(), 0.0
    # another pass while --seconds last and it can finish before the deadline
    while not passes or (time.perf_counter() - start < args.seconds
                         and time.perf_counter() + 2 * longest < deadline):
        t0 = time.perf_counter()
        setup_s, res = run_child(dict(job, job="pass", workload=args.workload), deadline)
        longest = max(longest, time.perf_counter() - t0)
        setups.append(setup_s)
        passes.append(res)
    problems = [p for res in passes for p in res["problems"]]
    if args.workload == "point-queries":
        reference = run_child(dict(job, job="reference"), deadline)[1]["lines"]
        problems += check_reference(args.seed, reference)
        for res in passes:
            problems += check_queries(res, reference)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    walls = [r["wall_s"] for r in passes]
    lat = [x for r in passes for x in requests(args.workload, r)]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in passes), "MB"),
        "queries_per_s": metric(sum(x is not None for x in lat) / sum(walls), "1/s"),
        "query_p50_ms": metric(latency_ms(lat, 0.50, max(walls)), "ms"),
        "query_p95_ms": metric(latency_ms(lat, 0.95, max(walls)), "ms"),
    }
    for i, res in enumerate(passes):
        print(f"pass {i}: wall {res['wall_s']:.3f} s, {res['attempted']} attempted, "
              f"{res['failed']} failed, peak rss {res['rss_mb']:.1f} MB")
    print(f"{len(passes)} passes; latency percentiles over {len(lat)} requests; "
          f"set-up median over {len(setups)} starts")
    for op in passes[0]["ops"]:
        if op["dt"] is None:
            print(f"failed {op['kind']}: {op.get('error', '').strip()}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return not problems, attempted, failed, metrics


# -- traced run ----------------------------------------------------------------


def span_seconds(spans, name, **attrs):
    hits = [s for s in spans if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]
    if len(hits) != 1:
        raise BenchError(f"expected one span {name} {attrs}, found {len(hits)}")
    return hits[0]["end"] - hits[0]["start"]


def per_layer(args, deadline):
    run_id = f"{args.workload}-s{args.seed}-trace"
    job = {"seed": args.seed, "trace": 1, "run": run_id, "parent": run_id}
    spans = []
    context_ms = {3: [], 5: [], 7: []}
    for i in range(SETUP_PROBES):
        _, res = run_child(dict(job, job="setup", run=f"{run_id}/setup{i}"), deadline)
        for p, ms in res["context_ms"].items():
            context_ms[int(p)].append(ms)
        spans += res["spans"]
    _, res = run_child(dict(job, job="micro", run=f"{run_id}/micro"), deadline)
    spans += res["spans"]
    metrics = {name: metric(v, name.split(".")[1].split("_")[-1]) for name, v in res["micro"].items()}
    for p, vals in context_ms.items():
        metrics[f"duality.context_ms.p{p}"] = metric(statistics.median(vals), "ms")

    traced = {}
    for w in WORKLOADS:
        _, traced[w] = run_child(dict(job, job="pass", workload=w, run=f"{run_id}/{w}"), deadline)
        spans += traced[w]["spans"]
    problems = [p for res in traced.values() for p in res["problems"]]
    reference = run_child(dict(job, job="reference", trace=0), deadline)[1]["lines"]
    problems += check_reference(args.seed, reference)
    problems += check_queries(traced["point-queries"], reference)
    for w in ("kernel-grid", "point-queries"):
        _, plain = run_child(dict(job, job="pass", workload=w, trace=0), deadline)
        metrics[f"trace.overhead_s.{w}"] = metric(traced[w]["wall_s"] - plain["wall_s"], "s")

    ex = traced["exact-suites"]["spans"]
    for name, p, _ in exact_work(args.seed):
        metrics[f"exact-suites.{name}_s.p{p}"] = metric(span_seconds(ex, name, p=p), "s")
    metrics["exact-suites.checks"] = metric(traced["exact-suites"]["values"]["checks"], "count")

    kg = traced["kernel-grid"]
    metrics["kernel-grid.kernel_verify_s"] = metric(span_seconds(kg["spans"], "kernel_verify"), "s")
    for n in (0, 1):
        metrics[f"kernel-grid.d_ladder_suite_s.n{n}"] = metric(
            span_seconds(kg["spans"], f"d_ladder_suite.n{n}"), "s")
    for key, unit in (("bessel_cache_entries", "count"), ("contour_cache_entries", "count"),
                      ("retried_rows", "count"), ("rows_per_contour", "ratio")):
        metrics[f"kernel-grid.{key}"] = metric(kg["values"][key], unit)

    pq = traced["point-queries"]
    for kind in QUERY_KINDS:
        durations = [s["end"] - s["start"] for s in pq["spans"] if s.get("kind") == kind]
        metrics[f"point-queries.cli_ms.{kind}"] = metric(1e3 * statistics.median(durations), "ms")
        metrics[f"point-queries.fail.{kind}"] = metric(pq["values"]["fails"][kind], "count")

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"run": run_id, "spans": spans}) + "\n")
    print(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    own = traced[args.workload]
    return not problems, own["attempted"], own["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsusy" / "__init__.py").is_file():
        print(f"error: no fsusy sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        correct, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
