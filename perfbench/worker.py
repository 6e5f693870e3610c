"""Child process of the benchmark: one fresh, single-threaded interpreter.

Usage (from run.py): python3 perfbench/worker.py '<job as JSON>'

The job is {"job": "setup" | "pass" | "micro" | "reference", "workload",
"seed", "trace", "run", "parent"}; `run` and `parent` label the spans.
The worker imports fsusy from the checkout's `src`, sets up (see
workloads.setup), prints a ready line, does the job and prints one result
line.  Protocol lines start with MARK; anything else
on stdout is ignored by the parent.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MARK = "@@perfbench "
ROOT = Path(__file__).resolve().parent.parent


def emit(obj) -> None:
    sys.stdout.write(MARK + json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import fsusy

    if Path(fsusy.__file__).resolve().parent != ROOT / "src" / "fsusy":
        print(f"fsusy imported from {fsusy.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import workloads
    from tracing import NullTracer, Tracer

    tracer = Tracer(job["run"], job.get("parent")) if job.get("trace") else NullTracer()
    with tracer.span("setup"):
        context_ms = workloads.setup()
    emit({"event": "ready", "context_ms": context_ms})

    result = {"event": "done", "context_ms": context_ms}
    seed = job["seed"]
    if job["job"] == "pass":
        t0 = time.perf_counter()
        with tracer.span(f"pass.{job['workload']}", workload=job["workload"]):
            result.update(workloads.RUNNERS[job["workload"]](seed, tracer))
        result["wall_s"] = time.perf_counter() - t0
    elif job["job"] == "micro":
        import micro

        result["micro"] = micro.micro_costs(seed, tracer)
    elif job["job"] == "reference":
        result["lines"] = workloads.reference_results(seed)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["spans"] = tracer.spans
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
