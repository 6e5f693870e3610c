"""Record the per-seed digest of the point-queries exact results.

    python3 perfbench/make_digests.py

Computes every exact query of seeds 0..999 through the library and writes
their digests to perfbench/digests.json.  run.py checks each run's results
against this table, so a change that alters an exact result is caught even
when the CLI and the library agree with each other.  Regenerate only when
the query generator in inputs.py changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import DIGESTS, digest  # noqa: E402
from workloads import reference_results  # noqa: E402

if __name__ == "__main__":
    table = {str(seed): digest(reference_results(seed)) for seed in range(1000)}
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n")
