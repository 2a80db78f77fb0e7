"""Regenerate the stored reference outputs under reference/.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good: the output check
compares every later run against these files. Sweeps keep a fixed random
sample of CSV rows, spread over every grid column; the point workload keeps the full results of a fixed
reference stream of requests.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

SAMPLE_ROWS = 200


def main() -> int:
    import azqsl
    import azqsl.errors
    import checks
    import workloads
    from worker import OUT_DIR, environment

    for name, cls in workloads.SWEEPS.items():
        work = cls(azqsl, OUT_DIR / name)
        work.run_pass()
        text = work.read_output()
        header = checks.csv_header(text)
        lines = text.split("\n")[1:-1]
        picked = sorted(random.Random(0).sample(range(len(lines)), min(SAMPLE_ROWS, len(lines))))
        ref = {
            "header": header,
            "n_rows": len(lines),
            "rtol": checks.RTOL,
            "atol": checks.ATOL,
            "env": environment(),
            "rows": [[i, lines[i]] for i in picked],
        }
        _write(name, ref)
    requests = workloads.reference_requests()
    ref = {
        "seed": workloads.REFERENCE_SEED,
        "rtol": checks.RTOL,
        "atol": checks.ATOL,
        "env": environment(),
        "requests": requests,
        "results": [workloads.jsonable(workloads.evaluate(azqsl, req)) for req in requests],
    }
    _write("points_mixed", ref)
    return 0


def _write(name: str, ref: dict) -> None:
    import checks

    path = checks.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
