"""Write the reference verdicts the sweep workloads are gated against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout at a commit whose sweeps are trusted.
Each sweep config under configs/ gives reference/<workload>.json: one entry
per record, holding the fields that must not change between commits.
"""

import json
import sys
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cyclocode.verify import SweepConfig, sweep  # noqa: E402


def main():
    for path in sorted((HERE / "configs").glob("sweep-*.json")):
        records = sweep(SweepConfig.from_file(str(path)))
        dicts = [r.to_dict() for r in records]
        rows = [gate.reference_row(d) for d in dicts]
        bad = gate.check_sweep(dicts, rows, 0)
        if bad:
            sys.exit(f"{path.stem}: refusing to store failing rows: {bad[:3]}")
        out = HERE / "reference" / f"{path.stem}.json"
        out.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
        print(f"{out.relative_to(HERE.parent)}: {len(rows)} rows")


if __name__ == "__main__":
    main()
