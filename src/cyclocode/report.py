"""Verification records and CSV/JSON emission."""

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice

from .errors import CycloError

FORMATS = ("csv", "json")

# JSON tokens joined per write: json.dump writes each token on its own (about
# 60,000 writes for 1,155 records), and json.dumps holds them all at once
# (about 2.6 MB for those records) before its one write.
_JSON_BLOCK = 4096

CSV_COLUMNS = [
    "theorem_id",
    "q",
    "n",
    "n1",
    "n2",
    "claimed_n",
    "claimed_k",
    "claimed_d",
    "measured_n",
    "measured_k",
    "measured_d",
    "status",
    "elapsed_s",
]

THEOREM_IDS = (
    "CN-DIST",
    "CN1-DIST",
    "CN-DUAL-DIST",
    "TENSOR-EQUIV",
    "CN1-DUAL-SUM",
    "FACTORIZATION",
    "CONJECTURE-CN1-DUAL",
)


@dataclass
class VerificationRecord:
    theorem_id: str
    q: int
    n: int | None = None
    n1: int | None = None
    n2: int | None = None
    claimed: tuple = (None, None, None)  # (n, k, d)
    measured: tuple = (None, None, None)
    status: str = "n/a"
    elapsed: float = 0.0
    note: str = ""

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "q": self.q,
            "n": self.n,
            "n1": self.n1,
            "n2": self.n2,
            "claimed": list(self.claimed),
            "measured": list(self.measured),
            "status": self.status,
            "elapsed_s": round(self.elapsed, 3),
            "note": self.note,
        }

    def to_csv_row(self):
        """to_dict's values up to status, triples spread and None as "",
        then the elapsed time to three places."""
        values = list(self.to_dict().values())[:-2]  # all but elapsed_s and note
        flat = [x for v in values for x in (v if isinstance(v, list) else [v])]
        return ["" if v is None else v for v in flat] + [f"{self.elapsed:.3f}"]


def zero_elapsed(records):
    """Copies of records with their elapsed times zeroed."""
    return [replace(r, elapsed=0.0) for r in records]


def emit_report(records, fmt, path):
    """Write records as csv or json to path, or to an open text stream.

    Elapsed times are the only run-dependent field: pass the records through
    zero_elapsed first for identical files from identical configs.
    """
    if fmt not in FORMATS:
        raise CycloError(f"unknown report format {fmt!r}")
    try:
        with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                writer.writerows(r.to_csv_row() for r in records)
            else:
                chunks = json.JSONEncoder(indent=2).iterencode([r.to_dict() for r in records])
                while block := "".join(islice(chunks, _JSON_BLOCK)):
                    fh.write(block)
                fh.write("\n")
    except OSError as exc:
        raise CycloError(str(exc)) from exc
    return path
