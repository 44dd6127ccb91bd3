"""Verification records and CSV/JSON emission."""

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, replace

from .errors import CycloError

FORMATS = ("csv", "json")

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


# One record as json.dumps(records, indent=2) writes it, with to_dict's keys;
# _json_record fills in the values in that order.
_JSON_RECORD = "  {{\n" + ",\n".join(
    f'    "{key}": {{}}' for key in VerificationRecord("", 0).to_dict()
) + "\n  }}"


def _json_value(v):
    """v as json writes it: None and ints directly, anything else through
    json.dumps, which escapes strings to ASCII in C."""
    if v is None:
        return "null"
    if type(v) is int:
        return str(v)
    return json.dumps(v)


def _json_list(values):
    """A list inside a record, one item a line."""
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(_json_value, values)) + "\n    ]"


def _json_record(r):
    """r.to_dict() as json.dumps(..., indent=2) writes it inside a list; the
    elapsed time goes through repr, as json writes a float."""
    return _JSON_RECORD.format(
        *map(_json_value, (r.theorem_id, r.q, r.n, r.n1, r.n2)),
        _json_list(r.claimed), _json_list(r.measured), _json_value(r.status),
        repr(round(r.elapsed, 3)), _json_value(r.note),
    )


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
                # one write per record: the report is never held whole
                sep = "[\n"
                for r in records:
                    fh.write(sep + _json_record(r))
                    sep = ",\n"
                fh.write("[]\n" if sep == "[\n" else "\n]\n")
    except OSError as exc:
        raise CycloError(str(exc)) from exc
    return path
