"""Verification records and CSV/JSON emission."""

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import CycloError

FORMATS = ("csv", "json")


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


# The record layout, read off to_dict's keys. The CSV header spreads each
# (n, k, d) triple over three columns and leaves out the note, as to_csv_row
# does; _JSON_RECORD is one record as json.dumps(records, indent=2) writes it,
# which _json_record fills in with the values in that order.
_LAYOUT = VerificationRecord("", 0).to_dict()
CSV_COLUMNS = [
    column for key, value in _LAYOUT.items() if key != "note"
    for column in ([f"{key}_{x}" for x in "nkd"] if isinstance(value, list) else [key])
]
_JSON_RECORD = "  {{\n" + ",\n".join(f'    "{key}": {{}}' for key in _LAYOUT) + "\n  }}"


def _json_value(v):
    """v as json writes it: None and ints directly, a str by the C escape to
    ASCII that json.dumps uses, anything else through json.dumps."""
    if v is None:
        return "null"
    if type(v) is int:
        return str(v)
    if type(v) is str:
        return encode_basestring_ascii(v)
    return json.dumps(v)


def _json_list(values):
    """A list inside a record, one item a line."""
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(_json_value, values)) + "\n    ]"


def _json_record(r, deterministic):
    """r.to_dict() as json.dumps(..., indent=2) writes it inside a list; the
    elapsed time goes through repr, as json writes a float, or is 0.0 if
    deterministic."""
    return _JSON_RECORD.format(
        *map(_json_value, (r.theorem_id, r.q, r.n, r.n1, r.n2)),
        _json_list(r.claimed), _json_list(r.measured), _json_value(r.status),
        "0.0" if deterministic else repr(round(r.elapsed, 3)), _json_value(r.note),
    )


def emit_report(records, fmt, path, deterministic=False):
    """Write records as csv or json to path, or to an open text stream.

    Elapsed times are the only run-dependent field: deterministic writes each
    as 0, for identical files from identical configs, and leaves the records
    as they are, so a caller that keeps them keeps their times.
    """
    if fmt not in FORMATS:
        raise CycloError(f"unknown report format {fmt!r}")
    try:
        with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for r in records:
                    row = r.to_csv_row()
                    if deterministic:
                        row[-1] = "0.000"
                    writer.writerow(row)
            else:
                # one write per record: the report is never held whole
                sep = "[\n"
                for r in records:
                    fh.write(sep + _json_record(r, deterministic))
                    sep = ",\n"
                fh.write("[]\n" if sep == "[\n" else "\n]\n")
    except BrokenPipeError:
        raise  # the reader of a stream left early: the caller's exit, not a report error
    except OSError as exc:
        raise CycloError(str(exc)) from exc
    return path
