"""Batch verification sweeps over (field, n) grids."""

import json
import math
import time
from dataclasses import dataclass, field as dc_field

from . import codes, tensor
from .cyclotomic import profile, verify_factorization
from .errors import BudgetExceeded, ConfigInvalid
from .field import is_prime, parse_field
from .report import THEOREM_IDS, VerificationRecord

DEFAULT_FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2"]
DEFAULT_THEOREMS = [t for t in THEOREM_IDS if t != "CONJECTURE-CN1-DUAL"]


@dataclass
class SweepConfig:
    fields: list = dc_field(default_factory=lambda: list(DEFAULT_FIELDS))
    n_range: tuple = (2, 30)
    budget: int = codes.DEFAULT_BUDGET
    output: str | None = None
    format: str = "csv"
    theorems: list = dc_field(default_factory=lambda: list(DEFAULT_THEOREMS))

    def validate(self):
        if self.budget < 1:
            raise ConfigInvalid("budget must be >= 1")
        lo, hi = self.n_range
        if lo < 2 or hi < lo:
            raise ConfigInvalid("n_range lower bound must be >= 2 and <= upper")
        if self.format not in ("csv", "json"):
            raise ConfigInvalid(f"unknown format {self.format!r}")
        unknown = [t for t in self.theorems if t not in THEOREM_IDS]
        if unknown:
            raise ConfigInvalid(f"unknown theorem ids: {unknown}")
        for lit in self.fields:
            try:
                parse_field(lit)
            except Exception as exc:
                raise ConfigInvalid(f"bad field literal {lit!r}: {exc}") from exc
        return self

    @classmethod
    def from_dict(cls, d):
        known = {"fields", "n_range", "budget", "output", "format", "theorems"}
        extra = set(d) - known
        if extra:
            raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
        cfg = cls(
            fields=[str(f) for f in d.get("fields", DEFAULT_FIELDS)],
            n_range=tuple(d.get("n_range", (2, 30))),
            budget=int(d.get("budget", codes.DEFAULT_BUDGET)),
            output=d.get("output"),
            format=d.get("format", "csv"),
            theorems=list(d.get("theorems", DEFAULT_THEOREMS)),
        )
        return cfg.validate()

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("config must be a JSON object")
        return cls.from_dict(data)


def _coprime_split(n):
    """Canonical split n = p1^a1 * rest with coprime factors > 1, or None."""
    pr = profile(n)
    if pr.omega < 2:
        return None
    p1, a1 = pr.factorization[0]
    n1 = p1 ** a1
    return n1, n // n1


def _measure_distance(obj, budget):
    try:
        return codes.min_distance(obj, budget=budget).d, None
    except BudgetExceeded as exc:
        return None, f"distance skipped (needs {exc.required} codewords)"


def _check_distance_theorem(theorem, n, ctx, budget):
    pr = profile(n)
    if theorem == "CN-DIST":
        code = codes.build_Cn(n, ctx)
        claimed = (n, n - pr.phi, pr.lpf)
    elif theorem == "CN1-DIST":
        code = codes.build_Cn1(n, ctx)
        claimed = (n, n - pr.phi - 1, 2 * pr.lpf)
    else:  # CN-DUAL-DIST
        code = codes.dual(codes.build_Cn(n, ctx))
        claimed = (n, pr.phi, 2 ** pr.omega)
    d, note = _measure_distance(code, budget)
    measured = (code.n, code.k, d)
    if d is None:
        status = "skipped" if measured[:2] == claimed[:2] else "fail"
    else:
        status = "pass" if measured == claimed else "fail"
    return claimed, measured, status, note or ""


def _run_row(theorem, q, n, ctx, budget):
    t0 = time.perf_counter()
    if math.gcd(n, q) != 1:
        return VerificationRecord(
            theorem_id=theorem, q=q, n=n, status="n/a", note="gcd(n, q) != 1"
        )
    if theorem == "FACTORIZATION":
        ok = verify_factorization(n, ctx)
        return VerificationRecord(
            theorem_id=theorem,
            q=q,
            n=n,
            status="pass" if ok else "fail",
            elapsed=time.perf_counter() - t0,
        )
    if theorem in ("CN1-DIST", "CN1-DUAL-SUM") and is_prime(n):
        return VerificationRecord(
            theorem_id=theorem, q=q, n=n, status="n/a", note="n is prime"
        )
    if theorem in ("CN-DIST", "CN1-DIST", "CN-DUAL-DIST"):
        claimed, measured, status, note = _check_distance_theorem(
            theorem, n, ctx, budget
        )
        return VerificationRecord(
            theorem_id=theorem,
            q=q,
            n=n,
            claimed=claimed,
            measured=measured,
            status=status,
            elapsed=time.perf_counter() - t0,
            note=note,
        )
    if theorem == "CN1-DUAL-SUM":
        lhs = codes.sum_codes(
            codes.dual(codes.build_Cn(n, ctx)), codes.build_repetition(n, ctx)
        )
        rhs = codes.dual(codes.build_Cn1(n, ctx))
        ok = codes.same_code(lhs, rhs)
        pr = profile(n)
        return VerificationRecord(
            theorem_id=theorem,
            q=q,
            n=n,
            claimed=(n, pr.phi + 1, None),
            measured=(n, lhs.num_rows, None),
            status="pass" if ok and lhs.num_rows == pr.phi + 1 else "fail",
            elapsed=time.perf_counter() - t0,
        )
    if theorem == "TENSOR-EQUIV":
        split = _coprime_split(n)
        if split is None:
            return VerificationRecord(
                theorem_id=theorem,
                q=q,
                n=n,
                status="n/a",
                note="no coprime factorization",
            )
        return tensor.verify_tensor_dual(split[0], split[1], ctx, budget=budget)
    raise ConfigInvalid(f"unknown theorem {theorem!r}")


def sweep(cfg):
    """One record per (theorem, field, n) in deterministic order."""
    cfg.validate()
    records = []
    lo, hi = cfg.n_range
    for lit in cfg.fields:
        ctx = parse_field(lit)
        for n in range(lo, hi + 1):
            for theorem in cfg.theorems:
                if theorem == "CONJECTURE-CN1-DUAL":
                    records.extend(_conjecture_rows(ctx, n, cfg.budget))
                    continue
                records.append(_run_row(theorem, ctx.q, n, ctx, cfg.budget))
    return records


def _conjecture_rows(ctx, n, budget):
    q = ctx.q
    if math.gcd(n, q) != 1:
        return [
            VerificationRecord(
                theorem_id="CONJECTURE-CN1-DUAL",
                q=q,
                n=n,
                status="n/a",
                note="gcd(n, q) != 1",
            )
        ]
    if is_prime(n):
        return [
            VerificationRecord(
                theorem_id="CONJECTURE-CN1-DUAL",
                q=q,
                n=n,
                status="n/a",
                note="n is prime",
            )
        ]
    t0 = time.perf_counter()
    pr = profile(n)
    dual_cn1 = codes.dual(codes.build_Cn1(n, ctx))
    lemma_ok = codes.same_code(
        codes.sum_codes(
            codes.dual(codes.build_Cn(n, ctx)), codes.build_repetition(n, ctx)
        ),
        dual_cn1,
    )
    conjectured = (n, pr.phi + 1, 2 ** pr.omega)
    d, note = _measure_distance(dual_cn1, budget)
    measured = (dual_cn1.n, dual_cn1.k, d)
    if not lemma_ok or measured[:2] != conjectured[:2]:
        status = "fail"
    elif d is None:
        status = "skipped"
    else:
        status = "observed"
    return [
        VerificationRecord(
            theorem_id="CONJECTURE-CN1-DUAL",
            q=q,
            n=n,
            claimed=conjectured,
            measured=measured,
            status=status,
            elapsed=time.perf_counter() - t0,
            note=note or "",
        )
    ]


def conjecture_check(cfg):
    """Observed-only rows for the open dual-of-C_{n,1} distance question."""
    cfg.validate()
    records = []
    lo, hi = cfg.n_range
    for lit in cfg.fields:
        ctx = parse_field(lit)
        for n in range(lo, hi + 1):
            records.extend(_conjecture_rows(ctx, n, cfg.budget))
    return records
