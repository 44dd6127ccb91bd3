"""Batch verification sweeps over (field, n) grids.

`sweep` makes one record per (field, n, theorem id). A theorem that does not
apply at (q, n) gives an `n/a` row; otherwise the theorem's check in
`_CHECKS` measures it and returns (claimed, measured, status, note).
CN-DUAL-DIST and TENSOR-EQUIV claim the same distance of dual(C_n): the one
`dual_cn_row` measures and judges it for both.
"""

import json
import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import codes, tensor
from .cyclotomic import profile, verify_factorization
from .errors import BudgetExceeded, ConfigInvalid, CycloError, InvalidArgument
from .field import is_int, is_prime, parse_field
from .report import FORMATS, THEOREM_IDS, VerificationRecord

DEFAULT_FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2"]
DEFAULT_THEOREMS = [t for t in THEOREM_IDS if t != "CONJECTURE-CN1-DUAL"]
# C_{n,1} is the zero code at prime n.
_COMPOSITE_ONLY = ("CN1-DIST", "CN1-DUAL-SUM", "CONJECTURE-CN1-DUAL")


def _is_str(v):
    return isinstance(v, str)


def _list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))


# Each config key, the test its value must pass, and what that value must be.
_CONFIG_TYPES = {
    "fields": (_list_of(lambda f: _is_str(f) or is_int(f)), "a list of fields"),
    "n_range": (lambda v: _list_of(is_int)(v) and len(v) == 2, "two integers"),
    "budget": (is_int, "an integer"),
    "output": (lambda v: v is None or _is_str(v), "a path"),
    "format": (_is_str, "a string"),
    "theorems": (_list_of(_is_str), "a list of theorem ids"),
}


@dataclass
class SweepConfig:
    fields: list = dc_field(default_factory=lambda: list(DEFAULT_FIELDS))
    n_range: tuple = (2, 30)
    budget: int = codes.DEFAULT_BUDGET
    output: str | None = None
    format: str = "csv"
    theorems: list = dc_field(default_factory=lambda: list(DEFAULT_THEOREMS))

    def validate(self):
        for key, (ok, kind) in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if not ok(value):
                raise ConfigInvalid(f"{key} must be {kind}, got {value!r}")
        try:
            codes.check_budget(self.budget)
        except InvalidArgument as exc:
            raise ConfigInvalid(str(exc)) from exc
        lo, hi = self.n_range
        if lo < 2 or hi < lo:
            raise ConfigInvalid("n_range lower bound must be >= 2 and <= upper")
        if self.format not in FORMATS:
            raise ConfigInvalid(f"unknown format {self.format!r}")
        unknown = [t for t in self.theorems if t not in THEOREM_IDS]
        if unknown:
            raise ConfigInvalid(f"unknown theorem ids: {unknown}")
        for lit in self.fields:
            try:
                parse_field(lit)
            except CycloError as exc:
                raise ConfigInvalid(f"bad field literal {lit!r}: {exc}") from exc
        return self

    @classmethod
    def from_dict(cls, d):
        extra = set(d) - set(_CONFIG_TYPES)
        if extra:
            raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
        cfg = cls(**d).validate()
        cfg.fields = [str(f) for f in cfg.fields]
        cfg.n_range = tuple(cfg.n_range)
        return cfg

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a huge int
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("config must be a JSON object")
        return cls.from_dict(data)


def _coprime_split(pr):
    """Canonical split n = p1^a1 * rest with coprime factors > 1, or None."""
    if pr.omega < 2:
        return None
    p1, a1 = pr.factorization[0]
    n1 = p1 ** a1
    return n1, pr.n // n1


def _distance_row(code, claimed, budget, proved=True):
    """Compare the (n, k, d) of code with claimed.

    A wrong n or k fails. A distance beyond the budget is `skipped`. A proved
    distance passes or fails; an open one is only `observed`.
    """
    try:
        d, note = codes.min_distance(code, budget=budget).d, ""
    except BudgetExceeded as exc:
        d, note = None, f"distance skipped (needs {exc.required} codewords)"
    measured = (code.n, code.k, d)
    if measured[:2] != claimed[:2]:
        status = "fail"
    elif d is None:
        status = "skipped"
    elif not proved:
        status = "observed"
    else:
        status = "pass" if d == claimed[2] else "fail"
    return claimed, measured, status, note


def _dual_sum_lemma(ctx, n):
    """(dual(C_n) + R_n, dual(C_{n,1}), whether the two codes are equal)."""
    lhs = codes.sum_codes(
        codes.dual(codes.build_Cn(n, ctx)), codes.build_repetition(n, ctx)
    )
    rhs = codes.dual(codes.build_Cn1(n, ctx))
    return lhs, rhs, codes.same_code(lhs, rhs)


def _cn_dist(ctx, pr, budget):
    claimed = (pr.n, pr.n - pr.phi, pr.lpf)
    return _distance_row(codes.build_Cn(pr.n, ctx), claimed, budget)


def _cn1_dist(ctx, pr, budget):
    claimed = (pr.n, pr.n - pr.phi - 1, 2 * pr.lpf)
    return _distance_row(codes.build_Cn1(pr.n, ctx), claimed, budget)


@lru_cache(maxsize=1)
def dual_cn_row(ctx, pr, budget):
    """The CN-DUAL-DIST row, dual(C_n) against (n, phi(n), 2^omega(n)).

    TENSOR-EQUIV claims the same distance and takes it from here; the cached
    row lets the two theorems of one (field, n) walk dual(C_n) once.
    """
    claimed = (pr.n, pr.phi, 2 ** pr.omega)
    return _distance_row(codes.dual(codes.build_Cn(pr.n, ctx)), claimed, budget)


def _tensor_equiv(ctx, pr, budget):
    rec = tensor.verify_tensor_dual(*_coprime_split(pr), ctx, budget=budget)
    return rec.claimed, rec.measured, rec.status, rec.note


def _cn1_dual_sum(ctx, pr, budget):
    lhs, _, equal = _dual_sum_lemma(ctx, pr.n)
    k = pr.phi + 1
    status = "pass" if equal and lhs.num_rows == k else "fail"
    return (pr.n, k, None), (pr.n, lhs.num_rows, None), status, ""


def _factorization(ctx, pr, budget):
    status = "pass" if verify_factorization(pr.n, ctx) else "fail"
    return (None, None, None), (None, None, None), status, ""


def _conjecture_cn1_dual(ctx, pr, budget):
    _, dual_cn1, lemma_ok = _dual_sum_lemma(ctx, pr.n)
    claimed, measured, status, note = _distance_row(
        dual_cn1, (pr.n, pr.phi + 1, 2 ** pr.omega), budget, proved=False
    )
    return claimed, measured, status if lemma_ok else "fail", note


# (ctx, profile of n, budget) -> (claimed, measured, status, note)
_CHECKS = {
    "CN-DIST": _cn_dist,
    "CN1-DIST": _cn1_dist,
    "CN-DUAL-DIST": dual_cn_row,
    "TENSOR-EQUIV": _tensor_equiv,
    "CN1-DUAL-SUM": _cn1_dual_sum,
    "FACTORIZATION": _factorization,
    "CONJECTURE-CN1-DUAL": _conjecture_cn1_dual,
}


def _not_applicable(theorem, q, pr):
    """Why theorem does not apply at (q, n), or None when it does."""
    if math.gcd(pr.n, q) != 1:
        return "gcd(n, q) != 1"
    if theorem in _COMPOSITE_ONLY and is_prime(pr.n):
        return "n is prime"
    if theorem == "TENSOR-EQUIV" and _coprime_split(pr) is None:
        return "no coprime factorization"
    return None


def sweep(cfg):
    """One record per (field, n, theorem), ordered by field, then n, then theorem."""
    cfg.validate()
    records = []
    lo, hi = cfg.n_range
    for lit in cfg.fields:
        ctx = parse_field(lit)
        for n in range(lo, hi + 1):
            pr = profile(n)
            for theorem in cfg.theorems:
                reason = _not_applicable(theorem, ctx.q, pr)
                if reason:
                    records.append(
                        VerificationRecord(theorem, ctx.q, n, status="n/a", note=reason)
                    )
                    continue
                t0 = time.perf_counter()
                claimed, measured, status, note = _CHECKS[theorem](ctx, pr, cfg.budget)
                split = _coprime_split(pr) if theorem == "TENSOR-EQUIV" else None
                n1, n2 = split or (None, None)
                records.append(
                    VerificationRecord(
                        theorem_id=theorem, q=ctx.q, n=n, n1=n1, n2=n2,
                        claimed=claimed, measured=measured, status=status,
                        elapsed=time.perf_counter() - t0, note=note,
                    )
                )
    return records
