"""Smoke test of the benchmark itself, on tiny grids; finishes in seconds.

    python3 perfbench/smoke.py

Run from the root of a source checkout. Checks that:
  - every workload reports exactly the metrics BENCHMARK.json names, untraced
    and traced, each a finite number;
  - spans count calls made through the modules that import a function by name;
  - the correctness gate trips on corrupted records, both in the gate's own
    functions and end to end through a run;
  - a skipped row that becomes decided with the paper's distance still passes.
Exits non-zero at the first failed check.
"""

import contextlib
import copy
import io
import json
import math
import sys
from types import SimpleNamespace

import gate
import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_config(name):
    cfg = json.loads((run.HERE / "configs" / f"{name}.json").read_text())
    if name == "code-inspect":
        cfg.update(n_range=[3, 12], extension_limit=64, weights_budget=4096)
    else:
        cfg.update(n_range=[2, 12], budget=min(cfg.get("budget", 4096), 4096))
    path = run.OUT_DIR / f"smoke-{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def tiny_sweep_rows(pkg, config_path):
    records = pkg.verify.sweep(pkg.verify.SweepConfig.from_file(str(config_path)))
    return [r.to_dict() for r in records]


class CorruptedSweep(run.Sweep):
    """Adds one to the first decided distance in the report before checking it."""

    def check(self, exit_code):
        rows = json.loads(self.out_path.read_text())
        row = next(r for r in rows if r["status"] == "pass" and r["measured"][2])
        row["measured"][2] += 1
        self.out_path.write_text(json.dumps(rows))
        return super().check(exit_code)


def quiet_run(workload, trace):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, SimpleNamespace(seconds=0, trace=trace))


def check_metrics(result, trace):
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    got = result["metrics"]
    assert set(got) == set(expected), (kind, set(got) ^ set(expected))
    for name, metric in got.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
        assert metric["unit"] == expected[name], (name, metric["unit"])
    assert result["correct"] and result["failed"] == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def check_workloads(pkg):
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        path = tiny_config(name)
        for trace in (0, 1):
            if name == "code-inspect":
                workload = run.CodeInspect(path, seed=trace)
            else:
                rows = tiny_sweep_rows(pkg, path)
                workload = run.Sweep(name, path, [gate.reference_row(r) for r in rows])
            check_metrics(quiet_run(workload, trace), trace)
        print(f"ok  {name}: metrics present, untraced and traced")


def check_lookup_sites():
    pkg = run.fresh_import()
    tr = tracer.Tracer()
    tracer.install(tr, run.layer_hooks(tr))
    for module, attr in (("verify", "verify_factorization"), ("tensor", "same_code"),
                         ("codes", "make_extension"), ("cyclotomic", "make_extension"),
                         ("tensor", "make_extension"), ("cli", "verify_tensor_dual")):
        assert hasattr(getattr(getattr(pkg, module), attr), "__wrapped__"), (module, attr)
    f2 = pkg.field.parse_field("2")
    pkg.tensor.verify_tensor_dual(3, 5, f2)
    assert tr.calls["codes.same_code"] == 1 and tr.calls["codes.min_distance"] == 1
    pkg.verify.sweep(pkg.verify.SweepConfig(fields=["2"], n_range=(5, 5),
                                            theorems=["FACTORIZATION"]))
    assert tr.calls["cyclotomic.verify_factorization"] == 1
    pkg.cyclotomic.minimal_poly(1, 7, f2)
    pkg.codes.zeros_and_nonzeros(pkg.codes.build_Cn(7, f2))
    assert tr.calls["field.make_extension"] == 2
    assert tr.calls["cyclotomic.minimal_poly"] == 1
    print("ok  spans count calls made through importers")


def check_gate(pkg):
    path = tiny_config("sweep-nonbinary")
    rows = tiny_sweep_rows(pkg, path)
    ref = [gate.reference_row(r) for r in rows]
    assert gate.check_sweep(rows, ref, 0) == []
    i = next(i for i, r in enumerate(rows) if r["status"] == "pass" and r["measured"][2])
    j = next(i for i, r in enumerate(rows) if r["theorem_id"] == gate.CONJECTURE
             and r["status"] == "observed")

    def corrupt(index, **changes):
        bad = copy.deepcopy(rows)
        bad[index].update(changes)
        return bad

    wrong_d = rows[i]["measured"][:2] + [rows[i]["measured"][2] + 1]
    undecided = rows[i]["measured"][:2] + [None]
    cases = {
        "wrong distance": corrupt(i, measured=wrong_d),
        "decided row became skipped": corrupt(i, status="skipped", measured=undecided),
        "fail row": corrupt(i, status="fail"),
        "conjecture row passes": corrupt(j, status="pass"),
        "row missing": rows[:-1],
    }
    for what, bad in cases.items():
        assert gate.check_sweep(bad, ref, 0), what
    assert gate.check_sweep(rows, ref, 1), "non-zero exit"

    was_skipped = copy.deepcopy(ref)
    was_skipped[i][6] = undecided
    was_skipped[i][7] = "skipped"
    assert gate.check_sweep(rows, was_skipped, 0) == [], "skipped may become decided"

    codes, f3 = pkg.codes, pkg.field.parse_field("3")
    c = codes.build_Cn(10, f3)
    a = codes.weight_distribution(c)
    b = codes.weight_distribution(codes.dual(c))
    assert gate.check_weights(a, b, 3, 10) == []
    w = next(w for w in range(1, 10) if b[w])
    moved = b[:w] + [b[w] - 1, b[w + 1] + 1] + b[w + 2:]
    assert gate.check_weights(a, moved, 3, 10) == ["MacWilliams identity fails"]
    zeros, nonzeros = codes.zeros_and_nonzeros(c)
    assert gate.check_zeros(zeros, nonzeros, 10) == []
    assert gate.check_zeros(nonzeros, zeros, 10)
    x10 = [2] + [0] * 9 + [1]
    assert gate.check_factorization([x10], [10], 10, 3) == []
    assert gate.check_factorization([x10[:-2] + [1, 1]], [10], 10, 3)
    print("ok  gate trips on corrupted sweep rows, weights, zeros and factors")

    workload = CorruptedSweep("sweep-nonbinary", path, ref)
    result = quiet_run(workload, 0)
    assert not result["correct"] and result["failed"] == run.MIN_PASSES, result
    print("ok  a corrupted record makes a run report correct: false")


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        pkg = run.fresh_import()
        check_workloads(pkg)
        check_lookup_sites()
        check_gate(run.fresh_import())
    finally:
        run.remove_out_dir()
    print("smoke test passed")


if __name__ == "__main__":
    main()
