"""Benchmark of cyclocode: four closed-loop workloads, one process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
One caller makes one call at a time. A run repeats passes of its workload
until S seconds have gone by. Every pass starts with a fresh import of the
package, as a new `cyclocode` process would, so no memo cache carries over
from one pass to the next; that import, the config load and `parse_field`
of the workload's fields are the set-up, done SETUPS_PER_PASS times a pass.
Timings are medians over the passes of the run.

With --trace 0 the passes run untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported, with the tracing overhead as the difference
of their median wall times.

The host is a shared virtual machine that switches between a fast and a slow
state several times a second, about 1.6 times apart, and the share of time
spent in each drifts over minutes; CPU time moves with it as much as wall
time. So each pass also times a fixed pure-Python task (calib.py) just before
its set-up and just after its calls, and the reported timings are rescaled to
a host on which that task takes calib.REF_S seconds:
value * (REF_S / mean task time of the pass) ** calib.ELASTICITY.
A change to the package moves the rescaled timings as much as the raw ones;
the raw medians are printed on the line before the result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the run manifest and the pass
times. The exit code is 0 when every correctness check held, 1 when one
failed and 2 when the run could not start.
"""

import argparse
import ctypes
import gc
import glob
import importlib
import json
import math
import os
import platform
import random
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import calib
import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Sweep reports of this process; each process has its own directory, so two
# runs in one checkout never remove each other's files.
OUT_DIR = ROOT / ".perfbench-out" / str(os.getpid())
PACKAGE = tracer.PACKAGE

WORKLOADS = ("sweep-binary", "sweep-nonbinary", "sweep-algebra", "code-inspect")
MIN_PASSES = 3
# Set-up takes about 40 ms and one sample can be a third off the next, so each
# pass sets up several times to steady the median.
SETUPS_PER_PASS = 3
MIN_TRACED_PASSES = 2
# Task samples taken on each side of a pass (about 25 ms each).
CALIB_SAMPLES = 4

THEOREM_IDS = (
    "CN-DIST",
    "CN1-DIST",
    "CN-DUAL-DIST",
    "TENSOR-EQUIV",
    "CN1-DUAL-SUM",
    "FACTORIZATION",
    "CONJECTURE-CN1-DUAL",
)
STATUSES = {"pass": "pass", "fail": "fail", "skipped": "skipped", "n/a": "na", "observed": "observed"}
DISTANCE_FIELDS = (2, 3, 4, 5, 7, 8, 9)
WEIGHT_FIELDS = (2, 3, 4, 5)
COUNTED_SPANS = (
    "field.FieldCtx",
    "poly.mul",
    "poly.divmod",
    "codes.rref",
    "codes.min_distance",
    "codes.weight_distribution",
)


def parse_literal(lit):
    p, _, l = str(lit).partition("^")
    return int(p), int(l or 1)


def multiplicative_order(q, n):
    t, acc = 1, q % n
    while acc != 1:
        acc = acc * q % n
        t += 1
    return t


# -- workloads ------------------------------------------------------------------


class Sweep:
    """`verify sweep --deterministic` on a committed config, checked row by row.

    The sweep's order is fixed by the package, so the seed does not change it.
    """

    seed_effect = "none: the sweep order is fixed by sweep()"

    def __init__(self, name, config_path, reference):
        self.name = name
        self.config_path = config_path
        self.reference = reference
        self.out_path = OUT_DIR / f"{name}.json"
        self.records = []

    def config(self):
        return json.loads(self.config_path.read_text())

    def setup(self, pkg):
        cfg = pkg.verify.SweepConfig.from_file(str(self.config_path))
        for lit in cfg.fields:
            pkg.field.parse_field(lit)

    def capture_records(self):
        """Keep the records `verify sweep` returns; their elapsed times are not zeroed."""
        original = sys.modules[f"{PACKAGE}.verify"].sweep
        self.records = []

        def capture(cfg):
            self.records = original(cfg)
            return self.records

        tracer.rebind(original, capture)

    def run(self, pkg):
        argv = ["verify", "sweep", "--config", str(self.config_path), "--deterministic",
                "--output", str(self.out_path), "--format", "json"]
        return pkg.cli.main(argv)

    def check(self, exit_code):
        """Returns (row statuses, violations) of the report the pass wrote."""
        if not self.out_path.is_file():
            return Counter(fail=1), [f"verify sweep exited with {exit_code} and wrote no report"]
        rows = json.loads(self.out_path.read_text())
        self.out_path.unlink()
        statuses = Counter(r["status"] for r in rows)
        return statuses, gate.check_sweep(rows, self.reference, exit_code)


class CodeInspect:
    """Library calls over a (field, n) grid, in an order shuffled by the seed.

    Per grid point: the defining set of C_n; the weight distributions of C_n
    and its dual when both fit the budget; and, over prime fields, x^n - 1
    factored into minimal polynomials. Only points whose splitting field has
    at most extension_limit elements are taken, so the grid holds the q = 243
    and 256 fields whose O(q^2) tables are built during the pass.
    """

    seed_effect = "shuffles the order of the grid's calls"

    def __init__(self, config_path, seed):
        self.config_path = config_path
        cfg = self.config()
        self.budget = cfg["weights_budget"]
        calls = []
        lo, hi = cfg["n_range"]
        for lit in cfg["fields"]:
            p, l = parse_literal(lit)
            q = p ** l
            for n in range(lo, hi + 1):
                if math.gcd(n, q) != 1 or q ** multiplicative_order(q, n) > cfg["extension_limit"]:
                    continue
                calls.append(("zeros", lit, n))
                k = n - gate.phi(n)
                if max(q ** k, q ** (n - k)) <= self.budget:
                    calls.append(("weights", lit, n))
                if lit in cfg["factorization_fields"]:
                    calls.append(("factor", lit, n))
        random.Random(seed).shuffle(calls)
        self.calls = calls
        self.results = None
        self.records = []

    def config(self):
        return json.loads(self.config_path.read_text())

    def setup(self, pkg):
        for lit in self.config()["fields"]:
            pkg.field.parse_field(lit)

    def capture_records(self):
        pass

    def run(self, pkg):
        codes, cyclotomic, parse_field = pkg.codes, pkg.cyclotomic, pkg.field.parse_field
        results = []
        for op, lit, n in self.calls:
            ctx = parse_field(lit)
            if op == "zeros":
                out = codes.zeros_and_nonzeros(codes.build_Cn(n, ctx))
            elif op == "weights":
                c = codes.build_Cn(n, ctx)
                out = (codes.weight_distribution(c, budget=self.budget),
                       codes.weight_distribution(codes.dual(c), budget=self.budget))
            else:
                cos = cyclotomic.cosets(n, ctx.q)
                out = ([list(cyclotomic.minimal_poly(c.representative, n, ctx).coeffs) for c in cos],
                       [len(c.members) for c in cos])
            results.append(out)
        self.results = results
        return 0

    def check(self, exit_code):
        """Returns (call statuses, violations); a call fails if any check on it does."""
        statuses = Counter()
        bad = []
        for (op, lit, n), out in zip(self.calls, self.results):
            p, l = parse_literal(lit)
            if op == "zeros":
                msgs = gate.check_zeros(*out, n)
            elif op == "weights":
                msgs = gate.check_weights(*out, p ** l, n)
            else:
                msgs = gate.check_factorization(*out, n, p)
            statuses["fail" if msgs else "pass"] += 1
            if msgs:
                bad.append(f"{op} F_{lit} n={n}: " + "; ".join(msgs))
        return statuses, bad


def make_workload(name, seed):
    config_path = HERE / "configs" / f"{name}.json"
    if name == "code-inspect":
        return CodeInspect(config_path, seed)
    reference = json.loads((HERE / "reference" / f"{name}.json").read_text())
    return Sweep(name, config_path, reference)


# -- passes -----------------------------------------------------------------------


def cpu_time():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def fresh_import():
    """Drop every cached package module and import the package again."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return pkg


def layer_hooks(tr):
    """Counters kept where the work happens, keyed by field order q."""

    def rref(args, kwargs, result, exc, own):
        m = args[0]
        if not m.canonical:
            tr.counts["rref.cells"] += m.num_rows * m.n

    def field_ctx(args, kwargs, result, exc, own):
        tr.times[("FieldCtx.self_s", args[0].q)] += own

    def min_distance(args, kwargs, result, exc, own):
        q = args[0].ctx.q
        if exc is not None:
            if type(exc).__name__ == "BudgetExceeded":
                tr.counts["min_distance.refused"] += 1
            return
        tr.counts[("min_distance.codewords", q)] += result.codewords_enumerated
        tr.times[("min_distance.self_s", q)] += own

    def weight_distribution(args, kwargs, result, exc, own):
        if exc is None:
            q = args[0].ctx.q
            tr.counts[("weight_distribution.codewords", q)] += sum(result)
            tr.times[("weight_distribution.self_s", q)] += own

    return {
        "field.FieldCtx": field_ctx,
        "codes.rref": rref,
        "codes.min_distance": min_distance,
        "codes.weight_distribution": weight_distribution,
    }


def one_pass(workload, traced):
    """Set up SETUPS_PER_PASS times, run the pass on the last set-up, measure.

    The calibration task runs before the set-up and after the calls.
    """
    calib_s = calib.sample(CALIB_SAMPLES)
    setup_s = []
    tr = None
    for i in range(SETUPS_PER_PASS):
        gc.collect()
        t0 = perf_counter()
        pkg = fresh_import()
        t_import = perf_counter() - t0
        if traced and i == SETUPS_PER_PASS - 1:
            tr = tracer.Tracer()
            sites = tracer.install(tr, layer_hooks(tr))
            workload.capture_records()
        t1 = perf_counter()
        workload.setup(pkg)
        setup_s.append(t_import + perf_counter() - t1)
    covered0 = tr.covered_s if tr else 0.0
    c0 = cpu_time()
    t2 = perf_counter()
    exit_code = workload.run(pkg)
    wall_s = perf_counter() - t2
    cpu_s = cpu_time() - c0
    calib_s += calib.sample(CALIB_SAMPLES)
    statuses, violations = workload.check(exit_code)
    out = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": calib_s,
        "statuses": statuses,
        "violations": violations,
    }
    if traced:
        out["layers"] = layer_metrics(tr, workload.records)
        out["uncovered_s"] = wall_s - (tr.covered_s - covered0)
        out["sites"] = sites
        out["by_q"] = {f"{name} q={q}": t for (name, q), t in sorted(tr.times.items()) if t}
    return out


def layer_metrics(tr, records):
    """Per-layer values of one traced pass, as {name: (value, unit)}."""
    m = {}
    for name, _, _ in tracer.SPANS:
        m[f"{name}.self_s"] = (tr.self_s[name], "s")
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = (tr.calls[name], "count")
    m["codes.rref.cells"] = (tr.counts["rref.cells"], "count")
    codewords = sum(tr.counts[("min_distance.codewords", q)] for q in DISTANCE_FIELDS)
    m["codes.min_distance.codewords"] = (codewords, "count")
    for kind, fields in (("min_distance", DISTANCE_FIELDS), ("weight_distribution", WEIGHT_FIELDS)):
        for q in fields:
            secs = tr.times[(f"{kind}.self_s", q)]
            cw = tr.counts[(f"{kind}.codewords", q)]
            m[f"codes.{kind}.cw_per_s.q{q}"] = (cw / secs if secs > 0 else 0.0, "1/s")
    refused = tr.counts["min_distance.refused"]
    calls = tr.calls["codes.min_distance"]
    m["codes.min_distance.refused"] = (refused, "count")
    m["codes.min_distance.refused_ratio"] = (refused / calls if calls else 0.0, "ratio")
    for theorem in THEOREM_IDS:
        secs = sum(r.elapsed for r in records if r.theorem_id == theorem)
        m[f"verify.row_s.{theorem}"] = (secs, "s")
    for status, label in STATUSES.items():
        m[f"verify.rows.{label}"] = (sum(1 for r in records if r.status == status), "count")
    return m


# -- manifest ---------------------------------------------------------------------


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(args, workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_effect": workload.seed_effect,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "calib_ref_s": calib.REF_S,
        "calib_elasticity": calib.ELASTICITY,
    }


# -- main ---------------------------------------------------------------------------


def measure(workload, seconds, trace):
    """Run passes for `seconds`; with trace, alternate untraced and traced."""
    passes = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(one_pass(workload, traced))
        n_traced = sum(p["traced"] for p in passes)
        if trace:
            enough = min(n_traced, len(passes) - n_traced) >= MIN_TRACED_PASSES
        else:
            enough = len(passes) >= MIN_PASSES
        if enough and perf_counter() - start >= seconds:
            return passes


def timings(passes, rescaled):
    """Median wall, set-up and CPU time of the passes, raw or rescaled to calib.REF_S.

    Each pass is rescaled by the mean of its own task samples. The host
    switches between a fast and a slow state every few hundred milliseconds,
    so the mean, like a pass's time, weighs each state by how long it lasts.
    """

    def scale(p):
        return (calib.REF_S / mean(p["calib_s"])) ** calib.ELASTICITY if rescaled else 1.0

    return {
        "wall_s": median([p["wall_s"] * scale(p) for p in passes]),
        "setup_s": median([t * scale(p) for p in passes for t in p["setup_s"]]),
        "cpu_s": median([p["cpu_s"] * scale(p) for p in passes]),
    }


def summarize(passes, trace):
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        metrics = {name: {"value": v, "unit": "s"} for name, v in timings(plain, True).items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }
        return metrics
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name, (value, unit) in traced[-1]["layers"].items():
        if unit != "count":  # counts repeat exactly from pass to pass
            value = median([p["layers"][name][0] for p in traced])
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": timings(traced, True)["wall_s"] - timings(plain, True)["wall_s"],
        "unit": "s",
    }
    metrics["trace.uncovered_s"] = {"value": median([p["uncovered_s"] for p in traced]), "unit": "s"}
    return metrics


def run(workload, args):
    """Measure, print the manifest and pass lines, and return the result object."""
    passes = measure(workload, args.seconds, args.trace)
    violations = [v for p in passes for v in p["violations"]]
    for p in passes:
        line = {k: p[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "calib_s")}
        line["statuses"] = dict(p["statuses"])
        line["violations"] = len(p["violations"])
        if p["traced"]:
            line["uncovered_s"] = p["uncovered_s"]
        print("pass", json.dumps(line))
    for v in violations[:20]:
        print("violation", v)
    plain = [p for p in passes if not p["traced"]]
    raw = timings(plain, False)
    raw["calib_s"] = mean([t for p in plain for t in p["calib_s"]])
    print("raw_medians", json.dumps(raw))
    traced = [p for p in passes if p["traced"]]
    if traced:
        print("lookup_sites", json.dumps(traced[-1]["sites"]))
        print("self_s_by_q", json.dumps(traced[-1]["by_q"]))
    return {
        "correct": not violations,
        "attempted": sum(sum(p["statuses"].values()) for p in passes),
        "failed": len(violations),
        "metrics": summarize(passes, args.trace),
    }


def remove_out_dir():
    """Delete this process's report directory, and its parent once no run uses it."""
    for path in OUT_DIR.glob("*"):
        path.unlink()
    for d in (OUT_DIR, OUT_DIR.parent):
        try:
            d.rmdir()
        except OSError:  # missing, or another run's directory is still in it
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no package source at {SRC / PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    print("manifest", json.dumps(manifest(args, workload)))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        result = run(workload, args)
    finally:
        remove_out_dir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
