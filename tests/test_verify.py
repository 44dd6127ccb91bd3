import contextlib
import dataclasses
import fcntl
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclocode
from cyclocode import cli, codes
from cyclocode.cli import main as cli_main
from cyclocode.codes import DEFAULT_BUDGET, build_Cn
from cyclocode.cyclotomic import cyclotomic_poly
from cyclocode.errors import ConfigInvalid, CycloError
from cyclocode.field import is_prime, make_prime_field, parse_field
from cyclocode.poly import Poly
from cyclocode.report import (
    CSV_COLUMNS,
    VerificationRecord,
    emit_report,
)
from cyclocode.verify import (
    DEFAULT_FIELDS,
    THEOREM_IDS,
    SweepConfig,
    _distance_row,
    _dual_sum_lemma,
    dual_cn_row,
    sweep,
)


def test_sweep_cn_dist_f2():
    cfg = SweepConfig(fields=["2"], n_range=(2, 20), theorems=["CN-DIST"])
    records = sweep(cfg)
    assert len(records) == 19  # one row per n, no silent gaps
    applicable = [r for r in records if r.status != "n/a"]
    assert len(applicable) == 9  # odd n in range
    assert all(r.status == "pass" for r in applicable)


def test_sweep_characteristic_divides_n_is_na():
    cfg = SweepConfig(fields=["3"], n_range=(3, 3), theorems=["CN-DIST"])
    (rec,) = sweep(cfg)
    assert rec.status == "n/a"


def test_sweep_dual_distance_row():
    cfg = SweepConfig(fields=["2"], n_range=(15, 15), theorems=["CN-DUAL-DIST"])
    (rec,) = sweep(cfg)
    assert rec.claimed[2] == 4
    assert rec.measured[2] == 4
    assert rec.status == "pass"


def test_sweep_cn1_prime_is_na():
    cfg = SweepConfig(fields=["2"], n_range=(7, 7), theorems=["CN1-DIST"])
    (rec,) = sweep(cfg)
    assert rec.status == "n/a"


def test_sweep_no_silent_gaps():
    cfg = SweepConfig(fields=["2", "3"], n_range=(2, 12), theorems=list(THEOREM_IDS))
    records = sweep(cfg)
    seen = {}
    for r in records:
        key = (r.theorem_id, r.q, r.n)
        assert key not in seen
        seen[key] = r
        assert r.status in ("pass", "fail", "skipped", "n/a", "observed")
    for q in (2, 3):
        for n in range(2, 13):
            for t in cfg.theorems:
                assert (t, q, n) in seen
    assert not [r for r in records if r.status == "fail"]


@pytest.mark.parametrize(
    "theorems", [["CN-DUAL-DIST", "TENSOR-EQUIV"], ["TENSOR-EQUIV", "CN-DUAL-DIST"]]
)
def test_sweep_walks_each_dual_cn_once(theorems, monkeypatch):
    walks, min_distance = [], codes.min_distance

    def counted(code, *args, **kwargs):
        walks.append(code.n)
        return min_distance(code, *args, **kwargs)

    monkeypatch.setattr(codes, "min_distance", counted)
    dual_cn_row.cache_clear()
    records = sweep(SweepConfig(fields=["2"], n_range=(15, 21), theorems=theorems))
    assert walks == [15, 17, 19, 21]  # TENSOR-EQUIV applies at 15 and 21
    rows = {(r.theorem_id, r.n): r for r in records if r.status != "n/a"}
    for n in (15, 21):
        dual_dist, tensor = rows["CN-DUAL-DIST", n], rows["TENSOR-EQUIV", n]
        assert dual_dist.status == tensor.status == "pass"
        assert dual_dist.measured == tensor.measured == (n, dual_dist.claimed[1], 4)


def test_sweep_algebra_grid_runs_one_lfsr_per_distinct_code(monkeypatch):
    """The grid of perfbench/configs/sweep-algebra.json asks for 309 generator
    matrices of 173 distinct codes, all duals of C_n for TENSOR-EQUIV; each is
    built once (one np.eye each). CN1-DUAL-SUM asks for none, as its lemma is
    one gcd of generators."""
    for build in (codes.build_Cn, codes.build_Cn1, codes.build_repetition):
        build.cache_clear()
    runs, eye = [], np.eye
    monkeypatch.setattr(np, "eye", lambda *a, **k: runs.append(1) or eye(*a, **k))
    theorems = ["FACTORIZATION", "CN1-DUAL-SUM", "TENSOR-EQUIV"]
    records = sweep(SweepConfig(n_range=(2, 56), theorems=theorems, budget=1))
    assert len(runs) == 173
    assert not [r for r in records if r.status == "fail"]


def test_dual_sum_lemma_matches_row_reduction():
    """On every (field, n) where the sweep checks the lemma, the gcd of
    generators gives the dimension and verdict that sum_codes and same_code
    give by row reduction."""
    checked = 0
    for literal in DEFAULT_FIELDS:
        ctx = parse_field(literal)
        for n in range(4, 41):
            if is_prime(n) or math.gcd(n, ctx.q) != 1:
                continue
            lhs = codes.sum_codes(codes.dual(build_Cn(n, ctx)), codes.build_repetition(n, ctx))
            dim, rhs, equal = _dual_sum_lemma(ctx, n)
            assert (dim, equal) == (lhs.num_rows, codes.same_code(lhs, rhs))
            assert equal
            checked += 1
    assert checked == 97


@pytest.mark.parametrize("literal", ["3", "7"])
def test_a_wrong_c_n1_fails_both_rows_that_rest_on_the_lemma(literal, monkeypatch):
    """At even n, C_{n,1} = <Q_n Q_1> is replaced by <Q_n (x + 1)>, a code of
    the same dimension, so only the lemma's equality tells the two apart."""
    build_cn1 = codes.build_Cn1

    def wrong(n, ctx):
        if n % 2:
            return build_cn1(n, ctx)
        return codes.from_generator(cyclotomic_poly(n, ctx) * Poly(ctx, [1, 1]), n)

    cfg = SweepConfig(
        fields=[literal], n_range=(4, 30), budget=1,
        theorems=["CN1-DUAL-SUM", "CONJECTURE-CN1-DUAL"],
    )
    assert not [r for r in sweep(cfg) if r.status == "fail"]
    monkeypatch.setattr(codes, "build_Cn1", wrong)
    rows = [r for r in sweep(cfg) if r.status != "n/a"]
    even = [r for r in rows if r.n % 2 == 0]
    assert {r.theorem_id for r in even} == {"CN1-DUAL-SUM", "CONJECTURE-CN1-DUAL"}
    assert all(r.status == "fail" and r.measured[:2] == r.claimed[:2] for r in even)
    assert not [r for r in rows if r.n % 2 and r.status == "fail"]


def test_codes_shared_over_the_sweep_algebra_grid_equal_fresh_builds(monkeypatch):
    """Every code built during a sweep of the grid of
    perfbench/configs/sweep-algebra.json, each written to by a caller as it
    is handed out, equals a fresh build with the caches cleared."""
    builders = {"C_n": codes.build_Cn, "C_{n,1}": codes.build_Cn1, "R_n": codes.build_repetition}
    for build in builders.values():
        build.cache_clear()
    built, init = [], codes.CyclicCode.__init__

    def tampered(code, n, ctx, g, h, label=""):
        init(code, n, ctx, g, h, label=label)
        built.append((code, label))
        for name, value in (("label", "mine"), ("_dual", code)):
            with contextlib.suppress(CycloError):
                setattr(code, name, value)

    monkeypatch.setattr(codes.CyclicCode, "__init__", tampered)
    theorems = ["FACTORIZATION", "CN1-DUAL-SUM", "TENSOR-EQUIV"]
    sweep(SweepConfig(n_range=(2, 56), theorems=theorems, budget=1))
    monkeypatch.undo()
    for build in builders.values():
        build.cache_clear()

    def same(a, b):
        assert (a.g, a.h, a.k, a.label) == (b.g, b.h, b.k, b.label)
        assert a.generator_matrix().rows.tolist() == b.generator_matrix().rows.tolist()

    for code, label in built:
        base, perp = label.partition("^perp")[:2]
        fresh = builders[base](code.n, code.ctx)
        fresh = codes.dual(fresh) if perp else fresh
        assert fresh is not code
        same(code, fresh)
        same(codes.dual(code), codes.dual(fresh))
    assert len(built) == 805  # 191 C_n, 141 C_{n,1}, 141 R_n and the duals of C_n, C_{n,1}


@pytest.mark.parametrize(
    "claimed, budget, proved, status",
    [
        ((15, 7, 3), DEFAULT_BUDGET, True, "pass"),
        ((15, 7, 4), DEFAULT_BUDGET, True, "fail"),
        ((15, 8, 3), DEFAULT_BUDGET, True, "fail"),
        ((15, 7, 4), DEFAULT_BUDGET, False, "observed"),
        ((15, 8, 3), DEFAULT_BUDGET, False, "fail"),
        ((15, 7, 3), 10, True, "skipped"),
        ((15, 8, 3), 10, True, "fail"),
    ],
)
def test_distance_row_status(claimed, budget, proved, status):
    code = build_Cn(15, make_prime_field(2))  # [15, 7, 3]
    _, measured, got, _ = _distance_row(code, claimed, budget, proved=proved)
    assert got == status
    assert measured == (15, 7, None if budget == 10 else 3)


def test_conjecture_rows():
    cfg = SweepConfig(
        fields=["2"], n_range=(2, 15), theorems=["CONJECTURE-CN1-DUAL"]
    )
    records = sweep(cfg)
    by_n = {r.n: r for r in records}
    assert by_n[15].status == "observed"
    assert by_n[15].claimed == (15, 9, 4)
    assert by_n[15].measured[2] == 4
    assert by_n[7].status == "n/a"  # prime length is excluded
    assert by_n[9].status == "observed"
    assert by_n[9].measured[2] == 2  # proved prime-power case: 2^omega = 2


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SweepConfig(budget=0).validate()
    with pytest.raises(ConfigInvalid, match="budget must be <= 2\\^63 - 1"):
        SweepConfig(budget=2 ** 63).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(budget=2 ** 80).validate()
    assert SweepConfig(budget=2 ** 63 - 1).validate().budget == 2 ** 63 - 1
    with pytest.raises(ConfigInvalid):
        SweepConfig(n_range=(1, 5)).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(format="xml").validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(theorems=["NOPE"]).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(fields=["4"]).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"budget": "x"},
        {"budget": 1.5},
        {"budget": True},
        {"n_range": (2,)},
        {"n_range": (2, 3, 4)},
        {"n_range": "2,30"},
        {"n_range": (2, "30")},
        {"fields": "23"},
        {"fields": [2.0]},
        {"theorems": "CN-DIST"},
        {"output": 5},
        {"format": None},
    ],
)
def test_validate_checks_types(kwargs):
    with pytest.raises(ConfigInvalid, match="must be"):
        SweepConfig(**kwargs).validate()


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fields": ["2"], "n_range": [2, 6]}))
    cfg = SweepConfig.from_file(str(path))
    assert cfg.fields == ["2"] and cfg.n_range == (2, 6)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_file(str(bad))
    bad.write_text('["2"]')
    with pytest.raises(ConfigInvalid, match="must be a JSON object"):
        SweepConfig.from_file(str(bad))


def test_emit_report_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit_report([], "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]

    rec = VerificationRecord(
        theorem_id="CN-DIST", q=2, n=15, claimed=(15, 7, 3), measured=(15, 7, 3),
        status="pass", elapsed=0.01,
    )
    emit_report([rec], "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("CN-DIST,2,15,,,15,7,3,15,7,3,pass,")


def test_emit_report_json_round_trip(tmp_path):
    path = tmp_path / "out.json"
    records = [VerificationRecord(
        theorem_id="CN-DUAL-DIST", q=3, n=8, claimed=(8, 4, 2), measured=(8, 4, 2),
        status="pass", elapsed=0.5,
    )]
    emit_report(records, "json", str(path))
    assert json.loads(path.read_text()) == [r.to_dict() for r in records]


def test_emit_report_json_is_json_dumps_indented(tmp_path):
    """The JSON report is written from a template, with json.dumps's bytes."""
    path = tmp_path / "out.json"
    records = sweep(SweepConfig(fields=["2", "3"], n_range=(2, 40)))
    assert len(records) > 100
    zeroed = [dataclasses.replace(r, elapsed=0.0) for r in records]
    for rows in (records, zeroed, []):
        emit_report(rows, "json", str(path))
        assert path.read_text() == json.dumps([r.to_dict() for r in rows], indent=2) + "\n"
    elapsed = [r.elapsed for r in records]
    emit_report(records, "json", str(path), deterministic=True)
    assert path.read_text() == json.dumps([r.to_dict() for r in zeroed], indent=2) + "\n"
    assert [r.elapsed for r in records] == elapsed  # the records keep their times


_maybe_int = st.one_of(st.none(), st.integers(-(2 ** 70), 2 ** 70))
_records = st.builds(
    VerificationRecord,
    theorem_id=st.text(), q=st.integers(2, 2 ** 16), n=_maybe_int, n1=_maybe_int, n2=_maybe_int,
    claimed=st.lists(_maybe_int, max_size=4).map(tuple),
    measured=st.lists(_maybe_int, max_size=4).map(tuple),
    status=st.text(), elapsed=st.floats(allow_nan=False, allow_infinity=False), note=st.text(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=4))
@example([VerificationRecord("CN-DIST", 2, 7, note='\u00e9 "quoted" back\\slash\ttab', elapsed=1 / 3)])
def test_emit_report_json_matches_json_dumps_on_any_record(records):
    out = io.StringIO()
    emit_report(records, "json", out)
    assert out.getvalue() == json.dumps([r.to_dict() for r in records], indent=2) + "\n"


def test_emit_report_refusals(tmp_path):
    with pytest.raises(CycloError, match="unknown report format 'xml'"):
        emit_report([], "xml", str(tmp_path / "out.xml"))
    missing = tmp_path / "no-such-dir" / "out.csv"
    with pytest.raises(CycloError, match="No such file or directory"):
        emit_report([], "csv", str(missing))
    assert not missing.parent.exists()


def test_sweep_determinism(tmp_path):
    cfg = SweepConfig(fields=["2"], n_range=(2, 10))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    records = sweep(cfg)
    elapsed = [r.elapsed for r in records]
    emit_report(records, "csv", str(p1), deterministic=True)
    emit_report(sweep(cfg), "csv", str(p2), deterministic=True)
    assert p1.read_bytes() == p2.read_bytes()
    assert [r.elapsed for r in records] == elapsed  # the records keep their times
    zeroed = [dataclasses.replace(r, elapsed=0.0) for r in records]
    emit_report(zeroed, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_cyclo(capsys):
    assert cli_main(["cyclo", "--n", "6", "--field", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coefficients"] == [1, 4, 1]
    assert out["profile"]["phi"] == 2


def test_cli_code_verbs(capsys):
    assert cli_main(["code", "mindist", "--n", "15", "--field", "2", "--kind", "cn"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 3
    assert cli_main(["code", "zeros", "--n", "15", "--field", "2", "--kind", "cn1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 in out["defining_set"]
    assert cli_main(
        ["code", "build", "--n", "4", "--field", "5", "--gen", "[4, 1]"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 3
    assert cli_main(["code", "dual", "--n", "7", "--field", "2", "--kind", "rn"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["k"], out["generator"], out["label"]) == (6, [1, 1], "R_n^perp")
    assert cli_main(["code", "weights", "--n", "5", "--field", "2", "--kind", "rn"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"] == [1, 0, 0, 0, 0, 1]


def _flat_dict_row(rec):
    d = rec.to_dict()
    cells = [d["theorem_id"], d["q"], d["n"], d["n1"], d["n2"], *d["claimed"], *d["measured"]]
    return ["" if v is None else v for v in cells] + [d["status"], f"{rec.elapsed:.3f}"]


def test_csv_row_is_the_flattened_dict():
    f2 = make_prime_field(2)
    na = VerificationRecord("CN-DIST", 2, 4, status="n/a", note="gcd(n, q) != 1")
    (tensor,) = sweep(SweepConfig(fields=["2"], n_range=(15, 15), theorems=["TENSOR-EQUIV"]))
    claimed, measured, status, note = _distance_row(build_Cn(15, f2), (15, 7, 3), 10)
    skipped = VerificationRecord(
        "CN-DIST", 2, 15, claimed=claimed, measured=measured, status=status,
        elapsed=0.0125, note=note,
    )
    assert (tensor.n1, tensor.n2, tensor.measured) == (3, 5, (15, 8, 4))
    assert skipped.status == "skipped"
    for rec in (na, tensor, skipped):
        row = rec.to_csv_row()
        assert row == _flat_dict_row(rec)
        assert len(row) == len(CSV_COLUMNS)
    assert skipped.to_csv_row() == ["CN-DIST", 2, 15, "", "", 15, 7, 3, 15, 7, "", "skipped", "0.013"]


def test_cli_verify_tensor(capsys):
    rc = cli_main(["verify", "tensor", "--n1", "3", "--n2", "5", "--field", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("argv", [
    ["code", "build", "--n", "40000", "--field", "3"],
    ["verify", "sweep", "--deterministic", "--format", "csv"],
])
def test_cli_exits_1_in_silence_when_stdout_closes_early(argv):
    # code build once ended in a BrokenPipeError traceback, and verify sweep
    # printed "error: [Errno 32] Broken pipe"
    read, write = os.pipe()
    # a one-page pipe: the command blocks on it until this reader has taken
    # its first line, so output is still left to write when the pipe closes
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    src = str(pathlib.Path(cyclocode.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclocode.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env
    )
    os.close(write)
    with open(read, "rb") as out:
        assert out.readline()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("argv", [
    ["verify", "tensor", "--n1", "3", "--n2", "5", "--field", "2",
     "--format", "csv", "--output", "{out}", "--config", "{missing}"],
    ["verify", "sweep", "--n1", "3", "--field", "7"],
])
def test_cli_verify_actions_refuse_flags_they_do_not_use(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = [a.format(out=out, missing=tmp_path / "missing.json") for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["conjecture", "run", "--config", "{cfg}", "--n-max", "12"],
    ["conjecture", "run", "--n-max", "24", "--config", "{cfg}"],  # 24 is the default
    ["code", "build", "--n", "15", "--field", "2", "--kind", "cn1", "--gen", "[1, 1]"],
    ["code", "build", "--n", "15", "--field", "2", "--gen", "[1, 1]", "--kind", "cn"],
])
def test_cli_refuses_flags_that_exclude_each_other(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["2"], "n_range": [2, 6]}))
    with pytest.raises(SystemExit) as exc:
        cli_main([a.format(cfg=cfg) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


def test_cli_one_flag_of_each_pair_keeps_its_meaning(capsys):
    for extra, n_max in (([], 24), (["--n-max", "12"], 12)):
        assert cli_main(["conjecture", "run"] + extra) == 0
        assert {r["n"] for r in json.loads(capsys.readouterr().out)} == set(range(2, n_max + 1))
    build = ["code", "build", "--n", "15", "--field", "2"]
    for extra, label in (([], "C_n"), (["--kind", "cn1"], "C_{n,1}"), (["--gen", "[1, 1]"], "custom")):
        assert cli_main(build + extra) == 0
        assert json.loads(capsys.readouterr().out)["label"] == label


def test_cli_sweep_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "fields": ["2"], "n_range": [2, 8], "theorems": ["CN-DIST", "FACTORIZATION"],
    }))
    out_csv = tmp_path / "report.csv"
    rc = cli_main([
        "verify", "sweep", "--config", str(cfg),
        "--output", str(out_csv), "--format", "csv",
    ])
    capsys.readouterr()
    assert rc == 0
    assert out_csv.read_text().startswith("theorem_id,")


@pytest.mark.parametrize("budget", [2 ** 63, 2 ** 80])
def test_cli_config_budget_above_int64_exit_2(budget, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["2"], "n_range": [2, 4], "budget": budget}))
    assert cli_main(["verify", "sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: budget must be <= 2^63 - 1, got {budget}\n"


@pytest.mark.parametrize("budget,message", [
    (0, "budget must be >= 1, got 0"),
    (-5, "budget must be >= 1, got -5"),
    (True, "budget must be an integer, got True"),
    (1.5, "budget must be an integer, got 1.5"),
])
def test_cli_config_budget_messages(budget, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["2"], "n_range": [2, 4], "budget": budget}))
    assert cli_main(["verify", "sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["4"]}))
    rc = cli_main(["verify", "sweep", "--config", str(cfg)])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"fields": [' + b"7" * 5000 + b"]}"],
    ids=["not-utf-8", "int-too-long"],
)
def test_cli_unreadable_config_exit_2(content, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert cli_main(["verify", "sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config {cfg}: ")


@pytest.mark.parametrize(
    "config",
    [
        {"n_range": "2,30"},
        {"n_range": [2, 3, 4]},
        {"n_range": [2.0, 5]},
        {"budget": "lots"},
        {"budget": 1.5},
        {"budget": True},
        {"fields": "23"},
        {"fields": [2.0]},
        {"fields": ["abc"]},
        {"theorems": "CN-DIST"},
        {"output": 5},
    ],
)
def test_cli_config_types_exit_2(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["verify", "sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_cli_conjecture_run(capsys):
    rc = cli_main(["conjecture", "run", "--n-max", "10"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert any(r["status"] == "observed" for r in rows)
    assert not any(r["status"] == "fail" for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "run", "--n-max", "12", "--deterministic"],
        ["verify", "sweep", "--config", "{cfg}", "--deterministic"],
    ],
)
def test_cli_deterministic_stdout_zeroes_elapsed(argv, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["2", "3"], "n_range": [2, 16]}))
    records = []
    monkeypatch.setattr(cli, "sweep", lambda c: records.extend(sweep(c)) or records)
    assert cli_main([a.format(cfg=cfg) for a in argv]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["elapsed_s"] == 0 for r in rows)
    # the report is zeroed, not the records: a caller holding them keeps the times
    assert len(records) == len(rows) and any(r.elapsed > 0 for r in records)


def test_cli_conjecture_run_ignores_config_theorems(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "fields": ["2"], "n_range": [2, 10], "theorems": ["CN-DIST", "FACTORIZATION"],
    }))
    assert cli_main(["conjecture", "run", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rows] == list(range(2, 11))
    assert {r["theorem_id"] for r in rows} == {"CONJECTURE-CN1-DUAL"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "run", "--n-max", "12", "--deterministic"],
        ["verify", "sweep", "--config", "{cfg}", "--deterministic"],
    ],
)
def test_cli_format_without_output_writes_that_format_to_stdout(
    argv, fmt, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": ["2", "3"], "n_range": [2, 12]}))
    argv = [a.format(cfg=cfg) for a in argv] + ["--format", fmt]
    report = tmp_path / f"report.{fmt}"
    assert cli_main(argv + ["--output", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == report.read_bytes().decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["cyclo", "--n", "0", "--field", "2"],
        ["code", "mindist", "--n", "1", "--field", "2"],
        ["code", "mindist", "--n", "2", "--field", "2", "--gen", "[1, 0, 1]"],
        ["code", "build", "--n", "3", "--field", "2^2", "--gen", "[7, 1]"],
        ["code", "build", "--n", "4", "--field", "5", "--gen", "[4.5, 1]"],
        ["code", "build", "--n", "4", "--field", "5", "--gen", "[true, 1]"],
        ["code", "build", "--n", "3", "--field", "2^2", "--gen", '["a", 1]'],
        ["code", "build", "--n", "4", "--field", "5", "--gen", "3"],
        ["code", "build", "--n", "4", "--field", "5", "--gen", "[1,"],
        ["code", "build", "--n", "4", "--field", "abc"],
        ["code", "build", "--n", "4", "--field", "2^x"],
        ["code", "build", "--n", "4", "--field", "2^0"],
        ["code", "weights", "--n", "-2", "--field", "2", "--gen", "[1]"],
        ["code", "build", "--n", "0", "--field", "2", "--gen", "[1]"],
        ["code", "build", "--n", "4", "--field", "5", "--gen", "[" + "7" * 5000 + "]"],
    ],
    ids=[
        "cyclo-n0", "mindist-n1", "mindist-zero-code", "build-non-element",
        "gen-float", "gen-bool", "gen-string", "gen-not-list", "gen-bad-json",
        "field-abc", "field-bad-exponent", "field-zero-exponent",
        "gen-negative-n", "gen-n0", "gen-int-too-long",
    ],
)
def test_cli_bad_arguments_exit_1_without_traceback(argv, capsys):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_prime_power_field_literal_gets_a_hint(capsys):
    assert cli_main(["code", "build", "--n", "5", "--field", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4 is not prime; write F_4 as 2^2\n"


# 2^61 - 1 is prime, and its trial division would run for minutes; 2^100000000
# has too many digits to print.
OUT_OF_RANGE_FIELDS = ["2305843009213693951", "2^100000000"]


@pytest.mark.parametrize("literal", OUT_OF_RANGE_FIELDS)
def test_cli_out_of_range_field_literal_refused_at_once(literal, capsys):
    t0 = time.perf_counter()
    assert cli_main(["code", "build", "--n", "5", "--field", literal]) == 1
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field order {literal} exceeds 65536\n"


@pytest.mark.parametrize("literal", OUT_OF_RANGE_FIELDS)
def test_cli_config_out_of_range_field_literal_exit_2(literal, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fields": [literal], "n_range": [2, 4]}))
    t0 = time.perf_counter()
    assert cli_main(["verify", "sweep", "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: bad field literal {literal!r}: field order {literal} exceeds 65536\n"
    )


def test_cli_zeros_beyond_the_root_search_limit_names_q_and_m(capsys):
    # 256 has order 1829 mod 3659, and 256^1829 = 2^14632 has over 4,300
    # digits; FieldCtx refuses that order before computing it
    assert cli_main(["code", "zeros", "--n", "3659", "--field", "2^8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field order 2^14632 exceeds 16777216\n"


@pytest.mark.parametrize("action", ["mindist", "weights"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_budget_below_1_rejected(action, budget, capsys):
    argv = ["code", action, "--n", "15", "--field", "2", "--budget", budget]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --budget must be >= 1, got {budget}\n"


@pytest.mark.parametrize("action", ["mindist", "weights"])
@pytest.mark.parametrize("budget", [str(2 ** 63), str(2 ** 80)])
def test_cli_budget_above_int64_rejected(action, budget, capsys):
    argv = ["code", action, "--n", "15", "--field", "2", "--budget", budget]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --budget must be <= 2^63 - 1, got {budget}\n"


def test_cli_budget_int64_max_accepted(capsys):
    argv = ["code", "mindist", "--n", "15", "--field", "2", "--budget", str(2 ** 63 - 1)]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 3


# The deterministic reports, written by the CLI as the tests below run it;
# a change that means to alter a report regenerates these files with it.
_GOLDEN = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name,argv", [
    ("default-sweep.csv", ["verify", "sweep"]),
    ("conjecture-24.csv", ["conjecture", "run", "--n-max", "24"]),
    ("conjecture-40.csv", ["conjecture", "run", "--n-max", "40"]),
])
def test_deterministic_reports_match_the_golden_files(tmp_path, name, argv):
    out = tmp_path / name
    assert cli_main(argv + ["--deterministic", "--format", "csv", "--output", str(out)]) == 0
    assert out.read_bytes() == (_GOLDEN / name).read_bytes()
