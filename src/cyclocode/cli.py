"""Command-line interface.

Verbs:
  cyclo --n N --field Q                   cyclotomic polynomial + profile
  code {build,dual,mindist,weights,zeros} code construction and diagnostics
  verify sweep [--config FILE]            batch theorem verification
  verify tensor --n1 A --n2 B --field Q   single CRT-equivalence check
  conjecture run [--config FILE | --n-max N]
                                          the sweep restricted to CONJECTURE-CN1-DUAL

`verify sweep` and `conjecture run` share the report flags --output, --format
and --deterministic. `verify tensor` prints one JSON record and refuses them.
`code` takes --kind or --gen, not both.

Exit codes: 0 = no failing record, 1 = at least one fail or stdout closed
early, 2 = config error or a refused command line.
"""

import argparse
import json
import os
import sys

from . import codes
from .cyclotomic import cyclotomic_poly, profile
from .errors import ConfigInvalid, CycloError, InvalidArgument
from .field import parse_field
from .poly import Poly
from .report import FORMATS, emit_report
from .tensor import verify_tensor_dual
from .verify import SweepConfig, sweep


def _build_code(args, ctx):
    if args.gen:
        try:
            coeffs = json.loads(args.gen)
        except ValueError as exc:  # bad JSON, or an int too long to convert
            raise InvalidArgument(f"--gen is not valid JSON: {exc}") from None
        if not isinstance(coeffs, list):  # Poly refuses a non-integer entry
            raise InvalidArgument(f"--gen must be a JSON list of integers: {args.gen}")
        return codes.from_generator(Poly(ctx, coeffs), args.n, label="custom")
    if args.kind == "cn1":
        return codes.build_Cn1(args.n, ctx)
    if args.kind == "rn":
        return codes.build_repetition(args.n, ctx)
    return codes.build_Cn(args.n, ctx)  # --kind cn, the default


def _cmd_cyclo(args):
    ctx = parse_field(args.field)
    q = cyclotomic_poly(args.n, ctx)
    print(
        json.dumps(
            {
                "n": args.n,
                "field": ctx.literal(),
                "coefficients": list(q.coeffs),
                "profile": profile(args.n).to_dict(),
            },
            indent=2,
        )
    )
    return 0


def _cmd_code(args):
    if args.action in ("mindist", "weights"):
        codes.check_budget(args.budget, name="--budget")
    ctx = parse_field(args.field)
    code = _build_code(args, ctx)
    if args.action == "build":
        out = code.to_dict()
    elif args.action == "dual":
        out = codes.dual(code).to_dict()
    elif args.action == "mindist":
        out = codes.min_distance(code, budget=args.budget).to_dict()
    elif args.action == "weights":
        out = {"weights": codes.weight_distribution(code, budget=args.budget)}
    else:  # zeros
        zeros, nonzeros = codes.zeros_and_nonzeros(code)
        out = {"defining_set": list(zeros), "nonzeros": list(nonzeros)}
    print(json.dumps(out, indent=2))
    return 0


def _finish(records, args, cfg):
    output = args.output or cfg.output
    # stdout takes only an explicit --format; a file also the config's format
    fmt = args.format or (cfg.format if output else "json")
    emit_report(records, fmt, output or sys.stdout, deterministic=args.deterministic)
    return 1 if any(r.status == "fail" for r in records) else 0


def _cmd_tensor(args):
    ctx = parse_field(args.field)
    rec = verify_tensor_dual(args.n1, args.n2, ctx)
    print(json.dumps(rec.to_dict(), indent=2))
    return 1 if rec.status == "fail" else 0


def _cmd_sweep(args):
    cfg = SweepConfig.from_file(args.config) if args.config else SweepConfig()
    return _finish(sweep(cfg), args, cfg)


def _cmd_conjecture(args):
    if args.config:
        cfg = SweepConfig.from_file(args.config)
    else:
        cfg = SweepConfig(n_range=(2, 24 if args.n_max is None else args.n_max))
    cfg.theorems = ["CONJECTURE-CN1-DUAL"]  # a config file's theorems do not apply
    return _finish(sweep(cfg), args, cfg)


def build_parser():
    parser = argparse.ArgumentParser(prog="cyclocode")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cyclo = sub.add_parser("cyclo", help="cyclotomic polynomial over a field")
    p_cyclo.add_argument("--n", type=int, required=True)
    p_cyclo.add_argument("--field", required=True)
    p_cyclo.set_defaults(func=_cmd_cyclo)

    p_code = sub.add_parser("code", help="build codes and measure them")
    p_code.add_argument(
        "action", choices=["build", "dual", "mindist", "weights", "zeros"]
    )
    p_code.add_argument("--n", type=int, required=True)
    p_code.add_argument("--field", required=True)
    # exclusive pairs default to None: argparse lets a flag equal to its default through
    kind = p_code.add_mutually_exclusive_group()
    kind.add_argument("--kind", choices=["cn", "cn1", "rn"], help="default cn")
    kind.add_argument("--gen", help="JSON coefficient list for a custom generator")
    p_code.add_argument("--budget", type=int, default=codes.DEFAULT_BUDGET)
    p_code.set_defaults(func=_cmd_code)

    # the report flags of the two commands that write a sweep report
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output")
    report.add_argument("--format", choices=FORMATS)
    report.add_argument(
        "--deterministic",
        action="store_true",
        help="zero elapsed times so identical configs give identical files",
    )

    p_verify = sub.add_parser("verify", help="verify theorem claims")
    verify_sub = p_verify.add_subparsers(dest="action", required=True)
    p_sweep = verify_sub.add_parser(
        "sweep", parents=[report], help="batch theorem verification"
    )
    p_sweep.add_argument("--config")
    p_sweep.set_defaults(func=_cmd_sweep)
    p_tensor = verify_sub.add_parser("tensor", help="single CRT-equivalence check")
    p_tensor.add_argument("--n1", type=int, required=True)
    p_tensor.add_argument("--n2", type=int, required=True)
    p_tensor.add_argument("--field", required=True)
    p_tensor.set_defaults(func=_cmd_tensor)

    p_conj = sub.add_parser(
        "conjecture", parents=[report], help="empirical conjecture checker"
    )
    p_conj.add_argument("action", choices=["run"])
    grid = p_conj.add_mutually_exclusive_group()
    grid.add_argument("--config")
    grid.add_argument("--n-max", type=int, help="default 24")
    p_conj.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left; per Python's SIGPIPE note, devnull takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CycloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
