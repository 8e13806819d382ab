"""Command-line frontend: group queries, algebra queries, verification runs.

Exit codes: 0 for success (verification passed, or a query answered),
1 when a verification ran and came out false, 2 for usage and configuration
errors.  Verification reports are JSON with sorted keys, byte-for-byte
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import CoordinateAlgebra
from .cases import CASE_IDS, PRIME_SCAN, auto_prime, builtin_case, builtin_group_hom, case_config
from .config import VerifyConfig, parse_scalar
from .field import ConstantUnavailable, PrimeField, field_from_spec
from .homverify import GradednessError, RelationError
from .stringgroup import WeightSequence, WellDefinednessError


#: the most levels above --lmin that ``algebra hilbert`` lists, and how many
#: lines it writes at once
MAX_LEVELS = 10 ** 6
HILBERT_BLOCK = 4096


class UsageError(ValueError):
    pass


def _weights(text: str) -> WeightSequence:
    try:
        return WeightSequence(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise UsageError("bad --weights value %r: %s" % (text, exc)) from None


def _ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError("bad %s value %r" % (flag, text)) from None


def _render(elem, pretty: bool) -> str:
    return elem.pretty() if pretty else str(elem)


def _out(value):
    """Print to stdout (see ``_emit``)."""
    _emit(lambda stdout: print(value, file=stdout))


def _emit(write):
    """Call write(stdout) on the current sys.stdout; once its reader has
    gone, stdout is os.devnull (the "Note on SIGPIPE" of the Python signal
    module documentation), so the command runs on and keeps its exit code,
    and nothing is reported at exit."""
    try:
        write(sys.stdout)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout():
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="wpline",
        description="string groups, graded coordinate algebras and graded-isomorphism checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="string group queries")
    gsub = group.add_subparsers(dest="subcommand", required=True)

    def add_group(name, weights=False, elem=0, case=False, window=False):
        p = gsub.add_parser(name)
        if weights:
            p.add_argument("--weights", required=True)
        if elem:
            p.add_argument("--elem", action="append", required=True,
                           help="element as 'l;l1,l2,...'")
            p.set_defaults(elems=elem)
        if case:
            p.add_argument("--case", required=True, choices=CASE_IDS)
        if window:
            p.add_argument("--window", type=int, default=64)
        p.add_argument("--pretty", action="store_true")
        return p

    add_group("normal-form", weights=True, elem=1)
    add_group("add", weights=True, elem=2)
    add_group("order", weights=True, elem=1)
    add_group("dualizing", weights=True)
    add_group("tubular", weights=True)
    add_group("kernel", case=True)
    add_group("fiber", case=True, elem=1)
    add_group("admissible", case=True, window=True)

    algebra = sub.add_parser("algebra", help="coordinate algebra queries")
    asub = algebra.add_subparsers(dest="subcommand", required=True)

    def add_algebra(name):
        p = asub.add_parser(name)
        p.add_argument("--weights", required=True)
        p.add_argument("--params", default="",
                       help="the t - 3 parameters after the normalized 1 for t >= 3 "
                            "weights, comma separated")
        p.add_argument("--field", default="rationals")
        return p

    p = add_algebra("dim")
    p.add_argument("--degree", required=True)
    p = add_algebra("basis")
    p.add_argument("--degree", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    p = add_algebra("reduce")
    p.add_argument("--monomial", required=True, help="exponent vector 'a1,a2,...'")
    p.add_argument("--coeff", default="1")
    p = add_algebra("hilbert")
    p.add_argument("--lmin", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--torsion", default="")

    verify = sub.add_parser("verify", help="verify a built-in case or a config file")
    verify.add_argument("--case", choices=CASE_IDS)
    verify.add_argument("--config")
    verify.add_argument("--field", default=None,
                        help="'rationals' or a prime (default: the config's field, or Q)")
    verify.add_argument("--lambda", dest="lam", default=None,
                        help="value of the name lambda, e.g. case D's target parameter")
    verify.add_argument("--window", type=int, default=None,
                        help="level window (default 20, or the config's value)")
    verify.add_argument("--out", default=None)
    verify.add_argument("--auto-prime", action="store_true",
                        help="scan primes %d..%d for the smallest admissible one" % PRIME_SCAN)
    verify.add_argument("--root-pick", choices=("smallest", "largest"),
                        default="smallest")
    verify.add_argument("--tamper", default=None,
                        help="negative control, e.g. lambda=2 replaces the last target parameter")
    return parser


# -- group subcommands -------------------------------------------------------

def _cmd_group(args) -> int:
    sc = args.subcommand
    pretty = getattr(args, "pretty", False)
    if len(getattr(args, "elem", ())) != getattr(args, "elems", 0):
        raise UsageError("%s needs exactly %d --elem value(s)" % (sc, args.elems))
    if sc in ("normal-form", "add", "order", "dualizing", "tubular"):
        ws = _weights(args.weights)
        if sc == "normal-form":
            _out(_render(ws.parse(args.elem[0]), pretty))
        elif sc == "add":
            a, b = (ws.parse(e) for e in args.elem)
            _out(_render(a + b, pretty))
        elif sc == "order":
            n = ws.parse(args.elem[0]).order()
            _out("infinity" if n == float("inf") else str(n))
        elif sc == "dualizing":
            _out(_render(ws.dualizing_element(), pretty))
        elif sc == "tubular":
            _out("true" if ws.is_tubular() else "false")
        return 0

    hom = builtin_group_hom(args.case)
    if sc == "kernel":
        for k in hom.kernel():
            _out(_render(k, pretty))
        return 0
    if sc == "fiber":
        x = hom.target.parse(args.elem[0])
        for y in hom.fiber(x):
            _out(_render(y, pretty))
        return 0
    if sc == "admissible":
        rep = hom.is_admissible(args.window)
        _out(json.dumps({
            "admissible": rep.admissible,
            "effective": rep.effective,
            "window": rep.window,
            "checked": rep.checked,
            "failures": [[str(x), got, want] for x, got, want in rep.failures],
            "kernel": [str(k) for k in rep.kernel],
            "edge_regime_ok": rep.edge_regime_ok,
        }, sort_keys=True))
        return 0
    raise UsageError("unknown group subcommand %r" % sc)


# -- algebra subcommands ------------------------------------------------------

def _algebra_from_args(args) -> CoordinateAlgebra:
    ws = _weights(args.weights)
    field = field_from_spec(args.field)
    extra = [parse_scalar(v, field) for v in args.params.split(",") if v.strip()]
    if len(ws) == 2:
        if extra:
            raise UsageError("weight sequences of length 2 take no parameters")
        params = []
    elif len(extra) != len(ws) - 3:
        raise UsageError("--params takes %d value%s for %d weights (the first parameter "
                         "is fixed at 1), got %d"
                         % (len(ws) - 3, "" if len(ws) == 4 else "s", len(ws), len(extra)))
    else:
        params = [field.one] + extra
    try:
        return CoordinateAlgebra(ws, field, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_algebra(args) -> int:
    alg = _algebra_from_args(args)
    sc = args.subcommand
    if sc == "dim":
        x = alg.weights.parse(args.degree)
        _out(alg.dim(x))
        return 0
    if sc == "basis":
        x = alg.weights.parse(args.degree)
        basis = alg.component_basis(x)
        if args.as_json:
            _out(json.dumps([list(e) for e in basis]))
        else:
            _out("[%s]" % ", ".join(map(alg.monomial_text, basis)))
        return 0
    if sc == "reduce":
        coeff = parse_scalar(args.coeff, alg.field)
        _out(alg.reduce_monomial(_ints(args.monomial, "--monomial"), coeff))
        return 0
    if sc == "hilbert":
        if args.lmax - args.lmin > MAX_LEVELS:
            raise UsageError("--lmax - --lmin is %d, more than the %d levels algebra hilbert "
                             "lists" % (args.lmax - args.lmin, MAX_LEVELS))
        tor = (_ints(args.torsion, "--torsion") if args.torsion.strip()
               else (0,) * len(alg.weights))
        # level l has degree x + (l - lmin) c, of dim max(l + shift + 1, 0)
        shift = alg.weights.normalize(args.lmin, tor).l - args.lmin
        for start in range(args.lmin, args.lmax + 1, HILBERT_BLOCK):
            stop = min(start + HILBERT_BLOCK, args.lmax + 1)
            _out("\n".join(["%d %d" % (l, max(l + shift + 1, 0)) for l in range(start, stop)]))
        return 0
    raise UsageError("unknown algebra subcommand %r" % sc)


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if bool(args.case) == bool(args.config):
        raise UsageError("verify needs exactly one of --case or --config")
    cfg = case_config(args.case) if args.case else VerifyConfig.load(args.config)
    window = args.window if args.window is not None else cfg.window
    if args.auto_prime:
        if args.field is not None:
            raise UsageError("--auto-prime replaces --field")
        field = PrimeField(auto_prime(cfg, lam=args.lam, case_id=args.case or "custom"))
    else:
        field = field_from_spec(args.field or cfg.field_spec)
    spec = builtin_case(cfg, field, lam=args.lam, root_pick=args.root_pick,
                        case_id=args.case or "custom")
    extra = {}
    if args.tamper:
        key, _, value = args.tamper.partition("=")
        if key.strip() != "lambda" or not value:
            raise UsageError("unsupported --tamper directive %r (try lambda=VALUE)"
                             % args.tamper)
        spec, extra = spec.tampered(value), {"tamper": args.tamper}
    try:
        hom = spec.algebra_hom
    except (RelationError, GradednessError, WellDefinednessError) as exc:
        report = {"case": spec.case_id, "field": field.name, "window": window,
                  "constants": spec.report_constants(), "records": [],
                  "error": {"type": type(exc).__name__, "message": str(exc)},
                  "summary": "fail", **extra}
        if not isinstance(exc, WellDefinednessError):  # the group map exists
            rep = spec.group_hom.is_admissible(window)
            report["admissible"] = rep.admissible
            report["kernel"] = [str(k) for k in rep.kernel]
        text, passed = json.dumps(report, sort_keys=True, indent=2), False

        def write(stream):
            stream.write(text + "\n")
    else:
        result = hom.verify_window(window)
        passed = result.passed

        def write(stream):
            result.to_report(case=spec.case_id, field_name=field.name,
                             constants=spec.report_constants(), extra=extra, out=stream)
            stream.write("\n")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            if _is_stdout(fh):  # two writers on one file would mix their copies
                _emit(write)
            else:
                write(_Tee(fh))
    else:
        _emit(write)
    return 0 if passed else 1


def _is_stdout(fh) -> bool:
    """Whether the open file fh is the file of the current sys.stdout."""
    try:
        return os.path.samestat(os.fstat(fh.fileno()), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # a stdout without a file descriptor
        return False


class _Tee:
    """A text stream that writes to a file and then to stdout (``_emit``),
    so a report is made once for both, and the file is written whole when
    the reader of stdout leaves.  Unlike a copy of the file made after it,
    it also serves an --out that is not a regular file (/dev/null, a
    pipe)."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text: str):
        self._fh.write(text)
        _emit(lambda stdout: stdout.write(text))


#: flags whose values can begin with "-" (element literals, parameters, ...)
_RAW_VALUE_FLAGS = ("--elem", "--degree", "--lambda", "--coeff", "--torsion",
                    "--monomial", "--params")


def _join_raw_values(argv: list[str]) -> list[str]:
    """Turn ["--elem", "-2;5,2,1"] into ["--elem=-2;5,2,1"] so argparse does
    not read the value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RAW_VALUE_FLAGS and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_raw_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "algebra":
            return _cmd_algebra(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError("unknown command %r" % args.command)
    except ConstantUnavailable as exc:
        print("error: %s (try another prime, or --auto-prime)" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print("error: division by zero in an input value (%s)" % exc, file=sys.stderr)
        return 2
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
