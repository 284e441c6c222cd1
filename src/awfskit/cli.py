"""Batch command line: factor, lift, verify, oracle, validate.

Every run is one job: read UTF-8 JSON inputs, compute, write JSON
artifacts (with ``--out``/``--trace``) and a short human summary on
stdout.  Exit codes: 0 all checks passed; 1 a verification, validation,
or input error (the report names what failed; a command line that does
not parse prints its usage); 2 the chain did not stabilise within
``--max-stage`` (the summary lists the per-stage carrier sizes); 3 an
enumeration or carrier exceeded the size budget.  ``oracle kappa`` with
neither map sweeps every pair of maps with carriers at most ``--bound``.

A process that calls ``main`` many times pays its fixed cost once: it
builds one argument parser, on the first call, and reuses each
presentation's decoded and validated form while the file's path and
bytes are unchanged.  Every call still reads the presentation file in
full; ``validate`` always decodes and validates afresh.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import Optional

from .chain import extract, run_chain, solve_lift
from .errors import (
    EngineError,
    InvalidPresentation,
    NotStabilised,
    OutputError,
    ParseError,
    SizeBudgetExceeded,
)
from .serialize import (
    decode_certificate,
    decode_map_or_arrow,
    decode_presentation,
    decode_problem,
    encode_certificate,
    encode_map,
    parse_text,
    read_json,
    read_text,
    trace_summary,
    write_json,
)
from .step import LiftingProblem, SizeBudget, check_listable
from .verify import Report, oracle_initiality, oracle_kappa, small_arrows, verify_certificate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_STABILISED = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    """A command line that does not parse; its usage is already printed."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input failures (exit 1),
    not argparse's exit 2, which here means the chain did not stabilise."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _non_negative(what: str):
    """An argument type: an int that is not negative, named ``what`` when it is."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must not be negative: {value}")
        return value

    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.
    Parsing leaves it unchanged, and argparse reads ``sys.stdout`` and
    ``sys.stderr`` when it prints, so every call parses as if it were new."""
    top = _Parser(
        prog="awfskit",
        description="Factorise maps of finite sets with certified lifting structure.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, mode=False, chain=False, budget=True):
        p.add_argument("--presentation", required=True, help="presentation JSON file")
        if mode:
            p.add_argument("--mode", choices=("plain", "special"), default="plain")
        if chain:
            p.add_argument("--max-stage", type=int, default=16, metavar="N")
        if budget:
            p.add_argument("--budget", type=_non_negative("budget"), default=None, metavar="N",
                           help="problem-count budget for enumerations")
        p.add_argument("--out", default=None, metavar="PATH", help="write the JSON artifact here")

    p = sub.add_parser("factor", help="compute the factorisation and its certificate")
    common(p, mode=True, chain=True)
    p.add_argument("--map", required=True, help="the map to factorise (map or arrow JSON)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the per-stage trace summary here")

    p = sub.add_parser("lift", help="answer one lifting problem from a certificate")
    common(p)
    p.add_argument("--certificate", required=True)
    p.add_argument("--problem", required=True,
                   help='problem JSON: {"generator", "top", "bot"}')

    p = sub.add_parser("verify", help="re-check every defining equation of a certificate")
    common(p)
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("oracle", help="run an independent cross-check")
    p.add_argument("kind", choices=("kappa", "initiality"))
    common(p)
    sweep = " (omit --map and --target-map to sweep every pair within --bound)"
    p.add_argument("--map", default=None, help="kappa: the map whose extension is probed" + sweep)
    p.add_argument("--target-map", default=None, help="kappa: the map lifted against" + sweep)
    p.add_argument("--certificate", default=None, help="initiality: the certificate to check")
    p.add_argument("--bound", type=_non_negative("bound"), default=2, metavar="N",
                   help="kappa: maximum carrier size accepted" + sweep)
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="kappa: seed for the sampled regime")

    p = sub.add_parser("validate", help="check a presentation against the axioms")
    common(p, budget=False)
    return top


def _print_report(report: Report) -> None:
    for e in report.entries:
        status = "ok" if e.ok else "FAIL"
        detail = f": {e.detail}" if e.detail else ""
        print(f"{status} {e.label}{detail}")


def _finish_report(report: Report, out: Optional[str]) -> int:
    if out:
        write_json(out, report.to_payload())
    _print_report(report)
    return EXIT_OK if report.ok else EXIT_FAIL


def _load_presentation(path: str):
    """The presentation in the file at ``path``, decoded and validated once
    per path and content: the file is read in full on every call, and a
    changed byte decodes and validates again."""
    return _presentation(path, read_text(path))


# The presentations kept decoded and validated, keyed by path and text:
# more than a run of calls uses at once, and few enough that what the memo
# holds (these texts and their decoded forms) stays small.
_PRESENTATION_MEMO = 8


@functools.lru_cache(maxsize=_PRESENTATION_MEMO)
def _presentation(path: str, text: str):
    # a fault raises, and lru_cache keeps no exception: an invalid file
    # fails in full, with the same message, on every call
    pres = decode_presentation(parse_text(text, path), path)
    pres.ensure_valid()
    return pres


def _budget(args) -> Optional[SizeBudget]:
    return SizeBudget(max_problems=args.budget) if args.budget is not None else None


def _cmd_factor(args) -> int:
    pres = _load_presentation(args.presentation)
    f = decode_map_or_arrow(read_json(args.map), args.map)
    trace = run_chain(pres, f, mode=args.mode, max_stage=args.max_stage, budget=_budget(args))
    if args.trace:
        write_json(args.trace, trace_summary(trace))
    try:
        cert = extract(trace)
    except NotStabilised as e:
        print(f"not stabilised: {e}", file=sys.stderr)
        if args.out:
            write_json(args.out, {"error": "not-stabilised", "carrier_sizes": e.sizes,
                                  "detail": str(e)})
        return EXIT_NOT_STABILISED
    if args.out:
        write_json(args.out, encode_certificate(cert))
    print(
        f"stabilised at stage {cert.stage}; middle carrier {cert.middle_size}; "
        f"stage carriers {cert.trace_sizes}; lift table {len(cert.lift_table)} fillers"
    )
    return EXIT_OK


def _cmd_lift(args) -> int:
    pres = _load_presentation(args.presentation)
    obj = read_json(args.certificate)
    # count the records before any filler is decoded, as verify counts the
    # problems before it lists them; a malformed table is the decoder's to name
    records = obj.get("lift_table") if isinstance(obj, dict) else None
    if isinstance(records, list):
        check_listable(len(records), _budget(args), "lift table lists")
    cert = decode_certificate(obj, pres, args.certificate)
    gen, top, bot = decode_problem(read_json(args.problem), args.problem)
    u = dict(pres.lifting_generators()).get(gen)
    if u is None:
        print(f"unknown generator {gen!r}", file=sys.stderr)
        return EXIT_FAIL
    problem = LiftingProblem.of(gen, u, cert.right, top, bot)
    filler = solve_lift(cert, problem)
    if args.out:
        write_json(args.out, encode_map(filler))
    print(f"filler for {problem.key}: {list(filler.table)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    pres = _load_presentation(args.presentation)
    cert = decode_certificate(read_json(args.certificate), pres, args.certificate)
    return _finish_report(verify_certificate(cert, budget=_budget(args)), args.out)


def _sweep_kappa(pres, args) -> int:
    if args.out:
        print("oracle kappa sweep writes no report; --out needs both maps", file=sys.stderr)
        return EXIT_FAIL
    n = sum(y ** x for x in range(args.bound + 1) for y in range(args.bound + 1))
    check_listable(n * n, _budget(args), "oracle kappa sweep lists", "pairs")
    print(f"{n} maps with carriers <= {args.bound}; sweeping {n * n} ordered pairs")
    failures = 0
    for f, g in itertools.product(small_arrows(args.bound), repeat=2):
        report = oracle_kappa(pres, f, g, bound=args.bound, budget=_budget(args), seed=args.seed)
        detail = "; ".join(e.detail for e in report.entries if e.detail)
        print(f"{'ok  ' if report.ok else 'FAIL'} f={list(f.map.table)}:{f.top.size}->{f.bot.size} "
              f"g={list(g.map.table)}:{g.top.size}->{g.bot.size}  {detail}")
        failures += not report.ok
    print(f"swept {n * n} pairs, {failures} failures")
    return EXIT_FAIL if failures else EXIT_OK


def _cmd_oracle(args) -> int:
    pres = _load_presentation(args.presentation)
    if args.kind == "kappa":
        if not args.map and not args.target_map:
            return _sweep_kappa(pres, args)
        if not args.map or not args.target_map:
            print("oracle kappa needs --map and --target-map", file=sys.stderr)
            return EXIT_FAIL
        f = decode_map_or_arrow(read_json(args.map), args.map)
        g = decode_map_or_arrow(read_json(args.target_map), args.target_map)
        report = oracle_kappa(
            pres, f, g, bound=args.bound, budget=_budget(args), seed=args.seed
        )
    else:
        if not args.certificate:
            print("oracle initiality needs --certificate", file=sys.stderr)
            return EXIT_FAIL
        cert = decode_certificate(read_json(args.certificate), pres, args.certificate)
        report = oracle_initiality(cert, budget=_budget(args))
    return _finish_report(report, args.out)


def _cmd_validate(args) -> int:
    pres = decode_presentation(read_json(args.presentation), args.presentation)
    report = pres.validate()
    if args.out:
        write_json(
            args.out,
            {
                "ok": report.ok,
                "violations": [
                    {"axiom": v.axiom, "witness": v.witness} for v in report.violations
                ],
            },
        )
    if report.ok:
        print("valid")
        return EXIT_OK
    for v in report.violations:
        print(f"FAIL {v.axiom}: {v.witness}")
    return EXIT_FAIL


_COMMANDS = {
    "factor": _cmd_factor,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_FAIL
    try:
        return _COMMANDS[args.command](args)
    except SizeBudgetExceeded as e:
        print(f"size budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, InvalidPresentation, OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except EngineError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
