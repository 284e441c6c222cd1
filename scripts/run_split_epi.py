#!/usr/bin/env python3
"""End-to-end walkthrough on the split-epimorphism presentation.

Loads the shipped presentation whose single lifting generator is the
empty map into a point, factors the surjection 3 -> 2 through the
iterated one-step extension, verifies the resulting certificate, and
answers one lifting problem from the stored lift table.

Run from anywhere:

    python3 scripts/run_split_epi.py [--mode {plain,special}] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from awfskit.chain import extract, run_chain, solve_lift
from awfskit.serialize import (
    decode_map_or_arrow,
    decode_presentation,
    dumps,
    encode_certificate,
    read_json,
    trace_summary,
    write_json,
)
from awfskit.step import LiftingProblem
from awfskit.arrows import CommSquare
from awfskit.finset import FiniteMap
from awfskit.verify import verify_certificate

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("plain", "special"), default="special")
    parser.add_argument("--out", help="directory to write certificate.json and report.json")
    args = parser.parse_args()

    pres = decode_presentation(read_json(str(FIXTURES / "gen_split_epi.json")))
    f = decode_map_or_arrow(read_json(str(FIXTURES / "f_3to2.json")))

    print(f"target map: {list(f.map.table)} ({f.top.size} -> {f.bot.size})")
    trace = run_chain(pres, f, mode=args.mode, max_stage=3)
    summary = trace_summary(trace)
    print(f"chain carriers per stage: {summary['carrier_sizes']}")
    print(f"stabilised at stage: {summary['stabilised_at']}")

    cert = extract(trace)
    print(f"left leg  (into the middle object): {list(cert.left.table)}")
    print(f"right leg (onto the codomain):      {list(cert.right.map.table)}")
    print(f"structure map of the right leg:     {list(cert.beta0.table)}")

    report = verify_certificate(cert)
    for entry in report.entries:
        status = "ok  " if entry.ok else "FAIL"
        print(f"  {status} {entry.label}: {entry.detail}")
    if not report.ok:
        print("verification failed", file=sys.stderr)
        return 1

    # answer one lifting problem against the right leg: the generator that
    # adjoins cells is the empty map into a point, so a problem is a choice
    # of codomain element and the filler names its chosen section point
    gen_name, gen = next(
        (name, u)
        for name, u in pres.lifting_generators()
        if u.top.size == 0 and u.bot.size == 1
    )
    bot = FiniteMap(gen.bot, cert.right.bot, (1,))
    top = FiniteMap(gen.top, cert.right.top, ())
    problem = LiftingProblem(gen_name, CommSquare(gen, cert.right, top, bot))
    filler = solve_lift(cert, problem)
    print(f"filler for problem ({gen_name}, top=[], bot=[1]): {list(filler.table)}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(str(out / "certificate.json"), encode_certificate(cert))
        (out / "report.json").write_text(dumps(report.to_payload()))
        print(f"wrote certificate.json and report.json to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
