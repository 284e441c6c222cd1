"""Seeded inputs, job lists and known answers for the awfskit benchmark.

Every job is a short sequence of command-line calls (``awfskit.cli.main``)
on files written during set-up.  Inputs come from fixed pools: the pools
are generated from constant pool seeds, so that the expected output of
every pool entry can be pinned in ``pins.json``; the run seed chooses
which pool entries each cycle of the closed loop uses, and in which
order.  Every cycle of a workload has the same composition of job
classes, so that throughput and latency quantiles do not depend on how
many heavy jobs a seed happens to draw.

The known answers are computed here, not by the engine: exit codes,
carrier sizes and verify labels follow from the cases below, the
factorisation ``R . L = f`` and the fill equations of each lift are
recomputed from the JSON by list indexing, and the bytes of every
certificate and every report are compared with their pinned SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
PINS_PATH = HERE / "pins.json"

WORKLOADS = ("certify", "deep_chain", "oracle")

# Presentations handed to the program: the shipped fixtures, plus the
# tests' plain two-generator shape with one connecting square, whose
# chain takes the general step path.
FIXTURE_PRESENTATIONS = ("gen_split_epi", "gen_composite", "gen_abc", "gen_growth")
TWO_GEN = {
    "kind": "plain",
    "comp": [],
    "generators": [
        {"name": "j", "map": {"dom": 0, "cod": 1, "table": []}},
        {"name": "k", "map": {"dom": 1, "cod": 1, "table": [0]}},
    ],
    "morphisms": [
        {
            "name": "s",
            "dom": "j",
            "cod": "k",
            "top": {"dom": 0, "cod": 1, "table": []},
            "bot": {"dom": 1, "cod": 1, "table": [0]},
        }
    ],
}

# certify: (presentation, mode, max stage, expected verify exit, expected
# FAIL labels).  Plain mode on the composite presentation ignores vertical
# composition, so its certificates fail exactly that check.  The max stage
# is the least that detects stabilisation: these chains are stationary
# from stage 1 (split-epi, plain) or 2 (composite, special).
CERTIFY_KINDS = {
    "split_epi-special": ("gen_split_epi", "special", 3, 0, frozenset()),
    "composite-special": ("gen_composite", "special", 4, 0, frozenset()),
    "composite-plain": ("gen_composite", "plain", 2, 1, frozenset({"vertical-compatibility"})),
    "two_gen-plain": ("two_gen", "plain", 2, 0, frozenset()),
}
CERTIFY_MAX_SIZE = 1500
CERTIFY_BINS = 8  # log-uniform strata of the domain size, 1 .. CERTIFY_MAX_SIZE
CERTIFY_VARIANTS = 4  # pool maps per (kind, stratum)
LIFTS_PER_JOB = 3  # lift problems pinned per certificate, each asked in every job

# deep_chain cases.
ABC_CHAIN_MAPS = [(1, 2, (0,)), (1, 2, (1,))]  # both give the carriers below
ABC_CHAIN_SIZES = [1, 13, 461, 429565]
GROWTH_STAGES = 300
LARGE_VARIANTS = 6  # composite special maps of about 4000 -> 400, two per cycle
ABC_BUDGET_MAPS = [(1, 2, (0,)), (1, 2, (1,)), (1, 3, (0,)), (1, 3, (1,)), (1, 3, (2,))]

# oracle cases.  The nine gen_abc pairs below take 2.4-2.8 s each for the
# kappa oracle (4096 or 8192 squares, each mediated and restricted); every
# other pair with carriers <= 2 takes under 0.02 s.
HEAVY_F = [(1, 2, (0,)), (1, 2, (1,)), (2, 1, (0, 0))]
HEAVY_G = [(2, 1, (0, 0)), (2, 2, (0, 0)), (2, 2, (1, 1))]
KAPPA_PRESENTATIONS = ("gen_split_epi", "gen_composite", "gen_abc")
LIGHT_KAPPA_PER_PRESENTATION = 12  # about all light pairs in a run of ten cycles
INITIALITY_MAX = 3  # carriers of the certificates checked by oracle initiality
PROBE_LIFT = ("j", (), (1,))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_digest(code, stdout: str, stderr: str) -> str:
    return sha(f"{code}\n{stdout}\n{stderr}".encode())[:16]


def small_arrows(max_size: int) -> list:
    """Every map between carriers of size at most ``max_size``, as
    (dom, cod, table), in the order of the kappa sweep script."""
    out = []
    for x in range(max_size + 1):
        for y in range(max_size + 1):
            if x > 0 and y == 0:
                continue
            for table in itertools.product(range(y), repeat=x):
                out.append((x, y, tuple(table)))
    return out


def arrow_name(a) -> str:
    x, y, t = a
    table = "".join(map(str, t)) if x <= 8 else sha(repr(t).encode())[:12]
    return f"{x}to{y}-{table}"


def map_json(a) -> dict:
    x, y, t = a
    return {"dom": x, "cod": y, "table": list(t)}


# ---------------------------------------------------------------------------
# calls and jobs


@dataclass
class Call:
    """One command-line call with what the benchmark knows of its answer.

    ``pin`` names the entry of ``pins.json`` holding the digests of its
    exit code, stdout and stderr and, for ``factor --out``, of the
    certificate.  ``expect`` holds the known answer checked independently
    of the pins."""

    kind: str  # factor | verify | lift | kappa | initiality
    argv: list
    pin: Optional[str]
    expect: dict
    out: Optional[str] = None


@dataclass
class Job:
    label: str
    calls: list


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float  # wall time in the program
    out_sha: Optional[str] = None
    out_bytes: Optional[bytes] = None  # small outputs, read before the next call overwrites them
    cert_sha: Optional[str] = None  # lift calls: digest of the certificate they read
    crash: Optional[str] = None
    span: tuple = (0.0, 0.0)  # perf_counter at the call's start and end
    speed: float = 1.0  # the host's speed during the call, see hostspeed.py

    def digest(self) -> list:
        return [self.code, text_digest(self.code, self.stdout, self.stderr), self.out_sha]


# ---------------------------------------------------------------------------
# pools (fixed) and plans (seeded)


def certify_pool() -> dict:
    """(kind, stratum, variant) -> (dom, cod, table); log-uniform domain
    sizes within each stratum, codomains of about |X|/3 to |X|/12."""
    rng = random.Random("awfskit-certify-pool")
    edges = [CERTIFY_MAX_SIZE ** (i / CERTIFY_BINS) for i in range(CERTIFY_BINS + 1)]
    pool = {}
    for kind in CERTIFY_KINDS:
        for b in range(CERTIFY_BINS):
            lo, hi = math.log(edges[b]), math.log(edges[b + 1])
            for v in range(CERTIFY_VARIANTS):
                x = max(1, round(math.exp(rng.uniform(lo, hi))))
                y = max(1, round(x / math.exp(rng.uniform(math.log(3), math.log(12)))))
                pool[(kind, b, v)] = (x, y, tuple(rng.randrange(y) for _ in range(x)))
    return pool


def large_pool() -> list:
    rng = random.Random("awfskit-large-pool")
    out = []
    for _ in range(LARGE_VARIANTS):
        x = rng.randint(3800, 4200)
        y = round(x / 10)
        out.append((x, y, tuple(rng.randrange(y) for _ in range(x))))
    return out


def initiality_pool() -> list:
    """(presentation, arrow) for the certificates checked by oracle
    initiality: maps with |X| * |Y| <= 4, whose jobs take 5-30 ms.  The
    2 -> 3 and 3 -> 2 maps are left out: they take 35-160 ms, around and
    above the probe job (about 40 ms), so how many of them a seed draws
    would move job_tail_s; 3 -> 3 maps take 0.3-2.5 s.  gen_abc only
    adjoins cells within budget from an empty domain."""
    out = []
    for a in small_arrows(INITIALITY_MAX):
        if a[1] == 0 or a[0] * a[1] > 4:
            continue
        for p in ("gen_split_epi", "gen_composite"):
            out.append((p, a))
        if a[0] == 0:
            out.append(("gen_abc", a))
    return out


def heavy_pairs() -> list:
    return [(f, g) for f in HEAVY_F for g in HEAVY_G]


def light_pairs(pres: str) -> list:
    heavy = set(heavy_pairs()) if pres == "gen_abc" else set()
    arrows = small_arrows(2)
    return [(f, g) for f in arrows for g in arrows if (f, g) not in heavy]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# set-up: writes every input a plan can reference


class Inputs:
    """The files handed to the program, all under one work directory."""

    def __init__(self, workdir: Path, pins: dict):
        self.dir = Path(workdir)
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        self.pins = pins
        self.pres: dict = {}
        self.gen_maps: dict = {}
        self.written: set = set()

    def write(self, rel: str, payload) -> str:
        """Write an input once; set-up writes every input a plan can
        reference, so building a cycle's jobs writes nothing."""
        path = self.dir / rel
        if rel not in self.written:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload), encoding="utf-8")
            self.written.add(rel)
        return str(path)

    def presentations(self) -> None:
        """Copy the fixtures, decode them, and keep each generator's map
        for the fill-equation checks."""
        from awfskit.serialize import decode_presentation

        for name in FIXTURE_PRESENTATIONS:
            src = FIXTURES / f"{name}.json"
            dst = self.dir / f"{name}.json"
            shutil.copyfile(src, dst)
            self.pres[name] = str(dst)
        self.pres["two_gen"] = self.write("two_gen.json", TWO_GEN)
        for name, path in self.pres.items():
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            decode_presentation(obj, path).ensure_valid()
            gens = obj["vmorphisms"] if obj["kind"] == "double" else obj["generators"]
            self.gen_maps[name] = {
                g["name"]: g["umap" if obj["kind"] == "double" else "map"]["table"] for g in gens
            }

    def arrow(self, a) -> str:
        return self.write(f"maps/{arrow_name(a)}.json", map_json(a))

    def problem(self, problem) -> str:
        gen, top, bot = problem
        payload = {"generator": gen, "top": list(top), "bot": list(bot)}
        return self.write(f"problems/{sha(json.dumps(payload).encode())[:16]}.json", payload)


def factor_call(inp: Inputs, pres: str, mode: str, stage: int, a, pin: str, out: str,
               middle: Optional[int]) -> Call:
    return Call(
        "factor",
        ["factor", "--presentation", inp.pres[pres], "--map", inp.arrow(a), "--mode", mode,
         "--max-stage", str(stage), "--out", out],
        pin,
        {"exit": 0, "map": a, "middle": middle},
        out,
    )


def _middle(kind: str, x: int, y: int) -> int:
    """Middle carrier of the factorisation: special mode adjoins one point
    per element of the codomain, plain mode on the composite presentation
    one per generator with a free point, and the two-generator shape
    collapses the domain onto the codomain."""
    return {"split_epi-special": x + y, "composite-special": x + y,
            "composite-plain": x + 2 * y, "two_gen-plain": y}[kind]


def certify_job(inp: Inputs, kind: str, key: str, a, lifts: list) -> Job:
    pres, mode, stage, vexit, vfails = CERTIFY_KINDS[kind]
    pin = f"certify/{kind}/{key}"
    cert = str(inp.dir / "out/cert.json")
    calls = [
        factor_call(inp, pres, mode, stage, a, pin + "/factor", cert, _middle(kind, a[0], a[1])),
        Call("verify", ["verify", "--presentation", inp.pres[pres], "--certificate", cert],
             pin + "/verify", {"exit": vexit, "fails": vfails}),
    ]
    for problem in lifts:
        calls.append(lift_call(inp, pres, cert, problem))
    return Job(f"certify/{kind}", calls)


def lift_call(inp: Inputs, pres: str, cert: str, problem) -> Call:
    gen, top, bot = problem
    return Call(
        "lift",
        ["lift", "--presentation", inp.pres[pres], "--certificate", cert,
         "--problem", inp.problem(problem), "--out", str(inp.dir / "out/filler.json")],
        None,
        {"exit": 0, "problem": (gen, tuple(top), tuple(bot)), "u": inp.gen_maps[pres][gen]},
        str(inp.dir / "out/filler.json"),
    )


def probe_job(inp: Inputs) -> Job:
    """The README's split-epi example end to end, once per cycle of every
    workload, so that every layer is called at least once in each."""
    cert = str(inp.dir / "out/probe-cert.json")
    pres = inp.pres["gen_split_epi"]
    return Job("probe", [
        factor_call(inp, "gen_split_epi", "special", 3, (3, 2, (0, 1, 0)), "probe/factor",
                   cert, 5),
        Call("verify", ["verify", "--presentation", pres, "--certificate", cert],
             "probe/verify", {"exit": 0, "fails": frozenset()}),
        lift_call(inp, "gen_split_epi", cert, PROBE_LIFT),
        Call("initiality", ["oracle", "initiality", "--presentation", pres, "--certificate", cert],
             "probe/initiality", {"exit": 0}),
        kappa_call(inp, "gen_split_epi", ((0, 1, ()), (1, 1, (0,)))),
    ])


def kappa_call(inp: Inputs, pres: str, pair) -> Call:
    f, g = pair
    return Call(
        "kappa",
        ["oracle", "kappa", "--presentation", inp.pres[pres], "--map", inp.arrow(f),
         "--target-map", inp.arrow(g)],
        f"kappa/{pres}/{arrow_name(f)}/{arrow_name(g)}",
        {"exit": 0},
    )


def initiality_job(inp: Inputs, pres: str, a) -> Job:
    pin = f"initiality/{pres}/{arrow_name(a)}"
    cert = str(inp.dir / "out/init-cert.json")
    middle = None if pres == "gen_abc" else a[0] + a[1]
    return Job("oracle/initiality", [
        factor_call(inp, pres, "special", 4, a, pin + "/factor", cert, middle),
        Call("initiality", ["oracle", "initiality", "--presentation", inp.pres[pres],
                            "--certificate", cert], pin + "/initiality", {"exit": 0}),
    ])


def not_stabilised_job(inp: Inputs, label: str, pres: str, mode: str, a, stage: int,
                        sizes: list, extra=()) -> Job:
    out = str(inp.dir / "out/not-stabilised.json")
    return Job(label, [Call(
        "factor",
        ["factor", "--presentation", inp.pres[pres], "--map", inp.arrow(a), "--mode", mode,
         "--max-stage", str(stage), *extra, "--out", out],
        f"{label}/{arrow_name(a)}",
        {"exit": 2, "sizes": sizes},
        out,
    )])


def abc_chain_job(inp: Inputs, a) -> Job:
    return not_stabilised_job(inp, "deep_chain/abc", "gen_abc", "special", a, 3,
                               ABC_CHAIN_SIZES, ("--budget", "2000000"))


def growth_job(inp: Inputs) -> Job:
    return not_stabilised_job(inp, "deep_chain/growth", "gen_growth", "plain", (1, 1, (0,)),
                               GROWTH_STAGES, list(range(1, GROWTH_STAGES + 2)))


def large_job(inp: Inputs, v: int, a) -> Job:
    return Job("deep_chain/composite", [factor_call(
        inp, "gen_composite", "special", 4, a, f"deep_chain/composite/v{v}/factor",
        str(inp.dir / "out/large-cert.json"), a[0] + a[1])])


def budget_job(inp: Inputs, a) -> Job:
    return Job("deep_chain/budget", [Call(
        "factor",
        ["factor", "--presentation", inp.pres["gen_abc"], "--map", inp.arrow(a),
         "--mode", "special", "--max-stage", "3"],
        f"deep_chain/budget/{arrow_name(a)}",
        {"exit": 3},
    )])


class Plan:
    """The seeded sequence of cycles of one workload.

    Each stratum of a pool is drawn without replacement, in a seeded
    order, so a run of n cycles uses n different entries of each stratum
    (as far as it has them) whatever the seed.  ``tiny`` keeps only the
    light job classes, for the smoke test."""

    def __init__(self, workload: str, seed: int, inp: Inputs, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.inp = inp
        self.tiny = tiny
        self.probe = probe_job(inp)
        self.orders: dict = {}
        getattr(self, f"_setup_{workload}")()

    def take(self, stratum: str, items: list, cycle: int, k: int = 1) -> list:
        """Entries ``cycle * k`` .. ``cycle * k + k - 1`` of the seeded
        order of ``stratum``, wrapping round."""
        order = self.orders.get(stratum)
        if order is None:
            order = list(items)
            random.Random(f"{self.workload}:{self.seed}:{stratum}").shuffle(order)
            self.orders[stratum] = order
        return [order[(cycle * k + j) % len(order)] for j in range(k)]

    def cycle(self, i: int) -> list:
        rng = random.Random(f"{self.workload}:{self.seed}:cycle{i}")
        jobs = getattr(self, f"_cycle_{self.workload}")(i) + [self.probe]
        rng.shuffle(jobs)
        return jobs

    # -- certify -----------------------------------------------------------

    def _setup_certify(self) -> None:
        self.bins = 3 if self.tiny else CERTIFY_BINS
        self.entries = {}
        for (kind, b, v), a in certify_pool().items():
            if b >= self.bins:
                continue
            key = f"b{b}v{v}"
            lifts = self.inp.pins.get(f"certify/{kind}/{key}/lifts", [])
            self.inp.arrow(a)
            for problem in lifts:
                self.inp.problem(problem)
            self.entries.setdefault((kind, b), []).append((key, a, lifts))

    def _cycle_certify(self, i) -> list:
        jobs = []
        for (kind, b), entries in self.entries.items():
            (key, a, lifts), = self.take(f"{kind}/{b}", entries, i)
            jobs.append(certify_job(self.inp, kind, key, a, lifts))
        return jobs

    # -- deep_chain --------------------------------------------------------

    def _setup_deep_chain(self) -> None:
        self.large = list(enumerate(large_pool()))
        for a in ABC_BUDGET_MAPS:
            self.inp.arrow(a)
        if not self.tiny:
            for a in [a for _, a in self.large] + [(1, 1, (0,))] + ABC_CHAIN_MAPS:
                self.inp.arrow(a)

    def _cycle_deep_chain(self, i) -> list:
        jobs = [budget_job(self.inp, *self.take("budget", ABC_BUDGET_MAPS, i))]
        if not self.tiny:
            jobs += [
                abc_chain_job(self.inp, *self.take("abc", ABC_CHAIN_MAPS, i)),
                growth_job(self.inp),
                *(large_job(self.inp, v, a) for v, a in self.take("large", self.large, i, 2)),
            ]
        return jobs

    # -- oracle ------------------------------------------------------------

    def _setup_oracle(self) -> None:
        self.light = {p: light_pairs(p) for p in KAPPA_PRESENTATIONS}
        self.init = {}
        for pres, a in initiality_pool():
            self.init.setdefault(pres, []).append(a)
        for a in small_arrows(INITIALITY_MAX):
            self.inp.arrow(a)

    def _cycle_oracle(self, i) -> list:
        jobs = []
        if not self.tiny:
            pair, = self.take("heavy", heavy_pairs(), i)
            jobs.append(Job("oracle/kappa-heavy", [kappa_call(self.inp, "gen_abc", pair)]))
        for pres in KAPPA_PRESENTATIONS:
            for pair in self.take(f"kappa/{pres}", self.light[pres], i,
                                  LIGHT_KAPPA_PER_PRESENTATION):
                jobs.append(Job("oracle/kappa", [kappa_call(self.inp, pres, pair)]))
            a, = self.take(f"initiality/{pres}", self.init[pres], i)
            jobs.append(initiality_job(self.inp, pres, a))
        return jobs


# ---------------------------------------------------------------------------
# known-answer checks

_SUMMARY = re.compile(
    r"stabilised at stage (\d+); middle carrier (\d+); stage carriers \[([0-9, ]*)\]; "
    r"lift table (\d+) fillers\n"
)
_REPORT_LINE = re.compile(r"(ok|FAIL) ([a-z0-9-]+)(: .*)?")
_FILLER = re.compile(r"filler for .*: \[([0-9, ]*)\]\n")


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def check_call(call: Call, oc: Outcome, pins: dict) -> list:
    """Problems with one call's outcome that need no certificate contents."""
    if oc.crash:
        return [f"crashed: {oc.crash}"]
    problems = []
    exp = call.expect
    if oc.code != exp["exit"]:
        problems.append(f"exit {oc.code}, expected {exp['exit']}")
    if call.pin is not None:
        pinned = pins.get(call.pin)
        if pinned is None:
            problems.append(f"no pinned answer {call.pin}")
        elif pinned != oc.digest():
            problems.append(f"output differs from pinned {call.pin}")
    if call.kind == "factor" and exp["exit"] == 0:
        m = _SUMMARY.fullmatch(oc.stdout)
        if not m:
            problems.append(f"unexpected factor summary {oc.stdout!r}")
        elif exp["middle"] is not None and int(m.group(2)) != exp["middle"]:
            problems.append(f"middle carrier {m.group(2)}, expected {exp['middle']}")
    elif call.kind == "factor" and exp["exit"] == 2:
        sizes = exp["sizes"]
        if f"(carrier sizes {sizes})" not in oc.stderr:
            problems.append("not-stabilised message lacks the expected carrier sizes")
        try:
            payload = json.loads(oc.out_bytes)
        except (TypeError, ValueError) as e:
            problems.append(f"unreadable --out file: {e}")
        else:
            if payload.get("error") != "not-stabilised" or payload.get("carrier_sizes") != sizes:
                problems.append("--out file does not record the expected carrier sizes")
    elif call.kind == "factor" and exp["exit"] == 3:
        if not oc.stderr.startswith("size budget exceeded"):
            problems.append("budget failure not reported")
    elif call.kind in ("verify", "kappa", "initiality"):
        lines = oc.stdout.splitlines()
        parsed = [_REPORT_LINE.fullmatch(line) for line in lines]
        if not lines or not all(parsed):
            problems.append("unexpected report lines")
        else:
            fails = {m.group(2) for m in parsed if m.group(1) == "FAIL"}
            if fails != exp.get("fails", frozenset()):
                problems.append(f"failed checks {sorted(fails)}")
            if call.kind == "kappa":
                card = re.fullmatch(r": squares=(\d+) liftings=(\d+)", parsed[0].group(3) or "")
                if parsed[0].group(2) != "cardinality" or not card or card[1] != card[2]:
                    problems.append("kappa cardinalities differ")
    elif call.kind == "lift":
        m = _FILLER.fullmatch(oc.stdout)
        if not m:
            problems.append(f"unexpected lift output {oc.stdout!r}")
    return problems


def check_certificate(call: Call, cert: dict, stdout: str) -> list:
    """Recompose R . L = f from the certificate JSON and compare it with
    the summary line."""
    problems = []
    x, y, table = call.expect["map"]
    left, right = cert["left"]["table"], cert["right"]["map"]["table"]
    if cert["input"]["map"]["table"] != list(table) or len(left) != x:
        problems.append("certificate input is not the map given")
    elif any(right[left[i]] != table[i] for i in range(x)):
        problems.append("R . L != f")
    if cert["right"]["bot"] != y or cert["right"]["top"] != len(right):
        problems.append("right leg has the wrong carriers")
    m = _SUMMARY.fullmatch(stdout)
    if m and (
        int(m.group(1)) != cert["stage"]
        or _ints(m.group(3)) != cert["trace_sizes"]
        or int(m.group(2)) != cert["right"]["top"]
        or int(m.group(4)) != len(cert["lift_table"])
    ):
        problems.append("summary line disagrees with the certificate")
    return problems


def check_lift(call: Call, oc: Outcome, cert: dict) -> list:
    """The filler must be the certificate's entry, restrict to the
    problem's top leg along the generator, and project onto its bottom leg
    along R."""
    gen, top, bot = call.expect["problem"]
    m = _FILLER.fullmatch(oc.stdout)
    if not m:
        return []  # reported by check_call
    filler = _ints(m.group(1))
    problems = []
    try:
        written = json.loads(oc.out_bytes)["table"]
    except (TypeError, ValueError, KeyError) as e:
        return [f"unreadable filler file: {e}"]
    if written != filler:
        problems.append("filler file differs from the printed filler")
    entry = [r["filler"]["table"] for r in cert["lift_table"]
             if r["generator"] == gen and tuple(r["top"]) == top and tuple(r["bot"]) == bot]
    if entry != [filler]:
        problems.append("filler is not the certificate's entry")
    u = call.expect["u"]
    right = cert["right"]["map"]["table"]
    if len(filler) != len(bot) or any(filler[u[a]] != top[a] for a in range(len(u))):
        problems.append("filler does not restrict to the problem's top leg")
    elif any(right[filler[b]] != bot[b] for b in range(len(bot))):
        problems.append("filler does not project onto the problem's bottom leg")
    return problems
