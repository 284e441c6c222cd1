"""Finitely presented categories of maps and small double categories,
realised in finite sets.

Two presentation kinds drive the factorisation engine:

* ``PlainPresentation`` — a finite category whose objects name maps of
  finite sets and whose arrows name commuting squares between them.
* ``DoubleCatPresentation`` — a small double category: a finite category
  of objects and horizontal arrows, vertical arrows realised as maps of
  finite sets, squares realised as commuting squares, vertical identity
  arrows as explicit data, and a total vertical-composition table.

Both kinds expose the view consumed by the one-step construction:
``lifting_generators()`` (named arrow objects) and ``lifting_squares()``
(named connecting squares between them).  ``composable_pairs`` derives
the shape of the free pair extension, which exposes the same view: one
generator per vertically composable pair, realised through the arrow it
composes to, and no connecting squares (``DoubleEngine`` says why none
are needed).

Identity horizontal arrows, identity squares, and composites involving
them are implied rather than listed; they use the reserved name prefix
``1_``.  Identity vertical arrows are listed arrows that ``vid`` names.

Validation reports every violated axiom as data with a witness naming the
offending cells.  Sizes and realisation tables are valid when ``FinSet``
and ``FiniteMap`` accept them (``RawMap.realise``).  Validation alone
realises a presentation, into the ``Realisation`` on its report, which the
view reads once ``ensure_valid`` has passed; an identity map is built only
for a square on it, and compared as a ``range``.  Each composition table
(the plain category; the horizontal, vertical and square categories of a
double presentation) is checked by the one ``FiniteCategory`` checker.
Validation reads every composite from tables built once per call: the
checker's ``composites`` of each category, and one lookup for vertical
composites of squares (the declared ``square_vcomp`` entry, or for two
identity squares the identity square on their arrows' composite).  Square
boundaries come from one table by name, stacked pairs of squares from an
index by top arrow.  Vertical composition of squares is checked for its
boundaries, totality, unit law, associativity and interchange with
horizontal composition.  Name and reference faults carry plain labels
(``invalid-name``, ``reserved-name``, ``duplicate-name``,
``unknown-reference``); law faults carry the table's prefix
(``horizontal-``, ``vertical-``, ``square-``; none for a plain
presentation), e.g. ``vertical-identity-law``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Mapping, Optional, Sequence

from .arrows import ArrowObject, CommSquare
from .errors import CompositionError, DiagramError, InvalidPresentation
from .finset import FinSet, FiniteMap, _gather, identity

ID_PREFIX = "1_"
PAIR_SEP = "*"
# labels of name and reference faults, which no table prefix qualifies
NAME_FAULTS = frozenset({"invalid-name", "reserved-name", "duplicate-name", "unknown-reference"})


def id_name(base: str) -> str:
    """Reserved name of the implied identity cell on ``base``."""
    return f"{ID_PREFIX}{base}"


def is_id_name(name: str) -> bool:
    return name.startswith(ID_PREFIX)


def pair_name(left: str, right: str) -> str:
    return f"{left}{PAIR_SEP}{right}"


def _valid_name(name) -> bool:
    return isinstance(name, str) and name != "" and PAIR_SEP not in name


def _as_comp_dict(entries) -> dict:
    if isinstance(entries, Mapping):
        return {tuple(k): v for k, v in entries.items()}
    return {(left, right): result for left, right, result in entries}


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One violated axiom together with a witness naming the cells."""

    axiom: str
    witness: str


@dataclass
class Realisation:
    """The cells validation realised, by name: generators (plain ones or
    vertical arrows), declared squares (plain morphisms or double squares)
    as view entries, and horizontal maps, identities added on first use."""

    arrows: dict[str, ArrowObject] = field(default_factory=dict)
    squares: list[tuple[str, str, str, CommSquare]] = field(default_factory=list)
    hmaps: dict[str, FiniteMap] = field(default_factory=dict)


@dataclass
class ValidationReport:
    """Violations in the order found; a fault that two tables sharing a
    cell both find (same axiom and witness) is listed once.  ``realised``
    holds what validation built; equality and repr leave it out."""

    violations: list[Violation]
    realised: Realisation = field(default_factory=Realisation, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.violations = list(dict.fromkeys(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> list[str]:
        return [v.axiom for v in self.violations]

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.axiom}[{v.witness}]" for v in self.violations)


# ---------------------------------------------------------------------------
# raw realisation data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawMap:
    """An unvalidated map of finite sets, as written in a presentation."""

    dom: int
    cod: int
    table: tuple[int, ...]

    def realise(self) -> Optional[FiniteMap]:
        """The map, or None when ``FinSet`` or ``FiniteMap`` refuses it."""
        try:
            return FiniteMap(FinSet(self.dom), FinSet(self.cod), tuple(self.table))
        except DiagramError:
            return None


# ---------------------------------------------------------------------------
# finite categories with named cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatArrow:
    name: str
    dom: str
    cod: str


class FiniteCategory:
    """A finite category: named objects, named arrows, total composition.

    Identities are implied arrows with reserved names, unless ``ids`` is
    given: then each object's identity is the listed arrow ``ids`` names
    (as ``vid`` does for vertical arrows).  Either way composites absorb
    the identities; ``comp_given`` lists the other composites, keyed
    ``(first, then)`` in diagrammatic order.  ``nouns`` name objects and
    arrows in witnesses.

    ``violations(prefix)`` is the one checker of every composition table
    of a presentation: names, identities, boundaries, the unit law,
    totality and associativity.  Name and reference faults keep their
    plain labels; law faults carry ``prefix``.  ``composites`` is the
    table computed once for the check.
    """

    def __init__(self, objects: Iterable[str], gen_arrows: Iterable[CatArrow], comp_given,
                 ids: Optional[Mapping[str, str]] = None, nouns=("object", "arrow")):
        self.objects = tuple(objects)
        self.gen_arrows = tuple(gen_arrows)
        self.comp_given = _as_comp_dict(comp_given)
        self.nouns = nouns
        self.implied = ids is None
        self.ids = {o: id_name(o) for o in self.objects} if ids is None else dict(ids)
        self.arrows: dict[str, CatArrow] = {}
        if self.implied:
            for o in self.objects:
                self.arrows[self.ids[o]] = CatArrow(self.ids[o], o, o)
        for a in self.gen_arrows:
            self.arrows.setdefault(a.name, a)

    @property
    def ok_arrows(self) -> set[str]:
        """Arrows with valid unique names and known endpoints."""
        return self._checked[1]

    @property
    def composites(self) -> dict[tuple[str, str], str]:
        """The composite of every composable pair of ``ok_arrows`` whose
        composite is defined and itself among ``ok_arrows``."""
        return self._checked[2]

    def violations(self, prefix: str = "") -> list[Violation]:
        return [
            v if v.axiom in NAME_FAULTS else Violation(prefix + v.axiom, v.witness)
            for v in self._checked[0]
        ]

    @cached_property
    def _checked(self) -> tuple[list[Violation], set[str], dict[tuple[str, str], str]]:
        out: list[Violation] = []
        bad = lambda axiom, witness: out.append(Violation(axiom, witness))
        obj, arr = self.nouns
        idset = {n for o, n in self.ids.items()
                 if n in self.arrows and (self.arrows[n].dom, self.arrows[n].cod) == (o, o)}

        seen: set[str] = set()
        for o in self.objects:
            if not _valid_name(o):
                bad("invalid-name", f"{obj} {o!r}")
            elif is_id_name(o):
                bad("reserved-name", f"{obj} {o}")
            if o in seen:
                bad("duplicate-name", f"{obj} {o}")
            seen.add(o)
        obj_ok = {o for o in self.objects if _valid_name(o) and not is_id_name(o)}

        seen = set(self.ids.values()) if self.implied else set()
        ok = {self.ids[o] for o in obj_ok} if self.implied else set()
        for a in self.gen_arrows:
            fine = True
            if not _valid_name(a.name):
                bad("invalid-name", f"{arr} {a.name!r}")
                fine = False
            elif is_id_name(a.name):
                bad("reserved-name", f"{arr} {a.name}")
                fine = False
            if a.name in seen:
                bad("duplicate-name", f"{arr} {a.name}")
                fine = False
            seen.add(a.name)
            if a.dom not in obj_ok or a.cod not in obj_ok:
                bad("unknown-reference", f"{arr} {a.name}: {a.dom} -> {a.cod}")
                fine = False
            if fine:
                ok.add(a.name)

        if not self.implied:
            for o in sorted(obj_ok):
                n = self.ids.get(o)
                if n is None:
                    bad("identity", f"{obj} {o} has no identity {arr}")
                elif n not in ok:
                    bad("identity", f"{obj} {o}: unknown {arr} {n}")
                elif (self.arrows[n].dom, self.arrows[n].cod) != (o, o):
                    bad("identity", f"{obj} {o}: {n} is not an endo-arrow on it")
            known = set(self.objects)
            for o in self.ids:
                if o not in known:
                    bad("unknown-reference", f"identity assignment for unknown {obj} {o}")

        for (first, then), result in self.comp_given.items():
            if not all(n in ok for n in (first, then, result)):
                bad("unknown-reference", f"composite of {arr}s ({first}, {then}) = {result}")
                continue
            fa, ta, ra = self.arrows[first], self.arrows[then], self.arrows[result]
            if fa.cod != ta.dom:
                bad("composition-boundary", f"({first}, {then}) not composable")
                continue
            if ra.dom != fa.dom or ra.cod != ta.cod:
                bad("composition-boundary", f"({first}, {then}) = {result} has wrong boundary")
            if first in idset or then in idset:
                expected = then if first in idset else first
                if result != expected:
                    bad("identity-law", f"({first}, {then}) = {result}, expected {expected}")

        names = sorted(ok)
        leaving: dict[str, list[str]] = {}
        for n in names:
            leaving.setdefault(self.arrows[n].dom, []).append(n)
        table: dict[tuple[str, str], str] = {}
        for f in names:
            for g in leaving.get(self.arrows[f].cod, ()):
                # the given composite, else the one identities imply
                fg = self.comp_given.get((f, g), g if f in idset else f if g in idset else None)
                if fg is None:
                    bad("composition-totality", f"({f}, {g})")
                elif fg in ok:
                    table[(f, g)] = fg
        for (f, g), fg in table.items():
            for h in leaving.get(self.arrows[g].cod, ()):
                gh = table.get((g, h))
                left, right = table.get((fg, h)), table.get((f, gh))
                if gh is not None and left is not None and right is not None and left != right:
                    bad("associativity", f"(({f}, {g}), {h}): {left} != {right}")
        return out, ok, table


def _is_after(c: Sequence[int], g: Sequence[int], f: Sequence[int]) -> bool:
    """Whether table ``c`` is ``g`` after ``f``.  An identity's table is a
    ``range``, spelt out only against a tuple of its length."""
    gf = g if type(f) is range else f if type(g) is range else _gather(g, f)
    return c == gf if type(c) is type(gf) else len(c) == len(gf) and tuple(c) == tuple(gf)


def _functor_violations(cat: FiniteCategory, real: Mapping[str, tuple], axiom: str) -> list[Violation]:
    """``axiom`` for every composite in the category's computed table whose
    realisation (a tuple of tables per arrow) is not the composite of the
    realisations of its factors."""
    return [
        Violation(axiom, f"composite ({f}, {g}) = {r}")
        for (f, g), r in cat.composites.items()
        if f in real and g in real and r in real
        and any(not _is_after(c, b, a) for a, b, c in zip(real[f], real[g], real[r]))
    ]


def _first_by_name(specs) -> dict:
    """Name -> first spec of that name (later duplicates are name faults)."""
    out: dict = {}
    for s in specs:
        out.setdefault(s.name, s)
    return out


class _Validated:
    """``ensure_valid`` for both presentation kinds: validate once and
    raise ``InvalidPresentation``, carrying the report, on any violation;
    the view reads the tables validation built (the realisation,
    ``_realised``, and the composites) only past that check."""

    _report: ClassVar[Optional[ValidationReport]] = None

    def ensure_valid(self) -> None:
        if self._report is None:
            self._report = self.validate()
        if not self._report.ok:
            err = InvalidPresentation(f"invalid presentation: {self._report.summary()}")
            err.report = self._report
            raise err

    @property
    def _realised(self) -> Realisation:
        self.ensure_valid()
        return self._report.realised

    # --- view consumed by the one-step construction ---

    def lifting_generators(self) -> list[tuple[str, ArrowObject]]:
        return list(self._realised.arrows.items())

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        return list(self._realised.squares)


# ---------------------------------------------------------------------------
# plain presentations: a category of maps and connecting squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainGenSpec:
    name: str
    umap: RawMap


@dataclass(frozen=True)
class PlainMorSpec:
    name: str
    dom: str
    cod: str
    top: RawMap
    bot: RawMap


@dataclass
class PlainPresentation(_Validated):
    """A finite category of named maps with named connecting squares."""

    generators: tuple[PlainGenSpec, ...]
    morphisms: tuple[PlainMorSpec, ...]
    comp: dict

    kind: ClassVar[str] = "plain"

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        self.morphisms = tuple(self.morphisms)
        self.comp = _as_comp_dict(self.comp)

    @classmethod
    def build(cls, generators, morphisms=(), comp=()) -> "PlainPresentation":
        """generators: (name, table-as-RawMap-args) via (name, dom, cod, table);
        morphisms: (name, dom, cod, top_table, bot_table)."""
        gens = tuple(
            PlainGenSpec(n, RawMap(d, c, tuple(t))) for n, d, c, t in generators
        )
        sizes = {g.name: (g.umap.dom, g.umap.cod) for g in gens}
        mors = []
        for n, d, c, tt, bt in morphisms:
            dt = sizes.get(d, (-1, -1))
            ct = sizes.get(c, (-1, -1))
            mors.append(
                PlainMorSpec(n, d, c, RawMap(dt[0], ct[0], tuple(tt)), RawMap(dt[1], ct[1], tuple(bt)))
            )
        return cls(gens, tuple(mors), _as_comp_dict(comp))

    def validate(self) -> ValidationReport:
        cat = FiniteCategory([g.name for g in self.generators],
                             [CatArrow(m.name, m.dom, m.cod) for m in self.morphisms], self.comp)
        out = cat.violations("")
        bad = lambda axiom, witness: out.append(Violation(axiom, witness))
        real = Realisation()
        for g in _first_by_name(self.generators).values():
            umap = g.umap.realise()
            if umap is None:
                bad("realisation-map", f"generator {g.name}")
            else:
                real.arrows[g.name] = ArrowObject(umap)
        for m in _first_by_name(self.morphisms).values():
            if (m.name not in cat.ok_arrows or is_id_name(m.name)
                    or m.dom not in real.arrows or m.cod not in real.arrows):
                continue
            src, dst = real.arrows[m.dom], real.arrows[m.cod]
            top, bot = m.top.realise(), m.bot.realise()
            if top is None or bot is None:
                bad("realisation-map", f"morphism {m.name}")
                continue
            if (top.dom, top.cod, bot.dom, bot.cod) != (src.top, dst.top, src.bot, dst.bot):
                bad("realisation-boundary", f"morphism {m.name}")
                continue
            try:
                real.squares.append((m.name, m.dom, m.cod, CommSquare(src, dst, top, bot)))
            except DiagramError:
                bad("realisation-square", f"morphism {m.name}")
        mor_ok = {n: (sq.top.table, sq.bot.table) for n, _, _, sq in real.squares}
        out += _functor_violations(cat, mor_ok, "realisation-functor")
        return ValidationReport(out, real)


# ---------------------------------------------------------------------------
# double presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HArrowSpec:
    name: str
    dom: str
    cod: str
    umap: RawMap


@dataclass(frozen=True)
class VArrowSpec:
    name: str
    vdom: str
    vcod: str
    umap: RawMap


@dataclass(frozen=True)
class SquareSpec:
    name: str
    vsrc: str
    vdst: str
    h_top: str
    h_bot: str


@dataclass
class DoubleCatPresentation(_Validated):
    """A finitely presented small double category realised in finite sets.

    The object category has the named ``objects`` (with carrier sizes) and
    ``harrows``; the vertical category has the same objects, the
    ``varrows``, the identities ``vid`` and the composites ``vcomp``; the
    square category has the ``varrows`` as objects and the ``squares`` as
    morphisms, and ``square_vcomp`` composes squares vertically.
    Composites involving identity cells are implied.
    """

    objects: tuple[tuple[str, int], ...]
    harrows: tuple[HArrowSpec, ...] = ()
    hcomp: dict = field(default_factory=dict)
    varrows: tuple[VArrowSpec, ...] = ()
    vid: dict = field(default_factory=dict)
    squares: tuple[SquareSpec, ...] = ()
    square_comp: dict = field(default_factory=dict)
    vcomp: dict = field(default_factory=dict)
    square_vcomp: dict = field(default_factory=dict)

    kind: ClassVar[str] = "double"

    def __post_init__(self) -> None:
        self.objects = tuple((str(n), s) for n, s in self.objects)
        self.harrows = tuple(self.harrows)
        self.varrows = tuple(self.varrows)
        self.squares = tuple(self.squares)
        self.hcomp = _as_comp_dict(self.hcomp)
        self.square_comp = _as_comp_dict(self.square_comp)
        self.vcomp = _as_comp_dict(self.vcomp)
        self.square_vcomp = _as_comp_dict(self.square_vcomp)
        self.vid = dict(self.vid)
        self._sizes = {n: s for n, s in self.objects}
        self._harrow = _first_by_name(self.harrows)
        self._varrow = _first_by_name(self.varrows)
        self._square = _first_by_name(self.squares)
        self._vcat = FiniteCategory(
            [n for n, _ in self.objects],
            [CatArrow(v.name, v.vdom, v.vcod) for v in self.varrows],
            self.vcomp,
            ids=self.vid,
            nouns=("object", "vertical arrow"),
        )

    @classmethod
    def build(cls, objects: Mapping[str, int], harrows=(), hcomp=(), varrows=(), vid=(),
              squares=(), square_comp=(), vcomp=(), square_vcomp=()) -> "DoubleCatPresentation":
        """harrows: (name, dom, cod, table); varrows: (name, vdom, vcod, table);
        squares: (name, vsrc, vdst, h_top, h_bot); composition tables:
        (first, then, result) triples; vid: mapping object -> vertical arrow."""
        sizes = dict(objects)
        hs = tuple(
            HArrowSpec(n, d, c, RawMap(sizes.get(d, -1), sizes.get(c, -1), tuple(t)))
            for n, d, c, t in harrows
        )
        vs = tuple(
            VArrowSpec(n, d, c, RawMap(sizes.get(d, -1), sizes.get(c, -1), tuple(t)))
            for n, d, c, t in varrows
        )
        sq = tuple(SquareSpec(*s) for s in squares)
        return cls(
            tuple(sizes.items()), hs, _as_comp_dict(hcomp), vs, dict(vid), sq,
            _as_comp_dict(square_comp), _as_comp_dict(vcomp), _as_comp_dict(square_vcomp),
        )

    # --- cells: names and boundaries; maps from the realisation ---

    def hmap(self, name: str) -> FiniteMap:
        return self._hmap(self._realised.hmaps, name)

    def _hmap(self, hmaps: dict[str, FiniteMap], name: str) -> FiniteMap:
        """The map ``name`` in ``hmaps``, an identity built there on first use."""
        if name not in hmaps and is_id_name(name):
            hmaps[name] = identity(FinSet(self._sizes[name[len(ID_PREFIX):]]))
        return hmaps[name]

    def uarrow(self, vname: str) -> ArrowObject:
        return self._realised.arrows[vname]

    def vcompose(self, first: str, then: str) -> str:
        """Name of the vertical composite (``first`` above ``then``), read
        from the vertical table; a pair with no composite raises."""
        name = self._vcat.composites.get((first, then))
        if name is None:
            raise CompositionError(f"vertical arrows {first} and {then} have no composite")
        return name

    # --- validation ---

    def validate(self) -> ValidationReport:
        out: list[Violation] = []
        bad = lambda axiom, witness: out.append(Violation(axiom, witness))

        obj_ok = set()
        for n, s in self.objects:
            try:
                FinSet(s)
            except DiagramError:
                bad("object-size", f"object {n}: {s!r}")
                continue
            if _valid_name(n) and not is_id_name(n):
                obj_ok.add(n)
        j0 = FiniteCategory([n for n, _ in self.objects],
                            [CatArrow(h.name, h.dom, h.cod) for h in self.harrows],
                            self.hcomp, nouns=("object", "horizontal arrow"))
        j1 = FiniteCategory([v.name for v in self.varrows],
                            [CatArrow(s.name, s.vsrc, s.vdst) for s in self.squares],
                            self.square_comp, nouns=("vertical arrow", "square"))
        vcat = self._vcat
        out += j0.violations("horizontal-")
        out += vcat.violations("vertical-")
        out += j1.violations("square-")
        h_ok, v_ok = j0.ok_arrows, vcat.ok_arrows
        hnames = [
            h.name for h in self._harrow.values()
            if h.name in h_ok and not is_id_name(h.name) and {h.dom, h.cod} <= obj_ok
        ]
        htable, vtable, sqtable = j0.composites, vcat.composites, j1.composites
        # (vsrc, vdst, h_top, h_bot) of every declared and implied identity square
        bnd = {s.name: (s.vsrc, s.vdst, s.h_top, s.h_bot) for s in self._square.values()}
        bnd.update((id_name(v.name), (v.name, v.name, id_name(v.vdom), id_name(v.vcod)))
                   for v in self._varrow.values())

        sq_ok: set[str] = set()
        for s in self._square.values():
            if s.h_top not in h_ok or s.h_bot not in h_ok:
                bad("unknown-reference", f"square {s.name}: boundary {s.h_top}/{s.h_bot}")
            elif s.name in j1.ok_arrows and not is_id_name(s.name) and {s.vsrc, s.vdst} <= v_ok:
                sq_ok.add(s.name)
        sq_all_ok = sq_ok | {id_name(v) for v in v_ok}

        def hends(name):
            return (j0.arrows[name].dom, j0.arrows[name].cod)

        sq_fit: set[str] = set()
        for s in self._square.values():
            if s.name not in sq_ok:
                continue
            src, dst = self._varrow[s.vsrc], self._varrow[s.vdst]
            fit = True
            if hends(s.h_top) != (src.vdom, dst.vdom):
                bad("square-boundary", f"square {s.name}: top arrow {s.h_top}")
                fit = False
            if hends(s.h_bot) != (src.vcod, dst.vcod):
                bad("square-boundary", f"square {s.name}: bottom arrow {s.h_bot}")
                fit = False
            if fit:
                sq_fit.add(s.name)

        for (first, then), result in self.square_comp.items():
            if not all(n in sq_all_ok for n in (first, then, result)):
                continue
            (_, fd, ft, fb), (ts, _, tt, tb), (_, _, rt, rb) = (bnd[n] for n in (first, then, result))
            if fd != ts:
                continue  # square-composition boundary errors already reported
            want_top = htable.get((ft, tt))
            want_bot = htable.get((fb, tb))
            if want_top is not None and rt != want_top:
                bad("source-functor", f"composite ({first}, {then}) = {result}: top {rt} != {want_top}")
            if want_bot is not None and rb != want_bot:
                bad("target-functor", f"composite ({first}, {then}) = {result}: bottom {rb} != {want_bot}")

        # the identity-vertical functor must send every horizontal arrow to a
        # square; the first declared square on its boundary is its image.  It
        # and the unit law are checked only once vid names endo-arrows, so a
        # vid entry that is not one is reported once, as vertical-identity
        vid_ok = all(self.vid.get(o) in v_ok for o in obj_ok)
        endo = vid_ok and all(
            (self._varrow[self.vid[o]].vdom, self._varrow[self.vid[o]].vcod) == (o, o) for o in obj_ok)
        e_sq: dict[str, str] = {id_name(o): id_name(self.vid[o]) for o in obj_ok} if endo else {}
        if endo:
            on_boundary: dict[tuple[str, str, str], str] = {}
            for s in self.squares:
                if s.name in sq_ok and s.h_top == s.h_bot:
                    on_boundary.setdefault((s.vsrc, s.vdst, s.h_top), s.name)
            for h in map(self._harrow.get, hnames):
                match = on_boundary.get((self.vid[h.dom], self.vid[h.cod], h.name))
                if match is None:
                    bad("vertical-identity-square", f"no square witnessing the identity vertical image of {h.name}")
                else:
                    e_sq[h.name] = match
            for (first, then), result in self.hcomp.items():
                if first not in e_sq or then not in e_sq or result not in e_sq:
                    continue
                got = sqtable.get((e_sq[first], e_sq[then]))
                if got is not None and got != e_sq[result]:
                    bad("vertical-identity-functor", f"identity square over ({first}, {then})")
        if vid_ok:
            self._square_vcomp_violations(bad, bnd, vtable, sqtable, set(e_sq.values()),
                                          [id_name(v) for v in self._varrow if v in v_ok]
                                          + [s for s in self._square if s in sq_fit])

        # realisations: horizontal and vertical arrows, squares
        real = Realisation()
        htables: dict[str, tuple] = {id_name(o): (range(self._sizes[o]),) for o in obj_ok}
        for h in map(self._harrow.get, hnames):
            hmap = h.umap.realise()
            if hmap is None or (h.umap.dom, h.umap.cod) != (self._sizes[h.dom], self._sizes[h.cod]):
                bad("realisation-map", f"horizontal arrow {h.name}")
                continue
            real.hmaps[h.name] = hmap
            htables[h.name] = (hmap.table,)
        out += _functor_violations(j0, htables, "realisation-horizontal-functor")

        for v in self._varrow.values():
            if v.name not in v_ok or not {v.vdom, v.vcod} <= obj_ok:
                continue
            vmap = v.umap.realise()
            if vmap is None or (v.umap.dom, v.umap.cod) != (
                    self._sizes[v.vdom], self._sizes[v.vcod]):
                bad("realisation-map", f"vertical arrow {v.name}")
                continue
            real.arrows[v.name] = ArrowObject(vmap)
        for o in sorted(obj_ok):
            vn = self.vid.get(o)
            if vn in real.arrows and (self._varrow[vn].vdom, self._varrow[vn].vcod) == (o, o):
                if real.arrows[vn].map.table != tuple(range(self._sizes[o])):
                    bad("vertical-identity-realisation", f"identity vertical arrow {vn}")
        for s in self._square.values():
            if not (s.name in sq_fit and {s.vsrc, s.vdst} <= real.arrows.keys()
                    and {s.h_top, s.h_bot} <= htables.keys()):
                continue
            top, bot = self._hmap(real.hmaps, s.h_top), self._hmap(real.hmaps, s.h_bot)
            try:
                real.squares.append((s.name, s.vsrc, s.vdst, CommSquare(
                    real.arrows[s.vsrc], real.arrows[s.vdst], top, bot)))
            except DiagramError:
                bad("realisation-square", f"square {s.name}")
        vtables = {n: (a.map.table,) for n, a in real.arrows.items()}
        out += _functor_violations(vcat, vtables, "realisation-vertical-functor")
        return ValidationReport(out, real)

    def _square_vcomp_violations(self, bad, bnd, vtable, sqtable, vert_ids, sq_wf) -> None:
        """Vertical composition of the well-formed squares ``sq_wf``: its
        declared entries, unit law, totality, boundaries, functoriality
        over horizontal composition (the interchange law) and associativity.
        ``vert_ids`` are the vertical identity squares; squares stack when
        the bottom arrow of the upper one is the top arrow of the lower."""
        wf = set(sq_wf)
        # a above b: the declared entry, or for two identity squares with
        # none, the identity square on the composite of their arrows
        implied = {(id_name(f), id_name(g)): id_name(fg) for (f, g), fg in vtable.items()}
        vcomposite = {**implied, **self.square_vcomp}
        for (a, b), r in self.square_vcomp.items():
            if not all(n in wf for n in (a, b, r)):
                bad("unknown-reference", f"vertical composite of squares ({a}, {b}) = {r}")
            elif bnd[a][3] != bnd[b][2]:
                bad("vertical-composition-square-boundary", f"({a}, {b}) not composable")
            elif is_id_name(a) and is_id_name(b):
                if (a, b) in implied and r != implied[a, b]:
                    bad("vertical-identity-law", f"squares ({a}, {b}) = {r}")
            elif a in vert_ids or b in vert_ids:
                expected = b if a in vert_ids else a
                if r != expected:
                    bad("vertical-composition-square-identity-law", f"({a}, {b}) = {r}, expected {expected}")
        below: dict[str, list[str]] = {}  # top arrow -> squares with it, in sq_wf order
        for n in sq_wf:
            below.setdefault(bnd[n][2], []).append(n)
        # every stacked pair but pairs of identity squares
        pairs_sq = [(a, b) for a in sq_wf for b in below.get(bnd[a][3], ())
                    if not (is_id_name(a) and is_id_name(b))]
        for a, b in pairs_sq:
            r = vcomposite.get((a, b))
            if r is None:
                bad("vertical-composition-square-totality", f"({a}, {b})")
                continue
            if r not in wf:
                continue  # reported with the declared entries
            asrc, adst, atop, _ = bnd[a]
            bsrc, bdst, _, bbot = bnd[b]
            rsrc, rdst, rtop, rbot = bnd[r]
            want = (vtable.get((asrc, bsrc)), vtable.get((adst, bdst)))
            if None in want:
                continue  # a hole in the vertical table, reported there
            if (rsrc, rdst) != want or rtop != atop or rbot != bbot:
                bad("vertical-composition-square-boundary", f"({a}, {b}) = {r}")
        # functoriality over composition of square pairs, in list order;
        # the pairs that can follow (a, b) are those starting at its ends
        pair_list = pairs_sq + list(implied)
        starting: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for c, d in pair_list:
            starting.setdefault((bnd[c][0], bnd[d][0]), []).append((c, d))
        for a, b in pair_list:
            ab = vcomposite.get((a, b))
            if ab is None:
                continue
            for c, d in starting.get((bnd[a][1], bnd[b][1]), ()):
                ac, bd, cd = sqtable.get((a, c)), sqtable.get((b, d)), vcomposite.get((c, d))
                if ac is None or bd is None or cd is None:
                    continue
                lhs, rhs = vcomposite.get((ac, bd)), sqtable.get((ab, cd))
                if lhs is not None and rhs is not None and lhs != rhs:
                    bad("vertical-composition-functor", f"(({a}, {b}), ({c}, {d}))")
        # associativity over the composites in wf; triples of identity
        # squares are the vertical table's associativity, checked there
        stacked = {ab: vcomposite[ab] for ab in pair_list if vcomposite.get(ab) in wf}
        for (a, b), ab in stacked.items():
            for c in below.get(bnd[b][3], ()):
                if is_id_name(a) and is_id_name(b) and is_id_name(c):
                    continue
                bc = stacked.get((b, c))
                left, right = stacked.get((ab, c)), stacked.get((a, bc))
                if bc is not None and left is not None and right is not None and left != right:
                    bad("vertical-composition-square-associativity", f"(({a}, {b}), {c}): {left} != {right}")

    def composable_pairs(self) -> "ComposablePairs":
        self.ensure_valid()
        return ComposablePairs(self, [
            PairGen(pair_name(left.name, right.name), left.name, right.name,
                    self.vcompose(left.name, right.name))
            for left in self.varrows for right in self.varrows if left.vcod == right.vdom
        ])


@dataclass(frozen=True)
class PairGen:
    """A composable pair of vertical arrows and the arrow it composes to."""

    name: str
    left: str
    right: str
    composite: str


@dataclass
class ComposablePairs:
    """The free pair extension's shape: one generator per vertically
    composable pair, realised through the pair's composite, and no
    connecting squares; exposes the same view as a presentation."""

    base: DoubleCatPresentation
    pairs: list[PairGen]

    kind: ClassVar[str] = "pairs"

    def __post_init__(self) -> None:
        self._by_name = {p.name: p for p in self.pairs}

    def pair(self, name: str) -> PairGen:
        return self._by_name[name]

    def lifting_generators(self) -> list[tuple[str, ArrowObject]]:
        return [(p.name, self.base.uarrow(p.composite)) for p in self.pairs]

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        return []
