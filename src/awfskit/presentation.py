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
the category of vertically composable pairs, which exposes the same view
and additionally records which vertical arrow each pair composes to.

Identity horizontal arrows, identity squares, and composites involving
them are implied rather than listed; they use the reserved name prefix
``1_``.  Validation reports every violated axiom as data with a witness
naming the offending cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Optional

from .arrows import ArrowObject, CommSquare
from .errors import CompositionError, InvalidPresentation
from .finset import FinSet, FiniteMap, compose, identity

ID_PREFIX = "1_"
PAIR_SEP = "*"


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
class ValidationReport:
    violations: list[Violation]

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

    def wellformed(self) -> bool:
        return (
            isinstance(self.dom, int)
            and isinstance(self.cod, int)
            and self.dom >= 0
            and self.cod >= 0
            and len(self.table) == self.dom
            and all(isinstance(v, int) and 0 <= v < self.cod for v in self.table)
        )

    def build(self) -> FiniteMap:
        return FiniteMap(FinSet(self.dom), FinSet(self.cod), tuple(self.table))


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

    Identity arrows are implied with reserved names; ``comp_given`` lists
    the explicit composites (entries are keyed ``(first, then)`` in
    diagrammatic order).  ``violations`` checks totality, boundary
    compatibility, identity laws and associativity exhaustively.
    """

    def __init__(self, objects: Iterable[str], gen_arrows: Iterable[CatArrow], comp_given):
        self.objects = tuple(objects)
        self.gen_arrows = tuple(gen_arrows)
        self.comp_given = _as_comp_dict(comp_given)
        self.ids = {o: id_name(o) for o in self.objects}
        self._idset = set(self.ids.values())
        self.arrows: dict[str, CatArrow] = {}
        for o in self.objects:
            self.arrows[self.ids[o]] = CatArrow(self.ids[o], o, o)
        for a in self.gen_arrows:
            self.arrows.setdefault(a.name, a)

    def is_id(self, name: str) -> bool:
        return name in self._idset

    def hom(self, dom: str, cod: str) -> list[str]:
        return [n for n, a in self.arrows.items() if a.dom == dom and a.cod == cod]

    def composite(self, first: str, then: str) -> str:
        """Name of ``then`` after ``first``; raises if the table has a hole."""
        fa, ta = self.arrows[first], self.arrows[then]
        if fa.cod != ta.dom:
            raise CompositionError(f"arrows {first} and {then} are not composable")
        if (first, then) in self.comp_given:
            return self.comp_given[(first, then)]
        if first in self._idset:
            return then
        if then in self._idset:
            return first
        raise InvalidPresentation(f"missing composite for ({first}, {then})")

    def violations(self, prefix: str = "") -> list[Violation]:
        out: list[Violation] = []
        bad = lambda axiom, witness: out.append(Violation(prefix + axiom, witness))

        seen: set[str] = set()
        for o in self.objects:
            if not _valid_name(o):
                bad("invalid-name", f"object {o!r}")
            elif is_id_name(o):
                bad("reserved-name", f"object {o}")
            if o in seen:
                bad("duplicate-name", f"object {o}")
            seen.add(o)
        obj_ok = {o for o in self.objects if _valid_name(o) and not is_id_name(o)}

        seen = set()
        arrows_ok: set[str] = set(self._idset)
        for a in self.gen_arrows:
            ok = True
            if not _valid_name(a.name):
                bad("invalid-name", f"arrow {a.name!r}")
                ok = False
            elif is_id_name(a.name):
                bad("reserved-name", f"arrow {a.name}")
                ok = False
            if a.name in seen or a.name in self._idset:
                bad("duplicate-name", f"arrow {a.name}")
                ok = False
            seen.add(a.name)
            if a.dom not in obj_ok or a.cod not in obj_ok:
                bad("unknown-reference", f"arrow {a.name}: {a.dom} -> {a.cod}")
                ok = False
            if ok:
                arrows_ok.add(a.name)

        for (first, then), result in self.comp_given.items():
            if not all(n in arrows_ok for n in (first, then, result)):
                bad("unknown-reference", f"composite ({first}, {then}) = {result}")
                continue
            fa, ta, ra = self.arrows[first], self.arrows[then], self.arrows[result]
            if fa.cod != ta.dom:
                bad("composition-boundary", f"({first}, {then}) not composable")
                continue
            if ra.dom != fa.dom or ra.cod != ta.cod:
                bad("composition-boundary", f"({first}, {then}) = {result} has wrong boundary")
            if first in self._idset or then in self._idset:
                expected = then if first in self._idset else first
                if result != expected:
                    bad("identity-law", f"({first}, {then}) = {result}, expected {expected}")

        def resolve(first, then):
            try:
                name = self.composite(first, then)
            except InvalidPresentation:
                bad("composition-totality", f"({first}, {then})")
                return None
            except CompositionError:
                return None
            return name if name in arrows_ok else None

        names = sorted(arrows_ok)
        for f in names:
            for g in names:
                if self.arrows[f].cod != self.arrows[g].dom:
                    continue
                fg = resolve(f, g)
                for h in names:
                    if self.arrows[g].cod != self.arrows[h].dom:
                        continue
                    try:
                        gh = self.composite(g, h)
                    except (InvalidPresentation, CompositionError):
                        gh = None
                    if fg is None or gh is None or gh not in arrows_ok:
                        continue
                    try:
                        left = self.composite(fg, h)
                        right = self.composite(f, gh)
                    except (InvalidPresentation, CompositionError):
                        continue
                    if left != right:
                        bad("associativity", f"(({f}, {g}), {h}): {left} != {right}")
        return out


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
class PlainPresentation:
    """A finite category of named maps with named connecting squares."""

    generators: tuple[PlainGenSpec, ...]
    morphisms: tuple[PlainMorSpec, ...]
    comp: dict

    kind: ClassVar[str] = "plain"

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        self.morphisms = tuple(self.morphisms)
        self.comp = _as_comp_dict(self.comp)
        self._gens = {g.name: g for g in self.generators}
        self._report: Optional[ValidationReport] = None

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

    def category(self) -> FiniteCategory:
        return FiniteCategory(
            [g.name for g in self.generators],
            [CatArrow(m.name, m.dom, m.cod) for m in self.morphisms],
            self.comp,
        )

    def validate(self) -> ValidationReport:
        out = self.category().violations("")
        bad = lambda axiom, witness: out.append(Violation(axiom, witness))
        gen_ok: dict[str, FiniteMap] = {}
        for g in self.generators:
            if not g.umap.wellformed():
                bad("realisation-map", f"generator {g.name}")
            elif g.name not in gen_ok:
                gen_ok[g.name] = g.umap.build()
        mor_ok: dict[str, CommSquare] = {}
        for m in self.morphisms:
            if m.dom not in gen_ok or m.cod not in gen_ok:
                continue
            dom_map, cod_map = gen_ok[m.dom], gen_ok[m.cod]
            if not (m.top.wellformed() and m.bot.wellformed()):
                bad("realisation-map", f"morphism {m.name}")
                continue
            if (m.top.dom, m.top.cod) != (dom_map.dom.size, cod_map.dom.size) or (
                m.bot.dom,
                m.bot.cod,
            ) != (dom_map.cod.size, cod_map.cod.size):
                bad("realisation-boundary", f"morphism {m.name}")
                continue
            top, bot = m.top.build(), m.bot.build()
            if compose(cod_map, top).table != compose(bot, dom_map).table:
                bad("realisation-square", f"morphism {m.name}")
                continue
            mor_ok[m.name] = CommSquare(ArrowObject(dom_map), ArrowObject(cod_map), top, bot)
        for (first, then), result in self.comp.items():
            if not all(n in mor_ok for n in (first, then, result)):
                continue
            want_top = compose(mor_ok[then].top, mor_ok[first].top)
            want_bot = compose(mor_ok[then].bot, mor_ok[first].bot)
            if mor_ok[result].top.table != want_top.table or mor_ok[result].bot.table != want_bot.table:
                bad("realisation-functor", f"composite ({first}, {then}) = {result}")
        return ValidationReport(out)

    def ensure_valid(self) -> None:
        if self._report is None:
            self._report = self.validate()
        if not self._report.ok:
            err = InvalidPresentation(f"invalid presentation: {self._report.summary()}")
            err.report = self._report
            raise err

    # --- view consumed by the one-step construction ---

    def lifting_generators(self) -> list[tuple[str, ArrowObject]]:
        return [(g.name, ArrowObject(g.umap.build())) for g in self.generators]

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        out = []
        for m in self.morphisms:
            src = ArrowObject(self._gens[m.dom].umap.build())
            dst = ArrowObject(self._gens[m.cod].umap.build())
            out.append((m.name, m.dom, m.cod, CommSquare(src, dst, m.top.build(), m.bot.build())))
        return out

    def canonical_key(self) -> str:
        return "plain:" + repr(
            (self.generators, self.morphisms, tuple(sorted(self.comp.items())))
        )


def from_category(cat: FiniteCategory, obj_real: Mapping[str, ArrowObject], sq_real: Mapping[str, CommSquare]) -> PlainPresentation:
    """Tag a finite category of maps for the plain factorisation pipeline.

    ``obj_real`` realises every object as a map of finite sets; ``sq_real``
    realises every non-identity arrow as a commuting square between the
    realisations of its endpoints.
    """
    gens = []
    for o in cat.objects:
        if o not in obj_real:
            raise InvalidPresentation(f"object {o} has no realisation")
        a = obj_real[o]
        gens.append(PlainGenSpec(o, RawMap(a.top.size, a.bot.size, a.map.table)))
    mors = []
    for ar in cat.gen_arrows:
        if ar.name not in sq_real:
            raise InvalidPresentation(f"arrow {ar.name} has no realisation")
        s = sq_real[ar.name]
        mors.append(
            PlainMorSpec(
                ar.name,
                ar.dom,
                ar.cod,
                RawMap(s.top.dom.size, s.top.cod.size, s.top.table),
                RawMap(s.bot.dom.size, s.bot.cod.size, s.bot.table),
            )
        )
    pres = PlainPresentation(tuple(gens), tuple(mors), dict(cat.comp_given))
    pres.ensure_valid()
    return pres


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
class DoubleCatPresentation:
    """A finitely presented small double category realised in finite sets.

    The object category has the named ``objects`` (with carrier sizes) and
    ``harrows``; the square category has the ``varrows`` as objects and the
    ``squares`` as morphisms.  ``vid`` designates the identity vertical
    arrow on each object, ``vcomp`` composes vertical arrows, and
    ``square_vcomp`` composes squares vertically.  Composites involving
    implied identity cells are implied.
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
        self._harrow = {h.name: h for h in self.harrows}
        self._varrow = {v.name: v for v in self.varrows}
        self._square = {s.name: s for s in self.squares}
        self._vidset = set(self.vid.values())
        self._report: Optional[ValidationReport] = None

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

    # --- cell accessors (assume a valid presentation) ---

    def object_size(self, name: str) -> int:
        return self._sizes[name]

    def j0_category(self) -> FiniteCategory:
        return FiniteCategory(
            [n for n, _ in self.objects],
            [CatArrow(h.name, h.dom, h.cod) for h in self.harrows],
            self.hcomp,
        )

    def j1_category(self) -> FiniteCategory:
        return FiniteCategory(
            [v.name for v in self.varrows],
            [CatArrow(s.name, s.vsrc, s.vdst) for s in self.squares],
            self.square_comp,
        )

    def hmap(self, name: str) -> FiniteMap:
        if is_id_name(name):
            return identity(FinSet(self._sizes[name[len(ID_PREFIX):]]))
        h = self._harrow[name]
        return FiniteMap(FinSet(self._sizes[h.dom]), FinSet(self._sizes[h.cod]), h.umap.table)

    def uarrow(self, vname: str) -> ArrowObject:
        v = self._varrow[vname]
        return ArrowObject(
            FiniteMap(FinSet(self._sizes[v.vdom]), FinSet(self._sizes[v.vcod]), v.umap.table)
        )

    def is_vid(self, vname: str) -> bool:
        return vname in self._vidset

    def vcompose(self, first: str, then: str) -> str:
        """Name of the vertical composite (``first`` above ``then``)."""
        fa, ta = self._varrow[first], self._varrow[then]
        if fa.vcod != ta.vdom:
            raise CompositionError(f"vertical arrows {first} and {then} are not composable")
        if (first, then) in self.vcomp:
            return self.vcomp[(first, then)]
        if first in self._vidset:
            return then
        if then in self._vidset:
            return first
        raise InvalidPresentation(f"missing vertical composite for ({first}, {then})")

    def square_boundary(self, name: str) -> tuple[str, str, str, str]:
        """(vsrc, vdst, h_top, h_bot) of a declared or implied identity square."""
        if is_id_name(name):
            base = name[len(ID_PREFIX):]
            v = self._varrow[base]
            return (base, base, id_name(v.vdom), id_name(v.vcod))
        s = self._square[name]
        return (s.vsrc, s.vdst, s.h_top, s.h_bot)

    def usquare(self, name: str) -> CommSquare:
        vsrc, vdst, h_top, h_bot = self.square_boundary(name)
        return CommSquare(self.uarrow(vsrc), self.uarrow(vdst), self.hmap(h_top), self.hmap(h_bot))

    def square_vcompose(self, first: str, then: str) -> str:
        if (first, then) in self.square_vcomp:
            return self.square_vcomp[(first, then)]
        if is_id_name(first) and is_id_name(then):
            base = self.vcompose(first[len(ID_PREFIX):], then[len(ID_PREFIX):])
            return id_name(base)
        raise InvalidPresentation(f"missing vertical composite of squares ({first}, {then})")

    def _all_square_names(self) -> list[str]:
        return [id_name(v.name) for v in self.varrows] + [s.name for s in self.squares]

    def _j2_square_pairs(self) -> list[tuple[str, str]]:
        """All non-identity vertically-composable pairs of squares."""
        out = []
        for a in self._all_square_names():
            asrc, adst, _, abot = self.square_boundary(a)
            for b in self._all_square_names():
                if is_id_name(a) and is_id_name(b):
                    continue
                bsrc, bdst, btop, _ = self.square_boundary(b)
                if abot != btop:
                    continue
                if self._varrow[asrc].vcod != self._varrow[bsrc].vdom:
                    continue
                if self._varrow[adst].vcod != self._varrow[bdst].vdom:
                    continue
                out.append((a, b))
        return out

    # --- validation ---

    def validate(self) -> ValidationReport:
        out: list[Violation] = []
        bad = lambda axiom, witness: out.append(Violation(axiom, witness))

        seen: set[str] = set()
        obj_ok: set[str] = set()
        for n, s in self.objects:
            ok = True
            if not _valid_name(n):
                bad("invalid-name", f"object {n!r}")
                ok = False
            elif is_id_name(n):
                bad("reserved-name", f"object {n}")
                ok = False
            if n in seen:
                bad("duplicate-name", f"object {n}")
                ok = False
            seen.add(n)
            if not isinstance(s, int) or s < 0:
                bad("object-size", f"object {n}: {s!r}")
                ok = False
            if ok:
                obj_ok.add(n)

        out += self.j0_category().violations("horizontal-")
        hnames = {h.name for h in self.harrows if _valid_name(h.name) and not is_id_name(h.name)}
        h_ok = set(hnames) | {id_name(o) for o in obj_ok}

        seen = set()
        v_ok: set[str] = set()
        for v in self.varrows:
            ok = True
            if not _valid_name(v.name):
                bad("invalid-name", f"vertical arrow {v.name!r}")
                ok = False
            elif is_id_name(v.name):
                bad("reserved-name", f"vertical arrow {v.name}")
                ok = False
            if v.name in seen:
                bad("duplicate-name", f"vertical arrow {v.name}")
                ok = False
            seen.add(v.name)
            if v.vdom not in obj_ok or v.vcod not in obj_ok:
                bad("unknown-reference", f"vertical arrow {v.name}: {v.vdom} -> {v.vcod}")
                ok = False
            if ok:
                v_ok.add(v.name)

        for o in sorted(obj_ok):
            vn = self.vid.get(o)
            if vn is None:
                bad("vertical-identity", f"object {o} has no identity vertical arrow")
            elif vn not in v_ok:
                bad("vertical-identity", f"object {o}: unknown vertical arrow {vn}")
            else:
                v = self._varrow[vn]
                if v.vdom != o or v.vcod != o:
                    bad("vertical-identity", f"object {o}: {vn} is not an endo-arrow on it")
        for o in self.vid:
            if o not in self._sizes:
                bad("unknown-reference", f"identity assignment for unknown object {o}")

        out += self.j1_category().violations("square-")
        sq_ok: set[str] = set()
        for s in self.squares:
            ok = _valid_name(s.name) and not is_id_name(s.name)
            if s.vsrc not in v_ok or s.vdst not in v_ok:
                bad("unknown-reference", f"square {s.name}: {s.vsrc} -> {s.vdst}")
                ok = False
            if s.h_top not in h_ok or s.h_bot not in h_ok:
                bad("unknown-reference", f"square {s.name}: boundary {s.h_top}/{s.h_bot}")
                ok = False
            if ok:
                sq_ok.add(s.name)
        sq_all_ok = sq_ok | {id_name(v) for v in v_ok}

        j0 = self.j0_category()
        j1 = self.j1_category()

        def hends(name):
            return (j0.arrows[name].dom, j0.arrows[name].cod)

        for s in self.squares:
            if s.name not in sq_ok:
                continue
            src, dst = self._varrow[s.vsrc], self._varrow[s.vdst]
            if hends(s.h_top) != (src.vdom, dst.vdom):
                bad("square-boundary", f"square {s.name}: top arrow {s.h_top}")
            if hends(s.h_bot) != (src.vcod, dst.vcod):
                bad("square-boundary", f"square {s.name}: bottom arrow {s.h_bot}")

        def h_composite(first, then):
            try:
                name = j0.composite(first, then)
            except (InvalidPresentation, CompositionError, KeyError):
                return None
            return name if name in h_ok else None

        def boundary_or_none(name):
            if name in sq_all_ok:
                return self.square_boundary(name)
            return None

        for (first, then), result in self.square_comp.items():
            bs = [boundary_or_none(n) for n in (first, then, result)]
            if any(b is None for b in bs):
                continue
            (fs, fd, ft, fb), (ts, td, tt, tb), (rs, rd, rt, rb) = bs
            if fd != ts:
                continue  # square-composition boundary errors already reported
            want_top = h_composite(ft, tt)
            want_bot = h_composite(fb, tb)
            if want_top is not None and rt != want_top:
                bad("source-functor", f"composite ({first}, {then}) = {result}: top {rt} != {want_top}")
            if want_bot is not None and rb != want_bot:
                bad("target-functor", f"composite ({first}, {then}) = {result}: bottom {rb} != {want_bot}")

        # the identity-vertical functor must send every horizontal arrow to a square
        e_sq: dict[str, str] = {}
        vid_complete = all(o in self.vid and self.vid[o] in v_ok for o in obj_ok)
        if vid_complete:
            for h in self.harrows:
                if h.name not in hnames or h.dom not in obj_ok or h.cod not in obj_ok:
                    continue
                matches = [
                    s.name
                    for s in self.squares
                    if s.name in sq_ok
                    and s.vsrc == self.vid[h.dom]
                    and s.vdst == self.vid[h.cod]
                    and s.h_top == h.name
                    and s.h_bot == h.name
                ]
                if not matches:
                    bad("vertical-identity-square", f"no square witnessing the identity vertical image of {h.name}")
                else:
                    e_sq[h.name] = matches[0]
            for o in obj_ok:
                e_sq[id_name(o)] = id_name(self.vid[o])
            for (first, then), result in self.hcomp.items():
                if first not in e_sq or then not in e_sq or result not in e_sq:
                    continue
                try:
                    got = j1.composite(e_sq[first], e_sq[then])
                except (InvalidPresentation, CompositionError, KeyError):
                    continue
                if got != e_sq[result]:
                    bad("vertical-identity-functor", f"identity square over ({first}, {then})")

        # vertical composition of arrows
        for (first, then), result in self.vcomp.items():
            if first not in v_ok or then not in v_ok or result not in v_ok:
                bad("unknown-reference", f"vertical composite ({first}, {then}) = {result}")
                continue
            fa, ta, ra = self._varrow[first], self._varrow[then], self._varrow[result]
            if fa.vcod != ta.vdom:
                bad("vertical-composition-boundary", f"({first}, {then}) not composable")
                continue
            if ra.vdom != fa.vdom or ra.vcod != ta.vcod:
                bad("vertical-composition-boundary", f"({first}, {then}) = {result} has wrong boundary")
            if first in self._vidset or then in self._vidset:
                expected = then if first in self._vidset else first
                if result != expected:
                    bad("vertical-unit", f"({first}, {then}) = {result}, expected {expected}")

        def v_composite(first, then):
            try:
                name = self.vcompose(first, then)
            except CompositionError:
                return None
            except InvalidPresentation:
                bad("vertical-composition-totality", f"({first}, {then})")
                return None
            return name if name in v_ok else None

        vnames = [v.name for v in self.varrows if v.name in v_ok]
        composable = {}
        for f in vnames:
            for g in vnames:
                if self._varrow[f].vcod == self._varrow[g].vdom:
                    composable[(f, g)] = v_composite(f, g)
        for (f, g), fg in composable.items():
            for h in vnames:
                if self._varrow[g].vcod != self._varrow[h].vdom:
                    continue
                gh = composable.get((g, h))
                if fg is None or gh is None:
                    continue
                if self._varrow[fg].vcod != self._varrow[h].vdom or self._varrow[f].vcod != self._varrow[gh].vdom:
                    continue
                try:
                    left = self.vcompose(fg, h)
                    right = self.vcompose(f, gh)
                except (InvalidPresentation, CompositionError):
                    continue
                if left != right:
                    bad("vertical-associativity", f"(({f}, {g}), {h}): {left} != {right}")

        # vertical composition of squares: totality, boundaries, functoriality
        structural_ok = vid_complete and not out
        if structural_ok:
            pairs_sq = self._j2_square_pairs()
            for a, b in pairs_sq:
                try:
                    r = self.square_vcompose(a, b)
                except InvalidPresentation:
                    bad("vertical-composition-square-totality", f"({a}, {b})")
                    continue
                if r not in sq_all_ok:
                    bad("unknown-reference", f"vertical composite of squares ({a}, {b}) = {r}")
                    continue
                asrc, adst, atop, _ = self.square_boundary(a)
                bsrc, bdst, _, bbot = self.square_boundary(b)
                rsrc, rdst, rtop, rbot = self.square_boundary(r)
                try:
                    want_src = self.vcompose(asrc, bsrc)
                    want_dst = self.vcompose(adst, bdst)
                except (InvalidPresentation, CompositionError):
                    continue
                if (rsrc, rdst) != (want_src, want_dst) or rtop != atop or rbot != bbot:
                    bad("vertical-composition-square-boundary", f"({a}, {b}) = {r}")
            for (a, b), r in self.square_vcomp.items():
                if a in sq_all_ok and b in sq_all_ok and is_id_name(a) and is_id_name(b):
                    try:
                        expected = self.vcompose(a[len(ID_PREFIX):], b[len(ID_PREFIX):])
                    except (InvalidPresentation, CompositionError):
                        continue
                    if r != id_name(expected):
                        bad("vertical-unit", f"squares ({a}, {b}) = {r}")
            # functoriality over composition of square pairs
            pair_set = set(pairs_sq) | {
                (id_name(f), id_name(g)) for (f, g) in composable if composable[(f, g)] is not None
            }
            for a, b in pair_set:
                for c, d in pair_set:
                    _, adst, _, _ = self.square_boundary(a)
                    _, bdst, _, _ = self.square_boundary(b)
                    csrc, _, _, _ = self.square_boundary(c)
                    dsrc, _, _, _ = self.square_boundary(d)
                    if adst != csrc or bdst != dsrc:
                        continue
                    try:
                        ac = j1.composite(a, c)
                        bd = j1.composite(b, d)
                        lhs = self.square_vcompose(ac, bd)
                        rhs = j1.composite(self.square_vcompose(a, b), self.square_vcompose(c, d))
                    except (InvalidPresentation, CompositionError, KeyError):
                        continue
                    if lhs != rhs:
                        bad("vertical-composition-functor", f"(({a}, {b}), ({c}, {d}))")

        # realisation: horizontal arrows
        hmaps: dict[str, FiniteMap] = {}
        for o in obj_ok:
            hmaps[id_name(o)] = identity(FinSet(self._sizes[o]))
        for h in self.harrows:
            if h.name not in hnames or h.dom not in obj_ok or h.cod not in obj_ok:
                continue
            if not h.umap.wellformed() or (h.umap.dom, h.umap.cod) != (
                self._sizes[h.dom],
                self._sizes[h.cod],
            ):
                bad("realisation-map", f"horizontal arrow {h.name}")
                continue
            hmaps[h.name] = h.umap.build()
        for (first, then), result in self.hcomp.items():
            if first in hmaps and then in hmaps and result in hmaps:
                if hmaps[result].table != compose(hmaps[then], hmaps[first]).table:
                    bad("realisation-horizontal-functor", f"composite ({first}, {then}) = {result}")

        # realisation: vertical arrows and squares
        vmaps: dict[str, FiniteMap] = {}
        for v in self.varrows:
            if v.name not in v_ok:
                continue
            if not v.umap.wellformed() or (v.umap.dom, v.umap.cod) != (
                self._sizes[v.vdom],
                self._sizes[v.vcod],
            ):
                bad("realisation-map", f"vertical arrow {v.name}")
                continue
            vmaps[v.name] = v.umap.build()
        for o in sorted(obj_ok):
            vn = self.vid.get(o)
            if vn in vmaps and vmaps[vn].table != tuple(range(self._sizes[o])):
                bad("vertical-identity-realisation", f"identity vertical arrow {vn}")
        for s in self.squares:
            if s.name not in sq_ok or s.vsrc not in vmaps or s.vdst not in vmaps:
                continue
            if s.h_top not in hmaps or s.h_bot not in hmaps:
                continue
            lhs = compose(vmaps[s.vdst], hmaps[s.h_top])
            rhs = compose(hmaps[s.h_bot], vmaps[s.vsrc])
            if lhs.dom != rhs.dom or lhs.cod != rhs.cod or lhs.table != rhs.table:
                bad("realisation-square", f"square {s.name}")
        for f in vnames:
            for g in vnames:
                if self._varrow[f].vcod != self._varrow[g].vdom:
                    continue
                try:
                    r = self.vcompose(f, g)
                except (InvalidPresentation, CompositionError):
                    continue
                if f in vmaps and g in vmaps and r in vmaps:
                    if vmaps[r].table != compose(vmaps[g], vmaps[f]).table:
                        bad("realisation-vertical-functor", f"composite ({f}, {g}) = {r}")

        return ValidationReport(out)

    def ensure_valid(self) -> None:
        if self._report is None:
            self._report = self.validate()
        if not self._report.ok:
            err = InvalidPresentation(f"invalid presentation: {self._report.summary()}")
            err.report = self._report
            raise err

    # --- view consumed by the one-step construction ---

    def lifting_generators(self) -> list[tuple[str, ArrowObject]]:
        return [(v.name, self.uarrow(v.name)) for v in self.varrows]

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        return [(s.name, s.vsrc, s.vdst, self.usquare(s.name)) for s in self.squares]

    def composable_pairs(self) -> "ComposablePairs":
        self.ensure_valid()
        pairs = []
        for left in self.varrows:
            for right in self.varrows:
                if left.vcod == right.vdom:
                    pairs.append(
                        PairGen(
                            pair_name(left.name, right.name),
                            left.name,
                            right.name,
                            self.vcompose(left.name, right.name),
                        )
                    )
        squares = []
        for a, b in self._j2_square_pairs():
            asrc, adst, atop, _ = self.square_boundary(a)
            bsrc, bdst, _, bbot = self.square_boundary(b)
            src, dst = pair_name(asrc, bsrc), pair_name(adst, bdst)
            cs = CommSquare(
                self.uarrow(self.vcompose(asrc, bsrc)),
                self.uarrow(self.vcompose(adst, bdst)),
                self.hmap(atop),
                self.hmap(bbot),
            )
            squares.append((pair_name(a, b), src, dst, cs))
        return ComposablePairs(self, pairs, squares)

    def canonical_key(self) -> str:
        return "double:" + repr(
            (
                self.objects,
                self.harrows,
                tuple(sorted(self.hcomp.items())),
                self.varrows,
                tuple(sorted(self.vid.items())),
                self.squares,
                tuple(sorted(self.square_comp.items())),
                tuple(sorted(self.vcomp.items())),
                tuple(sorted(self.square_vcomp.items())),
            )
        )


@dataclass(frozen=True)
class PairGen:
    """A composable pair of vertical arrows and the arrow it composes to."""

    name: str
    left: str
    right: str
    composite: str


@dataclass
class ComposablePairs:
    """The category of vertically composable pairs, realised through the
    composite of each pair; exposes the same view as a presentation."""

    base: DoubleCatPresentation
    pairs: list[PairGen]
    pair_squares: list[tuple[str, str, str, CommSquare]]

    kind: ClassVar[str] = "pairs"

    def __post_init__(self) -> None:
        self._by_name = {p.name: p for p in self.pairs}

    def pair(self, name: str) -> PairGen:
        return self._by_name[name]

    def lifting_generators(self) -> list[tuple[str, ArrowObject]]:
        return [(p.name, self.base.uarrow(p.composite)) for p in self.pairs]

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        return list(self.pair_squares)

    def canonical_key(self) -> str:
        return self.base.canonical_key() + "#pairs"
