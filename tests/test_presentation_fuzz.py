"""Seeded fuzzing of the presentation decoder through the command line.

Each example changes one node of a presentation's JSON: the four fixture
presentations, the two-generator plain shape, which has a connecting
square, and a double presentation with a horizontal arrow, a square and an
entry in every composition table.  The node (a section of the document,
then any value or entry in it, or the whole document) becomes a bool, a
negative integer, a float, a string, a reserved name (``1_x``) or a name
with the pair separator (``a*b``), null, an empty array or an empty
object, or is deleted.  The mutant goes through ``validate`` and
through ``factor`` in plain and in special mode.  Each run must end with
one of the exit codes 0 to 3; nothing may escape ``main``.

The same mutants, with a new key on any object as well, also go through
the schema-table decoder and the hand-written reference walks of
``reference_decode``: both must name the same first fault, or decode to
presentations with the same encoding.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from awfskit.cli import main
from awfskit.errors import ParseError
from awfskit.serialize import decode_presentation, dumps, encode_presentation

import reference_decode
from fixture_lib import square_pres, two_gen_plain_pres
from test_serialize import DELETE, _mutant, _paths

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BASES = {name: json.loads((FIXTURES / f"{name}.json").read_text())
         for name in ("gen_abc", "gen_composite", "gen_growth", "gen_split_epi")}
BASES["two_gen_plain"] = encode_presentation(two_gen_plain_pres())
BASES["square"] = encode_presentation(square_pres())
VALUES = [True, False, -1, 1.5, "x", "1_x", "a*b", None, [], {}, DELETE]


def run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("presentation-fuzz")


def _draw_mutant(data, doc, new_keys=False):
    """One node of ``doc`` replaced or deleted, or with ``new_keys`` also a
    new key added to one object."""
    # a section of the document first, so that short sections are as
    # likely as long ones, then a node of it
    sections = {}
    for path in _paths(doc):
        sections.setdefault(path[0], []).append(path)
    if new_keys:
        sections["extra"] = [path + ("extra",) for path in [()] + list(_paths(doc))
                             if isinstance(_node(doc, path), dict)]
    path = data.draw(st.sampled_from([[()]] + list(sections.values())).flatmap(st.sampled_from))
    value = data.draw(st.sampled_from(VALUES if path and path[-1] != "extra" else VALUES[:-1]))
    return _mutant(doc, path, value) if path else value


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@seed(20261019)
@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_one_node_mutants_exit_with_a_code(workdir, name, data):
    mutant = _draw_mutant(data, BASES[name])
    pres = workdir / "pres.json"
    pres.write_text(json.dumps(mutant), encoding="utf-8")
    factor = ["factor", "--presentation", str(pres), "--map", str(FIXTURES / "f_3to2.json"),
              "--max-stage", "3", "--budget", "5000"]
    for argv in (["validate", "--presentation", str(pres)], factor + ["--mode", "plain"],
                 factor + ["--mode", "special"]):
        assert run(argv) in (0, 1, 2, 3)


def _decoded(decode, encode, doc):
    """The canonical text of the presentation ``doc`` decodes to, or the
    text of the ``ParseError`` it raises."""
    try:
        return dumps(encode(decode(doc)))
    except ParseError as e:
        return str(e)


@seed(20261020)
@settings(max_examples=800, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_schema_table_matches_the_reference_walks_on_one_node_mutants(name, data):
    mutant = _draw_mutant(data, BASES[name], new_keys=True)
    assert _decoded(decode_presentation, encode_presentation, mutant) == _decoded(
        reference_decode.decode_presentation, reference_decode.encode_presentation, mutant)
