"""Seeded fuzzing of ``oracle kappa`` and ``oracle initiality`` on the
command line.

Each example applies one fault to the JSON of a map (for ``kappa``, to
``--map`` or ``--target-map``) or of a written certificate (for
``initiality``): an integer replaced by a bool, an integer made negative
or moved out of range, a table made one entry longer or shorter, or a
field deleted.  The command may pass (exit 0), fail or reject its input
(exit 1) or refuse the size (exit 3); nothing may escape ``main`` as an
exception, which would be anything but an ``EngineError``.
"""

import contextlib
import copy
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from awfskit.chain import factorise
from awfskit.cli import main
from awfskit.serialize import dumps, encode_certificate, encode_map, encode_presentation
from awfskit.verify import Certificate

from fixture_lib import (
    composite_pres,
    f_3to2,
    fmap,
    pair_square_pres,
    split_epi_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)

# pair_square and uniform2 have connecting squares, so the oracles also meet
# the general step
PRESENTATIONS = {"split_epi": split_epi_pres, "two_gen": two_gen_plain_pres,
                 "pair_square": pair_square_pres, "uniform2": lambda: uniform_monos_pres(2)}
KAPPA_PAIRS = [((1, 1, [0]), (2, 1, [0, 0])), ((2, 2, [0, 1]), (2, 1, [0, 0])),
               ((2, 1, [0, 0]), (1, 1, [0])), ((0, 1, []), (2, 2, [1, 0]))]
CERTIFICATES = {
    "split_epi-special": (split_epi_pres, f_3to2(), "special", 3),
    "two_gen-plain": (two_gen_plain_pres, fmap(2, 2, [0, 1]), "plain", 3),
    "composite-special": (composite_pres, fmap(2, 1, [0, 0]), "special", 4),
    "pair_square-special": (pair_square_pres, f_3to2(), "special", 4),
}
FAULTS = ("bool", "range", "length", "missing")


@pytest.fixture(scope="module")
def certificates():
    out = {}
    for name, (make, f, mode, stage) in CERTIFICATES.items():
        pres = make()
        cert = Certificate.from_result(pres, factorise(pres, f, mode=mode, max_stage=stage))
        out[name] = pres, encode_certificate(cert)
    return out


def _nodes(obj):
    """Every dict, list and integer inside ``obj``, as (container, key, value)."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield obj, key, value
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def mutate(obj, fault: str, draw):
    obj = copy.deepcopy(obj)
    nodes = list(_nodes(obj))
    ints = [n for n in nodes if type(n[2]) is int]
    if fault in ("bool", "range") and ints:
        node, key, value = draw(st.sampled_from(ints))
        node[key] = draw(st.booleans()) if fault == "bool" else draw(
            st.sampled_from([-1, -value - 2, value + 1, value + 2, 100]))
    elif fault == "length":
        lists = [n[2] for n in nodes if isinstance(n[2], list)]
        table = draw(st.sampled_from(lists))
        if table and draw(st.booleans()):
            table.pop()
        else:
            table.append(0)
    else:
        node = draw(st.sampled_from([obj] + [n[2] for n in nodes if isinstance(n[2], dict)]))
        del node[draw(st.sampled_from(sorted(node)))]
    return obj


def run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _write(tmp, name, payload) -> str:
    path = Path(tmp) / f"{name}.json"
    path.write_text(dumps(payload), encoding="utf-8")
    return str(path)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(pres=st.sampled_from(sorted(PRESENTATIONS)), pair=st.sampled_from(KAPPA_PAIRS),
       side=st.sampled_from(["map", "target"]), fault=st.sampled_from(FAULTS), data=st.data())
def test_kappa_single_fault_maps(pres, pair, side, fault, data):
    maps = {"map": encode_map(fmap(*pair[0])), "target": encode_map(fmap(*pair[1]))}
    with tempfile.TemporaryDirectory() as tmp:
        files = {"pres": _write(tmp, "pres", encode_presentation(PRESENTATIONS[pres]()))}
        files.update((name, _write(tmp, name, payload)) for name, payload in maps.items())
        argv = ["oracle", "kappa", "--presentation", files["pres"], "--map", files["map"],
                "--target-map", files["target"]]
        assert run(argv) == 0
        _write(tmp, side, mutate(maps[side], fault, data.draw))
        assert run(argv) in (0, 1, 3)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(CERTIFICATES)), fault=st.sampled_from(FAULTS), data=st.data())
def test_initiality_single_fault_certificates(certificates, case, fault, data):
    pres, obj = certificates[case]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"pres": _write(tmp, "pres", encode_presentation(pres)),
                 "cert": _write(tmp, "cert", mutate(obj, fault, data.draw))}
        argv = ["oracle", "initiality", "--presentation", files["pres"],
                "--certificate", files["cert"]]
        assert run(argv) in (0, 1, 3)


def test_written_certificates_pass_initiality(certificates):
    with tempfile.TemporaryDirectory() as tmp:
        for pres, obj in certificates.values():
            assert run(["oracle", "initiality", "--presentation",
                        _write(tmp, "pres", encode_presentation(pres)),
                        "--certificate", _write(tmp, "cert", obj)]) == 0
