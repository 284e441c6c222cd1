"""Every certificate ``factor`` writes passes ``verify``.

Seeded examples factor a random small target through one of two kinds of
shape: a fixture presentation (the plain ones in plain mode, the double
ones, ``pair_square_pres`` among them, in special mode), or a random plain
shape of one to three generators, non-injective ones included, with
connecting squares between them.  A chain that does not stabilise by
stage 6, or that lists more than 20,000 problems, is skipped.  The
certificate must verify with no failed check twice: as ``factor``
returned it, and after a round trip through its JSON text.
"""

import json
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from awfskit.chain import factorise
from awfskit.errors import NotStabilised, SizeBudgetExceeded
from awfskit.serialize import (
    decode_certificate,
    decode_presentation,
    dumps,
    encode_certificate,
    parse_text,
)
from awfskit.step import SizeBudget
from awfskit.verify import Certificate, verify_certificate

from fixture_lib import pair_square_pres
from test_step import _draw_arrow, _draw_square, _Shape

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRESENTATIONS = {
    **{name: decode_presentation(json.loads((FIXTURES / f"{name}.json").read_text()))
       for name in ("gen_abc", "gen_composite", "gen_growth", "gen_split_epi", "gen_uniform2")},
    "pair_square": pair_square_pres(),
}


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_every_written_certificate_verifies(data):
    draw = data.draw
    if draw(hst.booleans()):
        shape = PRESENTATIONS[draw(hst.sampled_from(sorted(PRESENTATIONS)))]
        mode = "special" if shape.kind == "double" else "plain"
        target = _draw_arrow(draw, 3, 2)
    else:  # plain generators, non-injective ones included, with squares
        gens = [(f"g{i}", _draw_arrow(draw, 2, 2))
                for i in range(draw(hst.integers(1, 3)))]
        squares = []
        for i in range(draw(hst.integers(0, 4))):
            src_name, src = draw(hst.sampled_from(gens))
            dst_name, dst = draw(hst.sampled_from(gens))
            sq = _draw_square(draw, src, dst)
            if sq is not None:
                squares.append((f"s{i}", src_name, dst_name, sq))
        shape, mode = _Shape(gens, squares), "plain"
        target = _draw_arrow(draw, 3, 3)
    try:
        result = factorise(shape, target.map, mode=mode, max_stage=6, budget=SizeBudget(20000))
    except (NotStabilised, SizeBudgetExceeded):
        return
    cert = Certificate.from_result(shape, result)
    assert verify_certificate(cert).failures() == []
    back = decode_certificate(parse_text(dumps(encode_certificate(cert))), shape)
    assert verify_certificate(back).failures() == []
