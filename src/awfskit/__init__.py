"""Algebraic weak factorisation systems over finite sets.

Factor a map of finite sets through the iterated one-step extension
generated by a finitely presented collection of arrows (and, in special
mode, squares subject to vertical composition), extract the canonical
lifting structure, and verify every defining equation exhaustively.

Typical use::

    from awfskit import factorise, verify_certificate
    from awfskit.serialize import decode_map_or_arrow, decode_presentation, read_json

    pres = decode_presentation(read_json("fixtures/gen_split_epi.json"))
    f = decode_map_or_arrow(read_json("fixtures/f_3to2.json"))
    cert = factorise(pres, f, mode="special", max_stage=3)  # a Certificate
    assert verify_certificate(cert).ok
"""

from .arrows import (
    ArrowObject,
    CommSquare,
    arrow,
    identity_square,
    square_compose,
)
from .chain import (
    Certificate,
    ChainTrace,
    LiftTable,
    detect_stabilisation,
    extract,
    factorise,
    run_chain,
    run_plain,
    run_special,
    solve_lift,
)
from .errors import (
    DiagramError,
    EngineError,
    InvalidPresentation,
    NotStabilised,
    OutputError,
    ParseError,
    SizeBudgetExceeded,
)
from .finset import FiniteMap, FinSet, compose, identity, is_iso
from .presentation import (
    DoubleCatPresentation,
    PlainPresentation,
    ValidationReport,
)
from .serialize import (
    decode_certificate,
    decode_map_or_arrow,
    decode_presentation,
    encode_certificate,
    encode_presentation,
    read_json,
    trace_summary,
    write_json,
)
from .step import (
    DoubleEngine,
    LiftingProblem,
    SizeBudget,
    StepEngine,
    StepStructure,
)
from .verify import (
    Report,
    ReportEntry,
    check_algebra,
    check_compat,
    oracle_initiality,
    oracle_kappa,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowObject",
    "Certificate",
    "ChainTrace",
    "CommSquare",
    "DiagramError",
    "DoubleCatPresentation",
    "DoubleEngine",
    "EngineError",
    "FinSet",
    "FiniteMap",
    "InvalidPresentation",
    "LiftTable",
    "LiftingProblem",
    "NotStabilised",
    "OutputError",
    "ParseError",
    "PlainPresentation",
    "Report",
    "ReportEntry",
    "SizeBudget",
    "SizeBudgetExceeded",
    "StepEngine",
    "StepStructure",
    "ValidationReport",
    "arrow",
    "check_algebra",
    "check_compat",
    "compose",
    "decode_certificate",
    "decode_map_or_arrow",
    "decode_presentation",
    "detect_stabilisation",
    "encode_certificate",
    "encode_presentation",
    "extract",
    "factorise",
    "identity",
    "identity_square",
    "is_iso",
    "oracle_initiality",
    "oracle_kappa",
    "read_json",
    "run_chain",
    "run_plain",
    "run_special",
    "solve_lift",
    "square_compose",
    "trace_summary",
    "verify_certificate",
    "write_json",
]
