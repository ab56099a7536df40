"""Request schema: validation and canonical payloads.

Every endpoint takes one JSON object.  Validation is strict -- unknown
fields, wrong types, unknown program/memory/processor names and
out-of-range numbers are all :class:`RequestError` (HTTP 400) with a
one-line message naming the field, never a traceback.  The same
dataclasses are used by the server and the client helper, so a request
that parses locally is exactly a request the daemon accepts.

The ``simulate`` payload is rendered by :func:`cell_payload` from the
same :class:`~repro.experiments.common.CellResult` the batch engine
produces, and the daemon serialises it with sorted keys -- which is
what makes the service byte-identical to the batch CLI for identical
specs (the e2e tests assert it).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, Optional

from ..experiments.common import CellResult, CellSpec
from ..ir.block import Program
from ..machine.config import (
    PROCESSORS_BY_NAME,
    SYSTEMS_BY_NAME,
    parse_processor,
    system_row,
)
from ..machine.processor import ProcessorModel
from ..simulate.program import DEFAULT_RUNS
from ..simulate.rng import DEFAULT_SEED
from ..simulate.stats import DEFAULT_BOOTSTRAP

#: The named processor models a request may ask for.  Any
#: ``parse_processor`` spec (``<base>[x<width>][+dt<table>]``, e.g.
#: ``len8x2+dt4``) is also accepted -- the same grammar as
#: ``balanced-sched trace --processor``.
PROCESSORS: Dict[str, ProcessorModel] = dict(PROCESSORS_BY_NAME)

#: Request kinds the daemon serves (also its POST endpoint names).
KINDS = ("compile", "schedule", "simulate", "explain")


class RequestError(ValueError):
    """A malformed request; the daemon answers 400 with the message."""


# ----------------------------------------------------------------------
# Field helpers
# ----------------------------------------------------------------------
def _require_object(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    return payload


def _reject_unknown(payload: dict, allowed: set) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise RequestError(
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _get_str(payload: dict, field: str, default: Optional[str] = None):
    value = payload.get(field, default)
    if value is default:
        return default
    if not isinstance(value, str) or not value:
        raise RequestError(f"field {field!r} must be a non-empty string")
    return value


def _get_number(payload: dict, field: str, default: float) -> float:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"field {field!r} must be a number")
    # Keep the client's int/float distinction: the CLI's --latency
    # default is the int 2, and the traditional scheduler's label
    # (``W=2`` vs ``W=2.0``) embeds it -- coercing here would break
    # byte-identity with the CLI.
    return value


def _get_int(
    payload: dict, field: str, default: int, minimum: int = 1,
    maximum: int = 1_000_000,
) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"field {field!r} must be an integer")
    if not minimum <= value <= maximum:
        raise RequestError(
            f"field {field!r} must be in [{minimum}, {maximum}], got {value}"
        )
    return value


def _get_bool(payload: dict, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise RequestError(f"field {field!r} must be a boolean")
    return value


def _get_program_source(payload: dict):
    """The ``source`` xor ``program`` pair shared by compile-shaped
    requests."""
    source = _get_str(payload, "source")
    program = _get_str(payload, "program")
    if (source is None) == (program is None):
        raise RequestError(
            "provide exactly one of 'source' (minif text) or "
            "'program' (a Perfect Club name)"
        )
    if program is not None:
        from ..workloads.perfect import program_names

        if program not in program_names():
            raise RequestError(
                f"unknown program {program!r}; choose from {program_names()}"
            )
    return source, program


def _get_deadline(payload: dict) -> Optional[float]:
    if "deadline_ms" not in payload:
        return None
    value = payload["deadline_ms"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("field 'deadline_ms' must be a number")
    if not 1 <= value <= 3_600_000:
        raise RequestError(
            f"field 'deadline_ms' must be in [1, 3600000], got {value}"
        )
    return float(value) / 1000.0


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompileRequest:
    source: Optional[str]
    program: Optional[str]
    latency: float
    deadline_s: Optional[float]


@dataclass(frozen=True)
class ScheduleRequest:
    source: Optional[str]
    program: Optional[str]
    policy: str
    latency: float
    verbose: bool
    deadline_s: Optional[float]


@dataclass(frozen=True)
class ExplainRequest:
    source: Optional[str]
    program: Optional[str]
    block: Optional[str]
    latency: float
    context: int
    full: bool
    deadline_s: Optional[float]


@dataclass(frozen=True)
class SimulateRequest:
    program: str
    memory: str
    optimistic_latency: float
    processor: str
    seed: int
    runs: int
    n_boot: int
    deadline_s: Optional[float]


def parse_compile(payload: object) -> CompileRequest:
    payload = _require_object(payload)
    _reject_unknown(payload, {"source", "program", "latency", "deadline_ms"})
    source, program = _get_program_source(payload)
    return CompileRequest(
        source=source,
        program=program,
        latency=_get_number(payload, "latency", 2),
        deadline_s=_get_deadline(payload),
    )


def parse_schedule(payload: object) -> ScheduleRequest:
    payload = _require_object(payload)
    _reject_unknown(
        payload,
        {"source", "program", "policy", "latency", "verbose", "deadline_ms"},
    )
    source, program = _get_program_source(payload)
    policy = _get_str(payload, "policy", "balanced")
    if policy not in ("balanced", "traditional", "optimal"):
        raise RequestError(
            f"field 'policy' must be 'balanced', 'traditional' or "
            f"'optimal', got {policy!r}"
        )
    latency = _get_number(payload, "latency", 2)
    if policy == "optimal" and (latency != int(latency) or latency < 0):
        # The exact backend's cost model is the integer-cycle
        # simulator; reject here so the caller gets a 400, not a 500.
        raise RequestError(
            f"field 'latency' must be a non-negative integer when "
            f"policy is 'optimal', got {latency!r}"
        )
    return ScheduleRequest(
        source=source,
        program=program,
        policy=policy,
        latency=latency,
        verbose=_get_bool(payload, "verbose", False),
        deadline_s=_get_deadline(payload),
    )


def parse_explain(payload: object) -> ExplainRequest:
    payload = _require_object(payload)
    _reject_unknown(
        payload,
        {"source", "program", "block", "latency", "context", "full",
         "deadline_ms"},
    )
    source, program = _get_program_source(payload)
    return ExplainRequest(
        source=source,
        program=program,
        block=_get_str(payload, "block"),
        latency=_get_number(payload, "latency", 2),
        context=_get_int(payload, "context", 3, minimum=0, maximum=1000),
        full=_get_bool(payload, "full", False),
        deadline_s=_get_deadline(payload),
    )


def parse_simulate(payload: object) -> SimulateRequest:
    payload = _require_object(payload)
    _reject_unknown(
        payload,
        {"program", "memory", "optimistic_latency", "processor", "seed",
         "runs", "n_boot", "deadline_ms"},
    )
    from ..workloads.perfect import program_names

    program = _get_str(payload, "program")
    if program is None:
        raise RequestError("field 'program' is required")
    if program not in program_names():
        raise RequestError(
            f"unknown program {program!r}; choose from {program_names()}"
        )
    memory = _get_str(payload, "memory")
    if memory is None:
        raise RequestError("field 'memory' is required")
    if memory not in SYSTEMS_BY_NAME:
        raise RequestError(
            f"unknown memory system {memory!r}; "
            f"choose from {sorted(SYSTEMS_BY_NAME)}"
        )
    processor = _get_str(payload, "processor", "unlimited")
    try:
        parse_processor(processor)
    except ValueError as exc:
        raise RequestError(
            f"invalid processor {processor!r} ({exc}); choose from "
            f"{sorted(PROCESSORS)} or a spec like 'len8x2+dt4' "
            f"(<base>[x<width>][+dt<table>])"
        ) from None
    latency = _get_number(payload, "optimistic_latency", 2)
    if not 0 < latency <= 1000:
        raise RequestError(
            f"field 'optimistic_latency' must be in (0, 1000], got {latency}"
        )
    seed = payload.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise RequestError("field 'seed' must be an integer")
    return SimulateRequest(
        program=program,
        memory=memory,
        optimistic_latency=latency,
        processor=processor,
        seed=seed,
        runs=_get_int(payload, "runs", DEFAULT_RUNS, maximum=10_000),
        n_boot=_get_int(payload, "n_boot", DEFAULT_BOOTSTRAP, maximum=100_000),
        deadline_s=_get_deadline(payload),
    )


_PARSERS = {
    "compile": parse_compile,
    "schedule": parse_schedule,
    "simulate": parse_simulate,
    "explain": parse_explain,
}


def parse_request(kind: str, payload: object):
    """Parse one endpoint's JSON body into its request dataclass."""
    parser = _PARSERS.get(kind)
    if parser is None:
        raise RequestError(
            f"unknown request kind {kind!r}; choose from {sorted(_PARSERS)}"
        )
    return parser(payload)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
#: Source-text programs memoised by content hash, so repeated requests
#: for the same kernel share one ``Program`` object -- and therefore
#: hit the process-wide ``CompilationCache`` (which keys on program
#: identity).  Bounded FIFO so a hostile client cannot grow it without
#: limit.
_SOURCE_MEMO: "Dict[str, Program]" = {}
_SOURCE_MEMO_LIMIT = 128


def load_request_program(source: Optional[str], program: Optional[str]):
    """The ``Program`` a compile-shaped request names.

    Perfect Club names go through the suite's process-wide cache;
    source text is compiled once per distinct content hash.  Frontend
    diagnostics surface as :class:`RequestError` (HTTP 400).
    """
    if program is not None:
        from ..workloads.perfect import load_program

        return load_program(program)
    assert source is not None
    digest = sha256(source.encode("utf-8")).hexdigest()
    cached = _SOURCE_MEMO.get(digest)
    if cached is not None:
        return cached
    from ..frontend.errors import MinifError
    from ..frontend.lowering import compile_minif

    try:
        compiled = compile_minif(source)
    except MinifError as exc:
        raise RequestError(f"source does not compile: {exc}") from exc
    while len(_SOURCE_MEMO) >= _SOURCE_MEMO_LIMIT:
        _SOURCE_MEMO.pop(next(iter(_SOURCE_MEMO)))
    _SOURCE_MEMO[digest] = compiled
    return compiled


# ----------------------------------------------------------------------
# Simulation payloads
# ----------------------------------------------------------------------
def to_cell_spec(
    request: SimulateRequest, trace_id: Optional[str] = None
) -> CellSpec:
    """The exact work item the batch engine evaluates for this request
    (identical spec => identical cache key => identical payload).

    ``trace_id`` piggybacks the request's trace context onto the spec
    (a compare/repr-excluded field), so the engine can report span
    fragments under the right request without a second wire format.
    The cache key and the result are unaffected.
    """
    return CellSpec(
        program=request.program,
        system=system_row(request.memory, request.optimistic_latency),
        processor=parse_processor(request.processor),
        seed=request.seed,
        runs=request.runs,
        n_boot=request.n_boot,
        trace_ids=(trace_id,) if trace_id else (),
    )


def cell_payload(cell: CellResult) -> dict:
    """The canonical JSON payload of one evaluated cell.

    Pure function of the ``CellResult``; the daemon serialises it with
    ``sort_keys=True``, so two requests for the same spec -- or a
    request and a batch-CLI run -- produce byte-identical bodies.
    """
    return {
        "program": cell.program,
        "system": cell.system.label,
        "memory": cell.system.memory.name,
        "optimistic_latency": cell.system.optimistic_latency,
        "processor": cell.processor.name,
        "improvement_pct": cell.improvement.mean,
        "improvement_ci_low": cell.improvement.ci_low,
        "improvement_ci_high": cell.improvement.ci_high,
        "significant": cell.improvement.significant,
        "traditional_instructions": cell.traditional_instructions,
        "balanced_instructions": cell.balanced_instructions,
        "traditional_interlock_pct": cell.traditional_interlock_pct,
        "balanced_interlock_pct": cell.balanced_interlock_pct,
        "traditional_spill_pct": cell.traditional_spill_pct,
        "balanced_spill_pct": cell.balanced_spill_pct,
    }
