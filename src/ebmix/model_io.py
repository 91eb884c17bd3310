"""On-disk model format: canonical JSON, format_version 1.

Canonical means sorted keys, compact separators and floats printed with
17 significant digits, so identical models serialize to identical bytes
and every float round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ContractError, DataError
from .families import COMPONENT_TYPES, Family
from .mixture import FitDiagnostics, MixtureModel, NullMode

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON text for nested dict/list/scalar structures."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ContractError("canonical JSON forbids non-finite floats")
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise ContractError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class ModelDocument:
    """A fitted model plus the fit provenance that goes to disk.

    ``timestamp`` defaults to None: output bytes must be a pure function
    of inputs and seed, so no wall clock is consulted.  Callers may stamp
    one in explicitly.
    """

    model: MixtureModel
    seed: int = 0
    timestamp: str | None = None


def _json_int(value, name: str) -> int:
    # json.loads gives int only for integer literals; bool is an int subclass
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{name} must be a JSON integer, got {value!r}")
    return value


def serialize_model(doc: ModelDocument) -> str:
    m = doc.model
    diag = None
    if m.diagnostics is not None:
        diag = {
            "penalized_loglik": m.diagnostics.penalized_loglik,
            "iterations": m.diagnostics.iterations,
            "converged": m.diagnostics.converged,
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "family": m.family.value,
        "n_components": m.n_components,
        "null_mode": m.null_mode.value,
        "pi": [float(p) for p in m.pi],
        "components": [asdict(c) for c in m.components],
        "penalty": [float(b) for b in m.penalty],
        "diagnostics": diag,
        "seed": doc.seed,
        "timestamp": doc.timestamp,
    }
    return canonical_json(payload) + "\n"


def parse_model(text: str) -> ModelDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("model document must be a JSON object")
    try:
        version = _json_int(payload["format_version"], "format_version")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {version}")
        timestamp = payload.get("timestamp")
        if timestamp is not None and not isinstance(timestamp, str):
            raise DataError(f"timestamp must be a JSON string or null, got {timestamp!r}")
        family = Family(payload["family"])
        comp_type = COMPONENT_TYPES[family]
        names = [f.name for f in fields(comp_type)]
        comps = tuple(comp_type(*(float(c[name]) for name in names)) for c in payload["components"])
        diag = None
        if payload.get("diagnostics") is not None:
            d = payload["diagnostics"]
            if not isinstance(d["converged"], bool):
                raise DataError(f"converged must be a JSON boolean, got {d['converged']!r}")
            diag = FitDiagnostics(
                penalized_loglik=float(d["penalized_loglik"]),
                iterations=_json_int(d["iterations"], "iterations"),
                converged=d["converged"],
            )
        model = MixtureModel(
            family=family,
            pi=np.array(payload["pi"], dtype=float),
            components=comps,
            null_mode=NullMode(payload["null_mode"]),
            penalty=np.array(payload["penalty"], dtype=float),
            diagnostics=diag,
        )
        if payload["n_components"] != model.n_components:
            raise DataError("n_components disagrees with the component list")
        return ModelDocument(
            model=model,
            seed=_json_int(payload["seed"], "seed"),
            timestamp=timestamp,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def write_model(doc: ModelDocument, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(doc))


def read_model(path) -> ModelDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())
