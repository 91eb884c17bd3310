"""On-disk formats: the model file (canonical JSON, format_version 1) and the CSV inputs.

Canonical means sorted keys, compact separators and floats printed with
17 significant digits, so identical models serialize to identical bytes
and every float round-trips exactly.

Each component is written as the record of its dataclass fields:
``{"mean", "var"}`` for a normal component and ``{"kappa", "mean"}``
for a beta component, where kappa = 1/(alpha + beta) and kappa = 0 is
the point mass that shape parameters cannot express.  Beta records in
the older ``{"alpha", "beta"}`` form are still read, as the same
component (`BetaComponent.from_shapes`).

The CSV inputs are read by `read_csv`, one row per record under a
header row that is matched case-insensitively:

* case files, ``id,z[,s2]`` (normal; a blank or missing s2 is 1) or
  ``id,H,N`` (binomial), read by `cli.read_cases`;
* season files, ``player_id,is_pitcher,H1,N1,H2,N2`` with H2 and N2
  blank for a player who has no second half, read by
  `baseball.load_baseball_csv`.

A UTF-8 byte order mark is skipped, and so are blank and
whitespace-only rows.  An empty file, a wrong header or a bad row is a
`DataError` that names the file, and for a row its line number.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ContractError, DataError
from .families import OBSERVATIONS, BetaComponent, Family
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


def _json_number(value, name: str) -> float:
    # a JSON string or boolean is no number, though float() would read "2.0" and true
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _json_numbers(values, name: str) -> np.ndarray:
    if not isinstance(values, list):
        raise DataError(f"{name} must be a JSON array of numbers, got {values!r}")
    return np.array([_json_number(v, name) for v in values], dtype=float)


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
        comp_type = OBSERVATIONS[family].component
        names = [f.name for f in fields(comp_type)]
        comps = tuple(
            BetaComponent.from_shapes(_json_number(c["alpha"], "alpha"), _json_number(c["beta"], "beta"))
            if comp_type is BetaComponent and "alpha" in c  # the record written before (mean, kappa)
            else comp_type(*(_json_number(c[name], name) for name in names))
            for c in payload["components"]
        )
        diag = None
        if payload.get("diagnostics") is not None:
            d = payload["diagnostics"]
            if not isinstance(d["converged"], bool):
                raise DataError(f"converged must be a JSON boolean, got {d['converged']!r}")
            diag = FitDiagnostics(
                penalized_loglik=_json_number(d["penalized_loglik"], "penalized_loglik"),
                iterations=_json_int(d["iterations"], "iterations"),
                converged=d["converged"],
            )
        model = MixtureModel(
            pi=_json_numbers(payload["pi"], "pi"),
            components=comps,
            null_mode=NullMode(payload["null_mode"]),
            penalty=_json_numbers(payload["penalty"], "penalty"),
            diagnostics=diag,
        )
        if _json_int(payload["n_components"], "n_components") != model.n_components:
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


def read_csv(path, headers, shown: str, parse) -> list:
    """``parse(row, n_cols)`` of each data row of the CSV file at ``path``, in file order.

    The header, stripped and lowercased, must be one of the column lists
    ``headers``; ``shown`` is how an error message names them.  A
    ValueError from ``parse``, a ContractError among them, becomes a
    DataError that names the row's line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        cols = [c.strip().lower() for c in header]
        if cols not in headers:
            raise DataError(f"{path}: expected header {shown}, got {','.join(header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append(parse(row, len(cols)))
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from exc
    return rows
