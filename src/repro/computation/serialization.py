"""Saving and loading computations (traces) as JSON.

A reproduction package is only useful downstream if traces can leave the
process: recorded executions need to be archived, shipped to the offline
analyser, and replayed in tests.  This module defines a small, stable JSON
format for :class:`~repro.computation.trace.Computation` objects:

```json
{
  "format": "repro-trace",
  "version": 1,
  "events": [
    {"thread": "T2", "object": "O1", "label": "write", "is_write": true},
    ...
  ]
}
```

Only the interleaving order and the per-event fields are stored; global
indices and chain positions are recomputed on load (they are derived data).
Thread and object identifiers must be JSON-representable (strings are
recommended; integers round-trip as well).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, TextIO, Union

from repro.computation.trace import Computation, ComputationBuilder
from repro.exceptions import ComputationError

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


def computation_to_dict(computation: Computation) -> Dict[str, Any]:
    """The JSON-ready dictionary representation of a computation."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "events": [
            {
                "thread": event.thread,
                "object": event.obj,
                "label": event.label,
                "is_write": event.is_write,
            }
            for event in computation
        ],
    }


def computation_from_dict(data: Dict[str, Any]) -> Computation:
    """Rebuild a computation from :func:`computation_to_dict` output.

    Raises :class:`ComputationError` on unknown formats/versions or
    malformed event records, so corrupted files fail loudly rather than
    producing a silently different computation.
    """
    if not isinstance(data, dict):
        raise ComputationError("trace document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise ComputationError(
            f"unexpected trace format: {data.get('format')!r} (expected {FORMAT_NAME!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ComputationError(
            f"unsupported trace version: {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    events = data.get("events")
    if not isinstance(events, list):
        raise ComputationError("trace document has no 'events' list")
    builder = ComputationBuilder()
    for position, record in enumerate(events):
        if not isinstance(record, dict) or "thread" not in record or "object" not in record:
            raise ComputationError(f"malformed event record at position {position}: {record!r}")
        builder.append(
            record["thread"],
            record["object"],
            label=record.get("label", ""),
            is_write=bool(record.get("is_write", True)),
        )
    return builder.build()


def dump_computation(computation: Computation, destination: Union[PathLike, TextIO]) -> None:
    """Write a computation to a path or an open text file as JSON."""
    document = computation_to_dict(computation)
    if hasattr(destination, "write"):
        json.dump(document, destination, indent=2)
        return
    Path(destination).write_text(json.dumps(document, indent=2) + "\n")


def load_computation(source: Union[PathLike, TextIO]) -> Computation:
    """Read a computation previously written by :func:`dump_computation`."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        try:
            data = json.loads(Path(source).read_text())
        except json.JSONDecodeError as error:
            raise ComputationError(f"trace file is not valid JSON: {error}") from error
    return computation_from_dict(data)


def dumps_computation(computation: Computation) -> str:
    """The JSON text of a computation (convenience wrapper)."""
    return json.dumps(computation_to_dict(computation), indent=2)


def loads_computation(text: str) -> Computation:
    """Parse a computation from JSON text (convenience wrapper)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ComputationError(f"trace text is not valid JSON: {error}") from error
    return computation_from_dict(data)
