"""One versioned wire codec shared by every declarative request type.

Before PR 8, the request machinery lived in two places: content-key
normalization and hashing in :mod:`repro.harness.engine`, and the
``schema_version`` conventions (stamp on write, tolerate version-0
payloads, reject anything newer) duplicated across
``RunRequest.to_dict``/``from_dict`` and :mod:`repro.service.wire`.
Adding a second request type (:class:`~repro.fleet.request.FleetRequest`)
would have meant a third copy. This module is the single implementation
both request hierarchies use:

* :func:`canonical` / :func:`digest` — reduce any dataclass tree to a
  stable JSON form and hash it (the content-key primitive).
* :class:`VersionedCodec` — the write/read halves of the versioned wire
  schema: ``stamp`` adds ``schema_version``; ``open`` pops it back off,
  upgrading version-0 payloads (written before the field existed — the
  body is identical) transparently and rejecting payloads from a newer
  schema so wire or disk corruption fails loudly instead of silently
  simulating the wrong thing.
* :func:`checked_fields` — strict unknown-field rejection for nested
  dataclass bodies.
* :func:`content_key` — the shared key derivation: schema tag plus
  provenance fingerprints plus the canonicalized request body, hashed
  (:func:`canonical_content_key` when the body is already canonical).
* :data:`RETIRED_FIELDS` — wire fields dropped from the request types
  but still accepted, and ignored, for one schema version.

The codec knows nothing about any specific request type; each type owns
its field list and normalization rules and delegates the mechanics here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple


#: Request wire fields that no longer exist but are still accepted for
#: one schema version, each with the only values it may carry. A codec
#: that lists a field here validates and drops it; any other value is
#: still rejected. Drop an entry at the next schema version bump.
RETIRED_FIELDS: Dict[str, Tuple[Any, ...]] = {
    # Chose between two replay loops; the packed trace now has one.
    "kernel": (None, "scalar", "vectorized", "auto"),
}


def canonical(value: Any) -> Any:
    """Reduce a request component to a stable, JSON-serializable form.

    Dataclasses are tagged with their class name so two different types
    with coincidentally equal fields cannot collide.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def digest(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``payload``."""
    return _tree_digest(canonical(payload))


def _tree_digest(tree: Any) -> str:
    """:func:`digest` of a tree that is already canonical (no re-walk)."""
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_key(
    body: Any,
    *,
    schema: int,
    fingerprints: Mapping[str, str],
) -> str:
    """The shared content-key derivation.

    ``schema`` retires old artifacts when the payload shape changes;
    ``fingerprints`` fold in provenance (source tree, cost model) so a
    key can never answer from a different model of the system; ``body``
    is the normalized request itself.
    """
    return canonical_content_key(
        canonical(body), schema=schema, fingerprints=fingerprints
    )


def canonical_content_key(
    tree: Any,
    *,
    schema: int,
    fingerprints: Mapping[str, str],
) -> str:
    """:func:`content_key` of a body already in :func:`canonical` form.

    ``canonical`` is idempotent, so the key is byte-identical to
    ``content_key(tree, ...)``; a caller that had to canonicalize the
    body anyway (to edit it) pays one walk instead of three.
    """
    payload: Dict[str, Any] = {"schema": schema}
    payload.update(sorted(fingerprints.items()))
    payload["request"] = tree
    return _tree_digest(payload)


def checked_fields(cls: type, data: Any, label: str) -> Dict[str, Any]:
    """A copy of ``data`` verified to hold only ``cls`` field names."""
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be an object, got {data!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {label} fields: {sorted(unknown)}")
    return dict(data)


@dataclass(frozen=True)
class VersionedCodec:
    """Stamp/validate one wire schema's ``schema_version`` field.

    One instance per wire type (``RunRequest``, ``FleetRequest``,
    ``FleetResult``, ...): ``label`` names the type in error messages,
    ``version`` is the writer's current schema version, and ``retired``
    names the :data:`RETIRED_FIELDS` its readers still tolerate.
    """

    label: str
    version: int
    retired: Tuple[str, ...] = ()

    def stamp(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """The versioned wire form: ``schema_version`` plus the body."""
        return {"schema_version": self.version, **body}

    def open(self, data: Any) -> Dict[str, Any]:
        """Validate and unwrap a wire payload; returns a mutable copy
        of the body with ``schema_version`` popped off.

        Tolerates version-0 payloads (no ``schema_version`` field — the
        body is identical); rejects payloads from a newer schema.
        """
        if not isinstance(data, dict):
            raise ValueError(f"{self.label} payload must be an object")
        body = dict(data)
        version = body.pop("schema_version", 0)
        if not isinstance(version, int) or version > self.version:
            raise ValueError(
                f"{self.label} schema_version {version!r} is newer than "
                f"this reader understands ({self.version})"
            )
        return body

    def open_into(self, cls: type, data: Any) -> Dict[str, Any]:
        """:meth:`open` plus strict unknown-field rejection for ``cls``.

        Retired fields are checked against their allowed values and
        dropped before the unknown-field check.
        """
        body = self.open(data)
        for name in self.retired:
            if name in body:
                value = body.pop(name)
                allowed = RETIRED_FIELDS[name]
                if value not in allowed:
                    raise ValueError(
                        f"retired {self.label} field {name!r} must be one "
                        f"of {list(allowed)}, got {value!r}"
                    )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(body) - known
        if unknown:
            raise ValueError(
                f"unknown {self.label} fields: {sorted(unknown)}"
            )
        return body
