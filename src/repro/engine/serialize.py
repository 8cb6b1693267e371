"""JSON-safe encoding of the engine's dataclasses and enums.

The service layer moves job specifications and simulation results over
HTTP, so everything crossing that boundary must round-trip through plain
JSON — no pickles of simulator objects on the wire.  This module provides
one tagged encoding shared by every such type:

- dataclasses  -> ``{"$dc": "ClassName", "fields": {...}}``
- enums        -> ``{"$enum": "ClassName", "value": <enum value>}``
- tuples       -> ``{"$tuple": [...]}`` (distinguished from lists so frozen
  dataclass fields rebuild hashable)
- dicts        -> ``{"$map": [[key, value], ...]}`` (keys need not be
  strings, and plain payload dicts can never collide with the tags)
- lists of a column-wise class -> ``{"$cols": "ClassName", "fields":
  {name: [value, ...]}}``: one column per field, enums as their values.
  A result carries thousands of epoch records, and one tagged dict per
  record (holding two tagged enums) made them the bulk of every wire
  payload.  Records in the per-record ``$dc`` form still decode, so
  payloads stored before the columns existed stay readable.

Only *registered* classes decode: :func:`register` maps a class name to its
type, and every module that defines a wire-visible dataclass registers it at
import time.  Those modules are listed in ``_WIRE_MODULES``; a lookup that
misses imports them once, so a payload decodes in a process that has not
imported its types' modules yet.  Decoding an unregistered name raises
:class:`SerializeError` with the offending tag — a loud failure beats
silently instantiating the wrong thing from untrusted input.

The encoding is pure data: ``json.dumps(to_jsonable(x))`` always succeeds
for registered types, and ``from_jsonable(json.loads(s))`` rebuilds equal
objects (floats round-trip exactly through ``repr``-based JSON).
"""

from __future__ import annotations

import enum
import functools
import importlib
import typing
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Tuple, Type

__all__ = [
    "PROTOCOL_VERSION",
    "SerializeError",
    "from_jsonable",
    "register",
    "to_jsonable",
]

#: Wire protocol version.  Every request and response envelope of the
#: service carries it as ``"v"``; a request naming a different version is
#: answered with a structured 400 instead of being misinterpreted.  Version
#: 2 encodes epoch record lists column-wise (``$cols``, below), which a
#: version-1 client cannot decode; the request format is unchanged, so a
#: request without ``"v"`` (curl, the pre-versioning form) is accepted.
#: Version 3 dropped the checkpoint fields of job specs and results;
#: version 4 dropped the design-space search job kind and its request
#: field (an exhaustive ``sweep`` covers that space); version 5 dropped
#: the probe-identity fields of shard plans.  It lives with the encoding
#: it versions (:mod:`repro.service.protocol` re-exports it).
PROTOCOL_VERSION = 5


class SerializeError(TypeError):
    """An object cannot be encoded, or a payload cannot be decoded."""


_DATACLASSES: Dict[str, Type[Any]] = {}
_ENUMS: Dict[str, Type[enum.Enum]] = {}
#: Dataclasses whose lists encode as ``$cols``: name -> (class, one
#: ``(field name, field type)`` pair per field, in field order).
_COLUMNAR: Dict[str, Tuple[type, Tuple[Tuple[str, type], ...]]] = {}
#: Field types a column may hold: JSON scalars, or enums as their values.
_SCALARS = (bool, int, float, str)

#: The modules that register wire-visible types when imported.  Package
#: exports are lazy, so a process can receive a payload naming a type
#: whose module it has not imported; the first lookup that misses imports
#: these, then looks again.
_WIRE_MODULES = (
    "..engine.runner",
    "..estimate",
    "..harness.experiment",
    "..harness.sweeps",
    "..service.protocol",
    "..shard.plan",
    "..smt.results",
)
_wire_modules_loaded = False


def register(*types: type) -> None:
    """Make *types* (dataclasses or enums) decodable by name.

    Registration is idempotent; re-registering the same class is a no-op,
    but two distinct classes sharing a name is a bug and raises.
    """
    for cls in types:
        table: Dict[str, type]
        if isinstance(cls, type) and issubclass(cls, enum.Enum):
            table = _ENUMS
        elif is_dataclass(cls) and isinstance(cls, type):
            table = _DATACLASSES
        else:
            raise SerializeError(
                f"can only register dataclasses and enums, got {cls!r}"
            )
        existing = table.get(cls.__name__)
        if existing is not None and existing is not cls:
            raise SerializeError(
                f"serialization name collision: {cls.__name__} already "
                f"registered as {existing!r}"
            )
        table[cls.__name__] = cls


def _register_columns(cls: type) -> None:
    """Encode lists of the dataclass *cls* column-wise (``$cols``)."""
    hints = typing.get_type_hints(cls)
    columns = tuple((name, hints[name]) for name in _field_names(cls))
    for name, kind in columns:
        if kind not in _SCALARS and not (
                isinstance(kind, type) and issubclass(kind, enum.Enum)):
            raise SerializeError(
                f"{cls.__name__}.{name}: a column holds scalars or enums, "
                f"not {kind!r}"
            )
    register(cls)
    _COLUMNAR[cls.__name__] = (cls, columns)


def _registered(table: Dict[str, Any], name: Any) -> Any:
    """The entry *table* holds for *name*, importing the wire modules
    once if it holds none yet."""
    global _wire_modules_loaded
    entry = table.get(name)
    if entry is None and not _wire_modules_loaded:
        for module in _WIRE_MODULES:
            importlib.import_module(module, __package__)
        _wire_modules_loaded = True
        entry = table.get(name)
    return entry


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass's field names, computed once per class."""
    return tuple(f.name for f in fields(cls))


def to_jsonable(obj: Any) -> Any:
    """Encode *obj* into JSON-compatible plain data (tagged form)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"$enum": type(obj).__name__, "value": obj.value}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "$dc": type(obj).__name__,
            "fields": {
                name: to_jsonable(getattr(obj, name))
                for name in _field_names(type(obj))
            },
        }
    if isinstance(obj, tuple):
        return {"$tuple": [to_jsonable(item) for item in obj]}
    if isinstance(obj, list):
        entry = _COLUMNAR.get(type(obj[0]).__name__) if obj else None
        if entry is not None and all(type(item) is entry[0] for item in obj):
            return _encode_columns(obj, *entry)
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {
            "$map": [
                [to_jsonable(key), to_jsonable(value)]
                for key, value in obj.items()
            ]
        }
    raise SerializeError(
        f"cannot JSON-encode {type(obj).__name__}: not a registered "
        f"dataclass, enum, or plain container"
    )


def from_jsonable(data: Any) -> Any:
    """Decode tagged plain data produced by :func:`to_jsonable`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [from_jsonable(item) for item in data]
    if isinstance(data, dict):
        if "$enum" in data:
            cls = _registered(_ENUMS, data["$enum"])
            if cls is None:
                raise SerializeError(
                    f"unknown enum type {data['$enum']!r} in payload"
                )
            return cls(data["value"])
        if "$dc" in data:
            cls = _registered(_DATACLASSES, data["$dc"])
            if cls is None:
                raise SerializeError(
                    f"unknown dataclass type {data['$dc']!r} in payload"
                )
            raw = data.get("fields", {})
            unknown = set(raw).difference(_field_names(cls))
            if unknown:
                raise SerializeError(
                    f"{data['$dc']} payload has unknown fields "
                    f"{sorted(unknown)}"
                )
            return cls(**{
                name: from_jsonable(value) for name, value in raw.items()
            })
        if "$cols" in data:
            return _decode_columns(data)
        if "$tuple" in data:
            return tuple(from_jsonable(item) for item in data["$tuple"])
        if "$map" in data:
            return {
                _hashable(from_jsonable(key)): from_jsonable(value)
                for key, value in data["$map"]
            }
        raise SerializeError(
            f"untagged dict in payload (keys {sorted(data)[:4]}); "
            f"dicts must be encoded as $map"
        )
    raise SerializeError(f"cannot decode {type(data).__name__}")


def _encode_columns(
    records: List[Any],
    cls: type,
    columns: Tuple[Tuple[str, type], ...],
) -> Dict[str, Any]:
    encoded: Dict[str, List[Any]] = {}
    for name, kind in columns:
        values = [getattr(record, name) for record in records]
        if not all(type(value) is kind for value in values):
            raise SerializeError(
                f"{cls.__name__}.{name} holds a value that is not "
                f"{kind.__name__}"
            )
        if kind not in _SCALARS:
            values = [value.value for value in values]
        encoded[name] = values
    return {"$cols": cls.__name__, "fields": encoded}


def _decode_columns(data: Dict[str, Any]) -> List[Any]:
    name = data["$cols"]
    entry = _registered(_COLUMNAR, name) if isinstance(name, str) else None
    if entry is None:
        raise SerializeError(f"unknown column type {name!r} in payload")
    cls, columns = entry
    raw = data.get("fields")
    if not isinstance(raw, dict):
        raise SerializeError(f"{name} columns must be an object")
    expected = [field for field, _ in columns]
    if set(raw) != set(expected):
        raise SerializeError(
            f"{name} columns: missing {sorted(set(expected) - set(raw))}, "
            f"unknown {sorted(set(raw) - set(expected))}"
        )
    decoded = []
    for field, kind in columns:
        values = raw[field]
        if not isinstance(values, list):
            raise SerializeError(f"{name}.{field} column is not a list")
        if decoded and len(values) != len(decoded[0]):
            raise SerializeError(
                f"{name} columns are ragged: {field} has {len(values)} "
                f"values, {expected[0]} has {len(decoded[0])}"
            )
        if kind in _SCALARS:
            if not all(type(value) is kind for value in values):
                raise SerializeError(
                    f"{name}.{field} column holds a value that is not "
                    f"{kind.__name__}"
                )
        else:
            members = {member.value: member for member in kind}
            try:
                values = [members[value] for value in values]
            except (KeyError, TypeError) as exc:
                raise SerializeError(
                    f"{name}.{field} column holds a value that is not a "
                    f"{kind.__name__}: {exc}"
                ) from None
        decoded.append(values)
    return [cls(*row) for row in zip(*decoded)]


def _hashable(key: Any) -> Any:
    try:
        hash(key)
    except TypeError:
        raise SerializeError(
            f"decoded map key {key!r} is not hashable"
        ) from None
    return key


def _register_builtin_types() -> None:
    # The config/enums every JobSpec and SimulationResult payload touches.
    # Harness-level types (ExperimentSettings, SweepSpec, ...) register
    # themselves at import to keep this module free of import cycles.
    from ..config import (
        BranchPredictorConfig,
        CacheConfig,
        ConsistencyModel,
        CoreConfig,
        MemoryConfig,
        ScoutMode,
        SimulationConfig,
        SmacConfig,
        StorePrefetchMode,
        SystemConfig,
    )
    from ..core.epoch import EpochRecord, TerminationCondition, TriggerKind
    from ..core.results import SimulationResult

    register(
        ConsistencyModel, StorePrefetchMode, ScoutMode,
        TriggerKind, TerminationCondition,
        CacheConfig, SmacConfig, BranchPredictorConfig, MemoryConfig,
        CoreConfig, SystemConfig, SimulationConfig,
        SimulationResult,
    )
    _register_columns(EpochRecord)


_register_builtin_types()
