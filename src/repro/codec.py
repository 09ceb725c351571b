"""The one codec for every document: specs, result payloads and metrics.

:func:`encode` turns a value into plain JSON data; :func:`decode` rebuilds
a dataclass from its document, each field as its annotation says.  Spec
documents (``SpecBase.to_dict``/``from_dict``), result payloads
(:func:`repro.experiments.results_io.result_document`) and the metrics
types all go through these two functions, so a field rule lives in one
place.  The rules, by the value's type:

* NumPy arrays and scalars become lists and Python numbers (``tolist()``;
  its output is taken as it is).  NumPy is recognised by module name, never
  imported here.
* An enum becomes its value.
* A dataclass becomes its fields by name; a :class:`Tagged` one also
  carries its ``kind``.  Field metadata can leave a field out:
  :data:`PROVENANCE` (a result's originating spec, which the document
  carries beside the payload) and :data:`OMIT_DEFAULT` (a field added after
  documents were stored, left out at its default so their bytes and cache
  keys stay put).
* A dict becomes a dict with string keys; a list or tuple a list.
* A float ``±inf`` becomes the string ``"Infinity"``/``"-Infinity"`` (strict
  JSON); :func:`decode` turns it back where the annotation says ``float``
  and in untyped ``dict`` and ``tuple`` entries.
* Anything else is taken as it is.

This module imports only the standard library and :mod:`repro.errors`, so
any layer may use it without loading an engine.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import math
import operator
import sys
import types
import typing
from typing import Any, Callable, ClassVar, NamedTuple, TypeVar

from .errors import DocumentError

__all__ = [
    "encode",
    "decode",
    "Tagged",
    "PROVENANCE",
    "OMIT_DEFAULT",
    "lazy_annotations",
]

_T = TypeVar("_T")
_Decoder = Callable[[Any], Any]

#: Field metadata: the field holds the document's provenance (a result's
#: spec), which the document writes beside the payload.  The payload keeps
#: the field only when it is ``None``, as ``null``.
PROVENANCE = {"codec": "provenance"}

#: Field metadata: the field is left out of its document while it holds its
#: default (compared by identity), so documents from before the field
#: existed keep their bytes and their cache keys.
OMIT_DEFAULT = {"codec": "omit_default"}


class Tagged:
    """A dataclass whose documents carry a ``kind`` tag.

    A union of tagged classes in an annotation decodes by the tag; an
    untagged document takes the union's first class.
    """

    kind: ClassVar[str] = ""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON data."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _ENCODERS[type(value)] = _encoder_for(type(value))
    return encoder(value)


#: Each type's encoder, built on first use (a plain dict: a lookup here is
#: cheaper than a call through ``functools.cache``, on every encoded value).
_ENCODERS: dict[type, Callable[[Any], Any]] = {}

_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _encoder_for(cls: type) -> Callable[[Any], Any]:
    """How :func:`encode` converts values of type ``cls``.  Precedence:
    NumPy, enum, dataclass, dict, list/tuple, float, and anything else as
    it is."""
    if cls.__module__.partition(".")[0] == "numpy" and hasattr(cls, "tolist"):
        return operator.methodcaller("tolist")
    if issubclass(cls, enum.Enum):
        return operator.attrgetter("value")
    if dataclasses.is_dataclass(cls):
        return _fields_encoder(cls)
    if issubclass(cls, dict):
        return lambda value: {str(k): encode(v) for k, v in value.items()}
    if issubclass(cls, (list, tuple)):
        return lambda value: [encode(v) for v in value]
    if issubclass(cls, float):
        return _encode_float
    return _as_is


def _as_is(value: Any) -> Any:
    return value


def _encode_float(value: float) -> float | str:
    return _INFINITIES[value] if math.isinf(value) else value


def _fields_encoder(cls: type) -> Callable[[Any], dict]:
    """A dataclass's encoder: ``kind`` if tagged, then its fields by name,
    less those its field metadata leaves out."""
    tag = {"kind": cls.kind} if issubclass(cls, Tagged) else {}
    fields = dataclasses.fields(cls)
    if not any("codec" in f.metadata for f in fields):
        # one comprehension: spec documents are encoded on every cache-key
        # derivation, which the store's read path does once per hit
        names = tuple(f.name for f in fields)
        if not tag:
            return lambda value: {name: encode(getattr(value, name)) for name in names}
        return lambda value: {**tag, **{name: encode(getattr(value, name))
                                        for name in names}}
    rules = tuple((f.name, f.metadata.get("codec"), f.default) for f in fields)

    def encode_fields(value: Any) -> dict:
        document = dict(tag)
        for name, rule, default in rules:
            item = getattr(value, name)
            if (rule == "provenance" and item is not None
                    or rule == "omit_default" and item is default):
                continue
            document[name] = encode(item)
        return document
    return encode_fields


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def decode(cls: type[_T], data: Any) -> _T:
    """Build the dataclass ``cls`` from its document.

    Each field's annotation says how its value decodes: a scalar, an enum,
    a nested dataclass, ``X | None``, ``tuple[X, ...]``, ``dict`` or
    ``dict[str, X]``, ``int | SomeDataclass`` (objects decode, scalars pass),
    or a union of :class:`Tagged` classes picked by the ``kind`` tag.  An
    absent field takes its default; an unknown field, a missing required
    one, or a ``null`` where the default is neither ``None`` nor built by a
    factory raises :class:`~repro.errors.DocumentError`.
    """
    if not isinstance(data, dict):
        raise DocumentError(f"a {cls.__name__} document must be a JSON object, "
                            f"got {type(data).__name__}")
    plan = _plan(cls)
    unknown = data.keys() - plan.accepted
    if unknown:
        raise DocumentError(
            f"unknown {cls.__name__} field(s) in its document: {sorted(unknown)}; "
            f"known fields: {sorted(plan.fields)}")
    missing = plan.required - data.keys()
    if missing:
        raise DocumentError(
            f"{cls.__name__} document lacks required field(s) {sorted(missing)}")
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        entry = plan.fields.get(name)
        if entry is None:  # the kind tag
            continue
        decoder, nullable = entry
        if value is None:
            if nullable:
                continue
            raise DocumentError(
                f"{cls.__name__} field {name!r} cannot be null; omit it to "
                "take the default")
        kwargs[name] = value if decoder is None else decoder(value)
    return cls(**kwargs)


#: Class name -> defining module, for classes that annotations name but
#: their modules import only for type checking (see :func:`lazy_annotations`).
_LAZY: dict[str, str] = {}

#: Annotations whose JSON values decode as they are.
_SCALARS = (str, int, bool)

_FLOAT_WORDS = {"Infinity": math.inf, "-Infinity": -math.inf}


def lazy_annotations(**homes: str) -> None:
    """Let annotations name classes their modules import only for type
    checking: ``homes`` maps each class name to its defining module, which
    the decoder imports when it first decodes such a value."""
    _LAZY.update(homes)


class _Deferred:
    """Stands in for a lazily imported class while hints resolve."""

    module: ClassVar[str] = ""


class _Plan(NamedTuple):
    """How to decode one dataclass: field name -> (decoder or None to take
    the value as is, whether null takes the default), accepted keys and
    required fields."""

    fields: dict[str, tuple[_Decoder | None, bool]]
    accepted: frozenset[str]
    required: frozenset[str]


@functools.cache
def _plan(cls: type) -> _Plan:
    """Resolve ``cls``'s field annotations into decoders, once per class."""
    module = vars(sys.modules[cls.__module__])
    deferred = {name: type(name, (_Deferred,), {"module": home})
                for name, home in _LAZY.items() if name not in module}
    try:
        hints = typing.get_type_hints(cls, localns=deferred)
    except NameError as exc:
        raise DocumentError(
            f"cannot resolve the field annotations of {cls.__name__}: {exc}") from None
    fields: dict[str, tuple[_Decoder | None, bool]] = {}
    required: set[str] = set()
    for f in dataclasses.fields(cls):
        has_factory = f.default_factory is not dataclasses.MISSING
        if f.default is dataclasses.MISSING and not has_factory:
            required.add(f.name)
        # null means "the default" only for None defaults and factory-built
        # containers/configs, so e.g. a null seed cannot reach an engine
        fields[f.name] = (_decoder(hints[f.name], f"{cls.__name__}.{f.name}"),
                          f.default is None or has_factory)
    tag = {"kind"} if issubclass(cls, Tagged) else set()
    return _Plan(fields, frozenset(fields.keys() | tag), frozenset(required))


def _decoder(tp: Any, where: str) -> _Decoder | None:
    """How to decode a value annotated ``tp`` (``None``: take it as is)."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if tp in _SCALARS:
        return None
    if tp is float:
        return _decode_float
    # an untyped entry decodes as a float would: "Infinity" and
    # "-Infinity" are the infinities encode wrote, anything else stays
    if origin is dict:
        entry = _decoder(args[1], f"{where} values") if args else _decode_float
        return lambda value: {k: v if entry is None else entry(v)
                              for k, v in _expect(value, dict, where).items()}
    if origin is tuple and (not args or args[1:] == (Ellipsis,)):
        item = _decoder(args[0], f"{where} entries") if args else _decode_float
        return lambda value: tuple(
            v if item is None else item(v) for v in _expect(value, (list, tuple), where))
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return _decoder(members[0], where)
        if all(isinstance(m, type) and issubclass(m, Tagged) for m in members):
            return _kind_decoder(tuple(members), where)
        structured = [m for m in members if m not in _SCALARS and m is not float]
        nested = _decoder(structured[0], where) if len(structured) == 1 else None
        if nested is not None:  # e.g. ``int | QueueSpec``: objects decode
            decode_object: _Decoder = nested
            return lambda value: decode_object(value) if isinstance(value, dict) else value
    elif origin is tp and isinstance(tp, type):
        if issubclass(tp, _Deferred):
            return _deferred_decoder(tp, where)
        if issubclass(tp, enum.Enum):
            return _enum_decoder(tp, where)
        if issubclass(tp, Tagged):
            return _kind_decoder((tp,), where)
        if dataclasses.is_dataclass(tp):
            return functools.partial(decode, tp)
    raise DocumentError(
        f"{where}: the codec has no rule for the annotation {tp!r}; use a "
        "scalar, an enum, a dataclass, dict, dict[str, X], tuple[X, ...], "
        "X | None or a union of tagged classes")


def _decode_float(value: Any) -> Any:
    return _FLOAT_WORDS.get(value, value) if isinstance(value, str) else value


def _expect(value: Any, types_: type | tuple[type, ...], where: str) -> Any:
    if not isinstance(value, types_):
        raise DocumentError(f"{where} cannot take a {type(value).__name__}")
    return value


def _enum_decoder(tp: type[enum.Enum], where: str) -> _Decoder:
    def decode_member(value: Any) -> enum.Enum:
        try:
            return tp(value)
        except ValueError:
            raise DocumentError(
                f"unknown {where} {value!r}; known: {[m.value for m in tp]}") from None
    return decode_member


def _kind_decoder(classes: tuple[type[Tagged], ...], where: str) -> _Decoder:
    """Pick the class by ``kind`` tag; untagged documents take the first."""
    by_kind = {c.kind: c for c in classes}

    def decode_tagged(value: Any) -> Tagged:
        tag = _expect(value, dict, where).get("kind", classes[0].kind)
        if tag not in by_kind:
            raise DocumentError(
                f"{where} must be one of {sorted(by_kind)}, got kind {tag!r}")
        return decode(by_kind[tag], value)
    return decode_tagged


def _deferred_decoder(placeholder: type[_Deferred], where: str) -> _Decoder:
    """Import a lazily annotated class when its first value is decoded."""
    @functools.cache
    def resolve() -> _Decoder:
        module = importlib.import_module(placeholder.module)
        return _decoder(getattr(module, placeholder.__name__), where) or (lambda v: v)
    return lambda value: resolve()(value)
