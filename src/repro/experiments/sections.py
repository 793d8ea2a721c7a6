"""Spec v2: the uniform, serializable section protocol.

Every section of a declarative scenario — cluster, workload, latency,
monitoring, faults, transfers, and the :class:`~repro.experiments.spec.
ScenarioSpec` root itself — is a frozen dataclass inheriting
:class:`SpecSection`, which gives all of them the same five-method protocol:

* :meth:`SpecSection.to_dict` — recursive, JSON-serialisable plain-dict form
  (nested sections become dicts, tuples become lists);
* :meth:`SpecSection.from_dict` — the exact inverse, rejecting unknown keys
  so a typo in a spec file fails loudly instead of silently running the
  defaults (it also accepts the positional shorthand for nested sections,
  which ``to_dict`` never emits);
* :meth:`SpecSection.flatten` — the section's sweepable parameters as one
  flat dotted-path dict (``cluster.n``, ``workload.keys.zipf_s``,
  ``monitoring.policy.threshold``), shared by the sweep engine, the registry
  and the CLI instead of per-section flattening plumbing;
* :meth:`SpecSection.validate` — recursive semantic validation (kind names,
  ranges, cross-field consistency) without building anything;
* ``build(...)`` — section-specific: construct the runtime objects the
  section describes (a latency model, a cluster, a monitoring harness).

A section types its own fields when it is constructed, so a value has one
in-memory shape whichever door it came through — the constructor,
``dataclasses.replace`` / ``with_overrides`` or ``from_dict`` — and no reader
coerces (see :class:`SpecSection`).

Because the protocol is uniform, composition is free: a section nests other
sections to arbitrary depth and serialization / flattening / validation
recurse without any section-specific code.  :func:`unflatten` is the inverse
of the dotted-path flattener on plain dicts, so a flat override map can be
turned back into the nested ``from_dict`` form.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type, TypeVar

from repro.errors import ConfigurationError

__all__ = ["SpecSection", "unflatten"]

S = TypeVar("S", bound="SpecSection")

# One field's annotation, evaluated on first use.  typing.get_type_hints
# evaluates a whole class (100-400 us for a dozen string annotations), and a
# cold ``run quickstart`` needs about one field each of six classes.
_HINTS: Dict[Tuple[type, str], Any] = {}


def _field_hint(cls: type, name: str) -> Any:
    hint = _HINTS.get((cls, name))
    if hint is None:
        for owner in cls.__mro__:
            hint = vars(owner).get("__annotations__", {}).get(name)
            if hint is not None:
                break
        if isinstance(hint, str):  # ``from __future__ import annotations``
            hint = eval(hint, vars(sys.modules[owner.__module__]))
        _HINTS[cls, name] = hint
    return hint


def _deep_tuple(value: Any) -> Any:
    """Lists arriving from JSON become the tuples the frozen specs store."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(item) for item in value)
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, SpecSection):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _shorthand(section: Type[S]) -> str:
    """A section's positional input form: ``(at, source, target, delta[, shard])``."""
    tail = ""
    for field in reversed(dataclasses.fields(section)):
        if (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            tail = f", {field.name}{tail}"
        else:
            tail = f"[, {field.name}{tail}]"
    return f"({tail})".replace("(, ", "(").replace("([, ", "([")


def _section_from(section: Type[S], value: Any, path: str) -> S:
    """Build a nested section from a dict (by name) or a sequence (positional).

    ``path`` locates the value inside the section being constructed; an
    error from further down keeps its own location, prefixed with this one.
    """
    if isinstance(value, section):
        return value
    cause = None
    try:
        if isinstance(value, Mapping):
            return section.from_dict(value)
        if isinstance(value, (list, tuple)):
            return section(*value)
    except ConfigurationError as error:
        error.path = f"{path}.{error.path}" if error.path else path
        raise
    except TypeError as error:  # too few or too many positional values
        cause = error
    raise ConfigurationError(
        f"{path}: cannot build {section.__name__} from {value!r}; expected a "
        f"mapping or {_shorthand(section)}",
        path=path,
    ) from cause


def _coerce(hint: Any, value: Any, path: str) -> Any:
    """Convert one input-shaped field value into its declared spec type."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        if value is None:
            return None
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        hint = args[0]
        origin = typing.get_origin(hint)
    if isinstance(hint, type) and issubclass(hint, SpecSection):
        return _section_from(hint, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{path}: expected a list, got {value!r}", path=path
            )
        args = typing.get_args(hint)
        element = args[0] if len(args) == 2 and args[1] is Ellipsis else None
        if (
            isinstance(element, type)
            and issubclass(element, SpecSection)
        ):
            return tuple(
                _section_from(element, item, f"{path}[{index}]")
                for index, item in enumerate(value)
            )
        return _deep_tuple(value)
    return _deep_tuple(value) if isinstance(value, list) else value


# Scalar types.  __post_init__ passes a scalar in a scalar field, an empty
# tuple and a section instance by without looking at the field's annotation,
# so the all-default instances built while ``spec.py`` is imported evaluate
# none.
_ATOMS = frozenset({type(None), bool, int, float, str})


class SpecSection:
    """Mixin giving every (frozen dataclass) spec section one uniform protocol.

    **Invariant: after construction through any door, every field holds
    exactly its declared type.**  A section types its own fields when it is
    constructed (:meth:`__post_init__`), so the constructor,
    :func:`dataclasses.replace` (and with it ``with_overrides``) and
    :meth:`from_dict` yield the same value from the same input: equal,
    hashable, and equal again after a trip through :meth:`to_dict`.  Readers
    never coerce.  The positional shorthand (``[5.0, "s1", "s2", 0.25]`` for
    a nested section) and lists are *input-only*: :meth:`to_dict` always
    emits the object form.  A value that cannot take its field's shape is
    rejected there and then, with the dotted ``path`` of the offending item
    (``transfers[0]``, ``faults.outages[1]``) on the error.

    Subclasses may declare:

    * ``_non_sweepable`` — field names excluded from :meth:`flatten` (e.g.
      the root spec's ``name``/``description``);
    * ``_aliases`` — legacy key spellings accepted by :meth:`from_dict` and
      dotted-path overrides (the ``failures`` → ``faults`` deprecation shim);
    * ``_validate()`` — per-section semantic checks, called by
      :meth:`validate` after the nested sections validated.
    """

    _non_sweepable: ClassVar[Tuple[str, ...]] = ()
    _aliases: ClassVar[Dict[str, str]] = {}

    def __post_init__(self) -> None:
        """Type every field: nested sections from dicts or sequences, tuples
        from lists — the one place a spec value's in-memory shape is decided."""
        cls = type(self)
        for name, value in vars(self).items():
            if type(value) in _ATOMS:
                # A scalar is at home where the field's default is one (or
                # there is none); in a tuple or section field it is a shape
                # error, which the typed path below words.
                if type(getattr(cls, name, None)) in _ATOMS:
                    continue
            elif isinstance(value, SpecSection) or value == ():
                continue
            # Replacing the value of an existing key is safe mid-iteration.
            object.__setattr__(
                self, name, _coerce(_field_hint(cls, name), value, name)
            )

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The section as a JSON-serialisable plain dict (recursive)."""
        return {
            field.name: _jsonable(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls: Type[S], data: Mapping[str, Any]) -> S:
        """The inverse of :meth:`to_dict`; unknown keys are rejected.

        Only the keys are checked here (unknown, aliased, duplicated); the
        values take their types in the constructor, like any other input.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} expects a mapping, got {data!r}"
            )
        field_names = {field.name for field in dataclasses.fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key in data:
            name = cls._aliases.get(key, key)
            if name not in field_names:
                raise ConfigurationError(
                    f"unknown key {key!r} for {cls.__name__} "
                    f"(known keys: {', '.join(sorted(field_names))})",
                    path=key,
                )
            if name in kwargs:
                # An alias and its canonical spelling (or a duplicate via
                # aliasing) must not silently overwrite each other.
                raise ConfigurationError(
                    f"duplicate key for {cls.__name__}.{name}: {key!r} "
                    "collides with an earlier spelling of the same section"
                )
            kwargs[name] = data[key]
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise ConfigurationError(
                f"cannot build {cls.__name__} from {dict(data)!r}: {error}"
            ) from error

    # -- sweepable parameters --------------------------------------------------
    def flatten(self, prefix: str = "") -> Dict[str, Any]:
        """The section's sweepable parameters as a flat dotted-path dict.

        Nested sections recurse to arbitrary depth; tuple-valued fields
        (transfers, phases, crashes) stay single leaves holding their typed
        values, exactly addressable by one override.
        """
        flat: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            if field.name in self._non_sweepable:
                continue
            value = getattr(self, field.name)
            key = f"{prefix}{field.name}"
            if isinstance(value, SpecSection):
                flat.update(value.flatten(f"{key}."))
            else:
                flat[key] = value
        return flat

    # -- validation ------------------------------------------------------------
    def validate(self: S, path: str = "") -> S:
        """Check semantic constraints recursively; returns ``self`` for chaining.

        ``path`` is the dotted location of this section within the root spec
        (empty at the root).  A :class:`ConfigurationError` raised anywhere
        below gets the innermost section's path attached as its ``path``
        attribute — unless the raiser already supplied a more precise one —
        so callers can render dotted-path errors without parsing messages.
        """
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            child = f"{path}{field.name}"
            if isinstance(value, SpecSection):
                value.validate(path=f"{child}.")
            elif isinstance(value, tuple):
                for index, item in enumerate(value):
                    if isinstance(item, SpecSection):
                        item.validate(path=f"{child}[{index}].")
        try:
            self._validate()
        except ConfigurationError as error:
            if error.path is None:
                error.path = path.rstrip(".") or None
            raise
        return self

    def _validate(self) -> None:
        """Per-section checks; the default accepts everything."""

    # -- construction -----------------------------------------------------------
    def build(self, *args: Any, **kwargs: Any) -> Any:
        """Construct the runtime object(s) this section describes."""
        raise NotImplementedError(
            f"{type(self).__name__} does not build a runtime object"
        )


def unflatten(flat: Mapping[str, Any]) -> Dict[str, Any]:
    """Turn a dotted-path dict back into the nested ``from_dict`` shape.

    The inverse of :meth:`SpecSection.flatten` on plain dicts:
    ``{"cluster.n": 5, "seed": 1}`` becomes ``{"cluster": {"n": 5},
    "seed": 1}``.  A path that descends through a leaf of another path
    (``a`` and ``a.b`` together) is rejected.
    """
    nested: Dict[str, Any] = {}
    for key in sorted(flat):
        parts = key.split(".")
        node = nested
        for depth, part in enumerate(parts[:-1]):
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigurationError(
                    f"path {key!r} descends into the leaf "
                    f"{'.'.join(parts[: depth + 1])!r}"
                )
            node = child
        leaf = parts[-1]
        if isinstance(node.get(leaf), dict) and node[leaf]:
            raise ConfigurationError(
                f"leaf {key!r} collides with nested keys under it"
            )
        node[leaf] = flat[key]
    return nested
