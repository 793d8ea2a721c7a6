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
* :meth:`SpecSection.validate` — recursive admission without building
  anything: every field against its declaration (type, finite, the bound
  or names its section declares once in ``_bounds``), then the section's
  cross-field rules;
* ``build(...)`` — section-specific: construct the runtime objects the
  section describes (a latency model, a cluster, a monitoring harness).

A section types its own fields when it is constructed, so a value has one
in-memory shape whichever door it came through — the constructor,
``dataclasses.replace`` / ``with_overrides`` or ``from_dict`` — and no reader
coerces (see :class:`SpecSection`).  Scalars are admitted in one place,
:meth:`SpecSection.validate`, by one rule read from each field's annotation
and ``_bounds`` entry: no section writes a range check by hand.

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
from typing import Any, ClassVar, Collection, Dict, Mapping, Tuple, Type, TypeVar, Union

from repro.errors import ConfigurationError

__all__ = ["SpecSection", "unflatten"]

S = TypeVar("S", bound="SpecSection")

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


def _coerce(rule: Tuple[Any, ...], value: Any, path: str) -> Any:
    """Convert one input-shaped field value into its declared spec type."""
    _, shape, exact, _, _, _, entry = rule
    if value is None and type(None) in exact:
        return None
    if shape == _SECTION:
        return _section_from(entry, value, path)
    if exact[0] is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{path}: expected a list, got {value!r}", path=path
            )
        if shape == _SECTIONS:
            return tuple(
                _section_from(entry, item, f"{path}[{index}]")
                for index, item in enumerate(value)
            )
    return _deep_tuple(value)


# Scalar types.  __post_init__ passes a scalar in a scalar field, an empty
# tuple and a section instance by without looking at the field's annotation,
# so the all-default instances built while ``spec.py`` is imported evaluate
# none.
_ATOMS = frozenset({type(None), bool, int, float, str})


# ---------------------------------------------------------------------------
# Admission: one rule, read from each field's annotation and ``_bounds``
# ---------------------------------------------------------------------------

#: The numbers a field admits: ``(low, low_open, high, high_open, words)``.
#: A section's ``_bounds`` draws on the closed set below; a tuple field's
#: bound covers the numbers in its entries.  A string field's bound is
#: :data:`NON_EMPTY` or the collection of names it may take.
Bound = Tuple[float, bool, float, bool, str]
_INF = float("inf")
FINITE: Bound = (-_INF, True, _INF, True, "")
POSITIVE: Bound = (0, True, _INF, True, " > 0")
NON_NEGATIVE: Bound = (0, False, _INF, True, " >= 0")
UNIT: Bound = (0, False, 1, False, " within [0, 1]")
LEFT_OPEN_UNIT: Bound = (0, True, 1, False, " within (0, 1]")
NON_EMPTY = ("(non-empty)",)


def at_least(low: int) -> Bound:
    return (low, False, _INF, True, f" >= {low}")


# How validate() reads a field: a number or a string held to its bound, a
# bool, a nested section (or a tuple of them) that validates itself, or a
# tuple or mapping whose entries are checked against the declared entry type.
_NUMBER, _TEXT, _FLAG, _SECTION, _SECTIONS, _ITEMS = range(6)
_NUMERIC = {int: (int,), float: (int, float)}


def _admission(cls: type) -> Tuple[Tuple[Any, ...], ...]:
    """``cls``'s fields as ``(name, shape, exact types, wider types, bound,
    declared hint, entry type)``, read once from its annotations and
    ``_bounds``; the entry type is a tuple's element, a mapping's value, or
    the section itself."""
    fields = dataclasses.fields(cls)
    unknown = set(cls._bounds) - {field.name for field in fields}
    if unknown:
        raise TypeError(f"{cls.__name__}._bounds names no field: {sorted(unknown)}")
    rule = []
    for field in fields:
        # A string (``from __future__ import annotations``), read once per class.
        hint = declared = eval(field.type, vars(sys.modules[cls.__module__])) \
            if isinstance(field.type, str) else field.type
        null: Tuple[type, ...] = ()
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            hint, null = typing.get_args(hint)[0], (type(None),)
        origin, bound, wider = typing.get_origin(hint), cls._bounds.get(field.name), ()
        entry = hint
        if hint in _NUMERIC:
            shape, exact, bound = _NUMBER, _NUMERIC[hint], bound or FINITE
        elif hint in (str, bool):
            shape, exact = (_TEXT if hint is str else _FLAG), (hint,)
        elif isinstance(hint, type) and issubclass(hint, SpecSection):
            shape, exact, wider = _SECTION, (hint,), (hint,)
        elif origin in (dict, tuple):
            entry = typing.get_args(hint)[-1 if origin is dict else 0]
            sections = isinstance(entry, type) and issubclass(entry, SpecSection)
            shape = _SECTIONS if sections else _FLAG if entry is Any else _ITEMS
            exact, wider = (origin,), (Mapping if origin is dict else origin,)
            bound = bound or FINITE
        else:
            raise TypeError(f"{cls.__name__}.{field.name}: no rule for {hint!r}")
        rule.append((field.name, shape, exact + null, wider, bound, declared, entry))
    return tuple(rule)


class _Admissions(Dict[type, Tuple[Tuple[Any, ...], ...]]):
    def __missing__(self, cls: type) -> Tuple[Tuple[Any, ...], ...]:
        rule = self[cls] = _admission(cls)
        return rule


_ADMISSIONS = _Admissions()


def _words(hint: Any, bound: Any, named: bool = False) -> str:
    """What a value of ``hint`` within ``bound`` is, in words; ``named``: a
    string inside a tuple, which names something and is never empty."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return f"{_words(args[0], bound)} or null"
    if hint in _NUMERIC:
        return ("an integer" if hint is int else "a finite number") + bound[4]
    if hint is str:
        if named or bound is NON_EMPTY:
            return "a non-empty string"
        return f"one of {', '.join(bound)}" if bound else "a string"
    if origin is dict:
        return "a mapping"
    if not args:
        return "any value" if hint is Any else f"a {hint.__name__}"
    if origin is list or args[-1] is Ellipsis:
        return "a list" if args[0] is Any else f"a list, each {_words(args[0], bound, True)}"
    return f"[{', '.join(_words(arg, bound, True) for arg in args)}]"


def _fits(hint: Any, bound: Bound, value: Any) -> bool:
    """Whether one entry of a tuple (or mapping) field fits its declared type."""
    if hint in _NUMERIC:
        low, low_open, high, high_open, _ = bound
        return type(value) in _NUMERIC[hint] and (
            low < value if low_open else low <= value) and (
            value < high if high_open else value <= high)
    if hint in (str, bool):
        return type(value) is hint and value != ""
    if hint is Any:
        return True
    args = typing.get_args(hint)
    if type(value) not in (tuple, list):
        return False
    if args[-1] is Ellipsis or typing.get_origin(hint) is list:
        return all(_fits(args[0], bound, item) for item in value)
    return len(value) == len(args) and all(map(_fits, args, [bound] * len(args), value))


def _refused(path: str, hint: Any, bound: Any, value: Any,
             named: bool = False) -> ConfigurationError:
    return ConfigurationError(
        f"{path} must be {_words(hint, bound, named)}, got {value!r}", path=path
    )


class SpecSection:
    """Mixin giving every (frozen dataclass) spec section one uniform protocol.

    **Invariant: after construction through any door, every nested section
    and tuple field holds its declared shape; after :meth:`validate`, every
    field holds exactly its declared type, finite and within its bound.**
    A section types its own fields when it is constructed
    (:meth:`__post_init__`), so the constructor, :func:`dataclasses.replace`
    (and with it ``with_overrides``) and :meth:`from_dict` yield the same
    value from the same input: equal, hashable, and equal again after a trip
    through :meth:`to_dict`.  Readers never coerce.  The positional
    shorthand (``[5.0, "s1", "s2", 0.25]`` for a nested section) and lists
    are *input-only*: :meth:`to_dict` always emits the object form.  A value
    that cannot take its field's shape is rejected there and then, with the
    dotted ``path`` of the offending item (``transfers[0]``,
    ``faults.outages[1]``) on the error.  Scalars are not looked at on
    construction: a string in ``cluster.n`` (``-p cluster.n=abc``) is
    refused by :meth:`validate`, which ``plan()`` and ``run_spec`` run
    before anything is built.

    Subclasses may declare:

    * ``_bounds`` — each field's bound, once: a number field's from the
      closed set :data:`POSITIVE`, :data:`NON_NEGATIVE`, :func:`at_least`,
      :data:`UNIT`, :data:`LEFT_OPEN_UNIT` (none: any finite number); a
      string field's :data:`NON_EMPTY` or the names it may take (a kind);
    * ``_non_sweepable`` — field names excluded from :meth:`flatten` (e.g.
      the root spec's ``name``/``description``);
    * ``_validate(path)`` — the section's cross-field rules, called by
      :meth:`validate` once every field is admitted.
    """

    _bounds: ClassVar[Dict[str, Union[Bound, Collection[str]]]] = {}
    _non_sweepable: ClassVar[Tuple[str, ...]] = ()

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
            rule = next(rule for rule in _ADMISSIONS[cls] if rule[0] == name)
            object.__setattr__(self, name, _coerce(rule, value, name))

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

        Only the keys are checked here; the values take their types in the
        constructor, like any other input.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} expects a mapping, got {data!r}"
            )
        field_names = {field.name for field in dataclasses.fields(cls)}
        for key in data:
            if key not in field_names:
                raise ConfigurationError(
                    f"unknown key {key!r} for {cls.__name__} "
                    f"(known keys: {', '.join(sorted(field_names))})",
                    path=key,
                )
        try:
            return cls(**data)
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
        """Admit the section, recursively; returns ``self`` for chaining.

        Each field is held to its declaration — type (an ``int`` is never a
        bool, an ``Optional`` may be ``None``, a tuple's every entry has its
        entry type), finite, within its ``_bounds`` entry — and a nested
        section validates itself; then :meth:`_validate` runs the
        cross-field rules.  ``path`` is this section's dotted prefix in the
        root spec; an error names the field (``monitoring.gain``,
        ``transfers[0].delta``, ``latency.delays[1]``) as its ``path``, and
        one ``_validate`` raises without a path gets the section's.
        """
        values = self.__dict__
        for name, shape, exact, wider, bound, hint, entry in _ADMISSIONS[type(self)]:
            value = values[name]
            if type(value) not in exact and not isinstance(value, wider):
                raise _refused(f"{path}{name}", hint, bound, value)
            if value is None:
                continue
            if shape == _NUMBER:
                low, low_open, high, high_open, _ = bound
                # Chained comparisons, no call; NaN fails every one of them.
                if not ((low < value if low_open else low <= value) and (
                        value < high if high_open else value <= high)):
                    raise _refused(f"{path}{name}", hint, bound, value)
            elif shape == _TEXT:
                if bound is not None and not (
                        value != "" if bound is NON_EMPTY else value in bound):
                    raise _refused(f"{path}{name}", hint, bound, value)
            elif shape == _SECTION:
                value.validate(f"{path}{name}.")
            elif shape == _SECTIONS:
                for index, item in enumerate(value):
                    item.validate(f"{path}{name}[{index}].")
            elif shape == _ITEMS and value:
                # Each entry (a mapping's each value) against the entry type.
                keyed = exact[0] is dict
                for key, item in value.items() if keyed else enumerate(value):
                    if not _fits(entry, bound, item):
                        where = f"{path}{name}.{key}" if keyed else f"{path}{name}[{key}]"
                        raise _refused(where, entry, bound, item, named=True)
        try:
            self._validate(path)
        except ConfigurationError as error:
            if error.path is None:
                error.path = path.rstrip(".") or None
            raise
        return self

    def _validate(self, path: str) -> None:
        """Cross-field rules; ``path`` is the section's dotted prefix, for
        errors that name one of its fields."""

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
