"""Immutable records at slotted-class cost.

Every record the program builds — a message the attestation kernel
MACs, a packet a retransmission buffer aliases, a log entry a replica
signs — must not change once built: α covers the message (§4.1), and a
resent packet is the very object sent first.  A frozen dataclass gives
that immutability at a price paid on every import and every message: it compiles six generated methods per class with ``exec``, and
its ``__init__`` writes each field through ``object.__setattr__``.

:func:`record` keeps the dataclass metadata, so ``dataclasses.fields``,
``replace`` and ``is_dataclass`` work unchanged, and generates one
method: an ``__init__`` that writes each slot through its member
descriptor.  :class:`Record` supplies the rest once for every record
class — ``__setattr__``/``__delattr__`` that raise
:class:`~dataclasses.FrozenInstanceError`, and field-wise ``__eq__``,
``__hash__`` and ``__repr__`` — with the results a frozen dataclass
gives::

    @record
    class Reply(Record):
        request_id: int
        value: int
        retries: list[int] = field(default_factory=list)

A method that memoizes into a field (``compare=False``) writes it with
``object.__setattr__``, as it would on a frozen dataclass.  A record
built once per message is called positionally: a class has no
vectorcall, so keywords cost a dict that ``__init__`` unpacks again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter
from reprlib import recursive_repr
from typing import Any, Callable, TypeVar

__all__ = ["Record", "record"]

R = TypeVar("R", bound=type)

#: Default of an ``__init__`` parameter whose field has a
#: ``default_factory``: the factory runs only when the caller passed
#: nothing.
_FACTORY = object()


class Record:
    """Base class of every :func:`record` class: immutable, compared,
    hashed and printed field by field, like a frozen dataclass."""

    __slots__ = ()

    #: Per class, set by :func:`record`: the tuple of fields compared by
    #: ``==``, the tuple hashed, and the field names ``repr`` shows.
    _eq_key: Callable[[Any], tuple]
    _hash_key: Callable[[Any], tuple]
    _repr_names: tuple[str, ...]

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._eq_key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._hash_key(self))

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._repr_names)
        return f"{self.__class__.__qualname__}({shown})"


def _tuple_of(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """A function returning ``(record.<name>, ...)`` — always a tuple,
    as the dataclass-generated ``__eq__`` and ``__hash__`` build.  It is
    stored on the class, so it must not bind as a method."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return staticmethod(lambda record: (get(record),))
    return staticmethod(lambda record: ())


def _compile_init(cls: type, fields: tuple[dataclasses.Field, ...]) -> Callable:
    """One ``exec``: an ``__init__`` with the dataclass signature that
    writes every slot through its member descriptor."""
    namespace: dict[str, Any] = {"_FACTORY": _FACTORY}
    positional: list[str] = []
    keyword: list[str] = []
    body: list[str] = []
    defaulted = False
    for f in fields:
        name = f.name
        setter = f"_set_{name}"
        namespace[setter] = getattr(cls, name).__set__
        if f.default is not MISSING:
            default = f"_default_{name}"
            namespace[default] = f.default
            value = default
        elif f.default_factory is not MISSING:
            default = "_FACTORY"
            namespace[f"_factory_{name}"] = f.default_factory
            value = f"_factory_{name}()"
        else:
            default = value = None
        if f.init:
            if f.kw_only:
                keyword.append(name if default is None else f"{name}={default}")
            elif default is None:
                if defaulted:
                    raise TypeError(
                        f"non-default argument {name!r} follows default argument")
                positional.append(name)
            else:
                defaulted = True
                positional.append(f"{name}={default}")
            if default == "_FACTORY":
                value = f"{value} if {name} is _FACTORY else {name}"
            else:
                value = name
        if value is not None:
            body.append(f"    {setter}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    signature = ", ".join(
        ["self", *positional, *(["*", *keyword] if keyword else [])])
    source = f"def __init__({signature}):\n" + ("\n".join(body) or "    pass")
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def record(cls: R) -> R:
    """Make *cls*, a subclass of :class:`Record`, an immutable slotted
    record (see the module docstring)."""
    if not issubclass(cls, Record):
        raise TypeError(f"@record class {cls.__qualname__} must derive from Record")
    if not cls.__doc__:
        # dataclass would otherwise derive one from inspect.signature.
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False, slots=True)
    fields = dataclasses.fields(cls)
    cls.__init__ = _compile_init(cls, fields)
    cls._eq_key = _tuple_of(tuple(f.name for f in fields if f.compare))
    cls._hash_key = _tuple_of(tuple(
        f.name for f in fields if (f.compare if f.hash is None else f.hash)))
    cls._repr_names = tuple(f.name for f in fields if f.repr)
    return cls
