"""Immutable records (``repro.sim.record``) and the import surface.

Every message, packet and log entry is a :class:`Record`: α covers the
message (§4.1) and a retransmitted packet is the object first sent, so
a record that could change after it is built would break both.  The
tests pin that immutability on every record class in the program, the
primitive's parity with a frozen dataclass, that a run of each
benchmarked workload shape builds its records positionally, and that a
run of the benchmarked workloads imports none of the modules it never
uses.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace
from pathlib import Path

import pytest

import repro
from repro.sim.record import Record, record
from tests.test_instrument_gate import SHAPES

ROOT = Path(__file__).resolve().parents[1]


def _all_records() -> list[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, stack = [], [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            # ``vars`` skips the class each ``@record`` replaced by its
            # slotted copy, which lingers until a collection.
            if cls.__module__.startswith("repro.") and "__slots__" in vars(cls):
                found.append(cls)
            stack.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _all_records()

#: A value of each annotated scalar type; anything else gets a token.
_SAMPLES = {"int": 1, "float": 1.5, "bool": True, "bytes": b"\x01"}


def _sample(cls: type) -> Record:
    """An instance of *cls*: defaults where the field has one, a value
    of its annotated type otherwise (a ``str`` field gets its name)."""
    values = {}
    for f in fields(cls):
        if not f.init or f.default is not MISSING or f.default_factory is not MISSING:
            continue
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        values[f.name] = f.name if kind == "str" else _SAMPLES.get(kind, (cls.__name__, f.name))
    return cls(**values)


def test_every_record_module_is_collected():
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in RECORDS}
    assert len(RECORDS) >= 68
    assert {"repro.net.packet.Packet", "repro.core.attestation.AttestedMessage",
            "repro.systems.bft.Reply", "repro.systems.raft.AppendEntries"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_a_record_cannot_change_and_replace_builds_a_new_one(cls):
    instance = _sample(cls)
    assert not hasattr(instance, "__dict__")
    for name in [f.name for f in fields(cls)] + ["not_a_field"]:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(instance, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(instance, name)
    copy = replace(instance)
    assert copy == instance
    assert copy is not instance


# ----------------------------------------------------------------------
# Parity with a frozen dataclass
# ----------------------------------------------------------------------

def _post_init(self):
    object.__setattr__(self, "derived", self.a * 2)


def _declare(decorate, base):
    class Message(base):
        a: int
        tags: list = field(default_factory=list)
        label: str = "m"
        memo: object = field(default=None, init=False, repr=False, compare=False)
        derived: int = field(default=0, init=False)
        flag: bool = field(default=False, kw_only=True)

        __post_init__ = _post_init

    return decorate(Message)


RECORD_CLASS = _declare(record, Record)
DATACLASS = _declare(dataclass(frozen=True), object)


def test_a_record_matches_a_frozen_dataclass():
    def parameters(cls):
        return [(p.name, p.kind, p.default if p.name != "tags" else "factory")
                for p in inspect.signature(cls.__init__).parameters.values()]

    assert parameters(RECORD_CLASS) == parameters(DATACLASS)
    assert [(f.name, f.init, f.repr, f.compare) for f in fields(RECORD_CLASS)] == [
        (f.name, f.init, f.repr, f.compare) for f in fields(DATACLASS)]
    assert dataclasses.is_dataclass(RECORD_CLASS)
    for args, kwargs in [((3,), {}), ((3, (1, 2), "x"), {"flag": True})]:
        ours, theirs = RECORD_CLASS(*args, **kwargs), DATACLASS(*args, **kwargs)
        assert repr(ours) == repr(theirs).replace(
            DATACLASS.__qualname__, RECORD_CLASS.__qualname__)
        assert ours.derived == theirs.derived == 6
        assert ours == RECORD_CLASS(*args, **kwargs)
        assert ours != RECORD_CLASS(4)
        assert ours != theirs  # same fields, other class
        if isinstance(ours.tags, tuple):
            assert hash(ours) == hash(theirs)
    mutable = RECORD_CLASS(1)
    with pytest.raises(TypeError, match="unhashable"):
        hash(mutable)
    assert RECORD_CLASS(1).tags is not mutable.tags  # one list per instance
    object.__setattr__(mutable, "memo", "cached")  # a memo field stays writable
    assert mutable == RECORD_CLASS(1)  # ... and outside equality
    assert replace(mutable, label="y").memo is None


def test_one_and_zero_field_records_compare_and_hash_as_tuples():
    @record
    class One(Record):
        x: float

    @record
    class Zero(Record):
        pass

    nan = float("nan")
    assert One(nan) == One(nan)  # identity first, as a tuple compares
    assert hash(One(5)) == hash((5,))
    assert Zero() == Zero() and hash(Zero()) == hash(())
    assert repr(Zero()) == f"{Zero.__qualname__}()"


def test_record_refuses_a_class_outside_the_base():
    with pytest.raises(TypeError, match="must derive from Record"):
        @record
        class Loose:
            x: int


def test_a_non_default_field_after_a_default_is_rejected():
    with pytest.raises(TypeError, match="non-default argument 'b'"):
        @record
        class Bad(Record):
            a: int = 1
            b: int


# ----------------------------------------------------------------------
# Per-message construction
# ----------------------------------------------------------------------

@pytest.fixture
def keyword_builds(monkeypatch):
    """Returns a function that wraps every record class's ``__init__``
    and hands back the tally of records built with a keyword argument,
    by class; shapes call it after set-up, so only the run is counted."""

    def install() -> Counter:
        tally: Counter = Counter()
        for cls in RECORDS:
            def init(self, *args, _original=cls.__init__,
                     _name=cls.__qualname__, **kwargs):
                if kwargs:
                    tally[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        return tally

    return install


def test_a_positional_build_is_counted_apart_from_a_keyword_one(keyword_builds):
    from repro.net.packet import UdpHeader

    tally = keyword_builds()
    assert UdpHeader(1, 2) == UdpHeader(src_port=1, dst_port=2)
    assert tally == Counter({"UdpHeader": 1})


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_run_builds_every_record_positionally(shape, keyword_builds):
    """A keyword call to a class builds a dict that the compiled
    ``__init__`` unpacks again: 1.2-1.6x a positional build.  Set-up
    and tests may name fields; a workload run does not."""
    _, run = SHAPES[shape]()
    tally = keyword_builds()
    run()
    assert tally == Counter(), f"{shape} built records by keyword: {dict(tally)}"


# ----------------------------------------------------------------------
# Import surface
# ----------------------------------------------------------------------

#: Modules no benchmarked workload uses, re-exported by no package.
UNUSED_BY_RUNS = (
    "repro.api.rpc",
    "repro.api.transform",
    "repro.bench.report",
    "repro.core.resources",
    "repro.crypto.rsa",
    "repro.tee.sgx_memory",
)


def test_the_workloads_import_none_of_the_modules_they_never_use():
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'benchmarks' / 'e2e')!r})\n"
        "import workloads\n"
        f"print(json.dumps(sorted(m for m in {list(UNUSED_BY_RUNS)!r} if m in sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True, timeout=60)
    assert json.loads(done.stdout) == []
