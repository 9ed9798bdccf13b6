"""Event registry integrity: typed records, metadata, round-trip."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    EngineEventFired,
    SessionComplete,
    TraceEvent,
    event,
    field_specs,
    from_dict,
    iter_event_types,
)


class TestRegistry:
    def test_every_type_is_frozen_and_labelled(self):
        for name, cls in EVENT_TYPES.items():
            assert cls.type == name
            assert cls.emitted_by, name
            assert cls.__doc__, name
            assert issubclass(cls, TraceEvent)
            # All non-time fields carry defaults, so this constructs.
            instance = cls(time=0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                instance.time = 1.0

    def test_every_emitted_by_path_resolves(self):
        # The schema doc names each event's instrumentation site; a
        # renamed or deleted method must not leave a dangling name there.
        for name, cls in EVENT_TYPES.items():
            module_path, _, qualname = cls.emitted_by.rpartition(".")
            while module_path:
                try:
                    target = importlib.import_module(module_path)
                    break
                except ModuleNotFoundError:
                    module_path, _, head = module_path.rpartition(".")
                    qualname = f"{head}.{qualname}"
            else:
                pytest.fail(f"{name}: no importable module in {cls.emitted_by!r}")
            for attr in qualname.split("."):
                assert hasattr(target, attr), f"{name}: {cls.emitted_by!r} does not resolve"
                target = getattr(target, attr)

    def test_instances_are_immutable(self):
        ev = EngineEventFired(time=1.0, name="tick")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.name = "tock"

    def test_iter_event_types_is_sorted(self):
        names = [cls.type for cls in iter_event_types()]
        assert names == sorted(EVENT_TYPES)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @event("engine.event", emitted_by="nowhere")
            class Impostor(TraceEvent):
                """Duplicate wire name."""

    def test_every_field_has_unit_metadata(self):
        # The schema table needs a unit and description for every field.
        for cls in EVENT_TYPES.values():
            for name, _type, unit, doc in field_specs(cls):
                assert unit, f"{cls.type}.{name} has no unit metadata"
                assert doc, f"{cls.type}.{name} has no field description"

    def test_time_is_first_field_everywhere(self):
        for cls in EVENT_TYPES.values():
            assert dataclasses.fields(cls)[0].name == "time"


class TestRoundTrip:
    def test_to_dict_puts_type_first(self):
        d = EngineEventFired(time=2.5, name="tick").to_dict()
        assert list(d)[0] == "type"
        assert d == {"type": "engine.event", "time": 2.5, "name": "tick"}

    def test_from_dict_rebuilds_the_exact_record(self):
        ev = SessionComplete(
            time=9.0, session="a", good_bytes=1e9, lost_bytes=2e6, files=100
        )
        assert from_dict(ev.to_dict()) == ev

    def test_from_dict_rejects_unknown_types(self):
        with pytest.raises(ValueError, match="unknown event type"):
            from_dict({"type": "no.such.event", "time": 0.0})
