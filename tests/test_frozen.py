"""Every polsim value class behaves as its `dataclass(frozen=True)` twin.

`polsim.frozen.frozen` installs shared closures in place of the methods that
`dataclass` generates.  Each value class is checked against a twin that
`dataclasses.make_dataclass(..., frozen=True)` builds from its own `fields()`
and `__post_init__`: the same signature, repr, equality, hash and `replace`,
and the same errors on assignment, deletion and bad arguments.
"""

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from polsim import antenna, compensation, jones, linksim, orbit, thinfilm, tle

PACKAGED_TLE = tle.load_tle_file(Path(tle.__file__).with_name("data") / "sso_500km.tle")
TIMES = np.array([0.0, 1.0, 2.0])

# Two different valid values of every value class, as positional arguments.
SAMPLES = {
    jones.PolarizationState: [(1.0, 0.0), (0.6, 0.8j)],
    jones.OpticalElement: [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)],
    jones.MirrorResponse: [(1.0, -1.0), (0.99, -0.98 + 0.01j)],
    thinfilm.Ray: [(0.5, 780.0), (0.2, 633.0)],
    thinfilm.LayerStack: [(1.0, ((1.45, 100.0),), 1.5), (1.0, (), 1.5 + 0.1j)],
    antenna.TelescopeGeometry: [(812.5, 190.0, 32.5, 7.6), (1.0, 2.0, 3.0, 4.0)],
    antenna.PointingDirection: [(30.0, 50.0), (-180.0, 0.0)],
    antenna.PerScanResult: [(((30.0, 0.0, "H", 1e3, 0.999),),), ((),)],
    tle.TleRecord: [dataclasses.astuple(PACKAGED_TLE),
                    dataclasses.astuple(PACKAGED_TLE)[:-1] + (PACKAGED_TLE.rev_number + 1,)],
    orbit.GroundStation: [(32.3, 80.0, 5047.0), (0.0, 0.0)],
    orbit.PassProfile: [(TIMES, TIMES, TIMES, TIMES), (TIMES + 1.0, TIMES, TIMES, TIMES)],
    compensation.CompensationSchedule: [(TIMES, TIMES, TIMES, 145.8, 2.0, ()),
                                        (TIMES, TIMES, TIMES, 0.0, 1.0, ("slow",))],
    linksim.SourceModel: [(0.9329, 1e6), (1.0, 2e6)],
    linksim.ChannelModel: [(46.0,), (10.0, jones.rotator(0.3), 0.1)],
    linksim.DetectionModel: [(), (0.4, 50.0, 1e-9, 80.0)],
    linksim.ChshResult: [((0.7, -0.7, 0.7, 0.7), (0.01,) * 4, 2.8, 0.02, 2138.0),
                         ((0.5, -0.5, 0.5, 0.5), (0.02,) * 4, 2.0, 0.04, 100.0)],
}


def value_classes():
    modules = (jones, thinfilm, antenna, tle, orbit, compensation, linksim)
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls)]


def twin_of(cls):
    spec = [(f.name, f.type, dataclasses.field(default=f.default, init=f.init, repr=f.repr,
                                               compare=f.compare))
            for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def outcome(call):
    """What a call gives: its value, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def test_every_value_class_has_samples():
    assert set(value_classes()) == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestTwin:
    def test_signature_and_own_docstring(self, cls):
        assert inspect.signature(cls) == inspect.signature(twin_of(cls))
        # without one, dataclass writes "Name(signature)" into __doc__
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")

    def test_repr_eq_hash(self, cls):
        twin = twin_of(cls)
        (a, b), names = SAMPLES[cls], [f.name for f in dataclasses.fields(cls) if f.init]
        for args_x, args_y in [(a, a), (a, b), (b, a), (b, b)]:
            x, y, tx, ty = cls(*args_x), cls(*args_y), twin(*args_x), twin(*args_y)
            assert repr(x) == repr(tx)
            by_keyword = cls(**dict(zip(names, args_x)))
            mixed = cls(*args_x[:1], **dict(zip(names[1:], args_x[1:])))
            reordered = cls(**dict(reversed(list(zip(names, args_x)))))
            for made in (x, by_keyword, mixed, reordered):
                assert repr(made) == repr(tx) and list(vars(made)) == list(vars(tx))
            assert outcome(lambda: x == y) == outcome(lambda: tx == ty)
            assert outcome(lambda: x != y) == outcome(lambda: tx != ty)
            assert outcome(lambda: hash(x)) == outcome(lambda: hash(tx))
        assert cls(*a).__eq__(twin(*a)) is NotImplemented

    def test_replace(self, cls):
        twin, (a, b) = twin_of(cls), SAMPLES[cls]
        for k, f in enumerate(f for f in dataclasses.fields(cls) if f.init):
            if k < len(b):
                changes = {f.name: b[k]}
                assert (repr(dataclasses.replace(cls(*a), **changes))
                        == repr(dataclasses.replace(twin(*a), **changes)))

    def test_frozen(self, cls):
        for make in (cls, twin_of(cls)):
            value = make(*SAMPLES[cls][0])
            for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, name)

    def test_bad_arguments(self, cls):
        a = max(SAMPLES[cls], key=len)  # every init field
        first = next(f.name for f in dataclasses.fields(cls) if f.init)
        calls = [lambda make: make(*a, a[-1]),  # one too many
                 lambda make: make(*a, unknown=a[-1]),
                 lambda make: make(*a[:1], **{first: a[0]})]  # repeated
        required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls) if f.init)
        if required:
            calls.append(lambda make: make(*a[:required - 1]))  # missing
        for call in calls:
            for make in (cls, twin_of(cls)):
                with pytest.raises(TypeError):
                    call(make)
