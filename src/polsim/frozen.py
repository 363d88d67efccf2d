"""`frozen`, the decorator of polsim's value classes.  `dataclass(frozen=True)`
compiles six generated methods per class in every process (generated source
has no .pyc); `frozen` installs the same methods as closures over the fields."""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature
from operator import attrgetter


def _refuse(self, name, *value):  # __setattr__ (given a value) and __delattr__
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def frozen(cls):
    """Make `cls` a frozen dataclass: built by position or keyword, then
    `__post_init__`; equal and hashed by its compared fields; immutable."""
    cls = dataclass(cls, init=False, repr=False, eq=False)
    every = fields(cls)
    signature = Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                                     default=Parameter.empty if f.default is MISSING else f.default)
                           for f in every if f.init], return_annotation=None)
    names = tuple(signature.parameters)
    name_set = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)
    compared = [f.name for f in every if f.compare]
    get = attrgetter(*compared)  # a tuple when more than one field is compared
    key = get if len(compared) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
        elif args or kwargs.keys() != name_set:  # defaults, or a mix: bound as a call binds
            bound = signature.bind(*args, **kwargs)  # or the TypeError a call raises
            bound.apply_defaults()
            self.__dict__.update(bound.arguments)
        else:  # every field by keyword, kept in the caller's order
            self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in every if f.repr)
        return f"{self.__class__.__qualname__}({inner})"

    cls.__signature__ = signature
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__, cls.__setattr__, cls.__delattr__ = (
        __init__, __eq__, lambda self: hash(key(self)), __repr__, _refuse, _refuse)
    return cls
