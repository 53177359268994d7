"""The machinery of the package's value classes, written by hand rather
than as dataclasses: ``import dataclasses`` (it pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``) and the code each decoration generates
would dominate a short CLI process.

Records are ``typing.NamedTuple``s; classes that validate their input or
hold a cache derive from ``Frozen``.  Both are marked
``@dataclass_compatible``, so ``dataclasses.replace``, ``fields``,
``asdict`` and ``is_dataclass`` accept them as they did when they were
dataclasses; ``dataclasses`` is imported the first time one of those
asks, never by the package itself.
"""

from __future__ import annotations

# what ``dataclasses`` reads from a class to treat it as a dataclass
_DATACLASS_ATTRIBUTES = ("__dataclass_fields__", "__dataclass_params__")


class _DataclassAttribute:
    """One of ``_DATACLASS_ATTRIBUTES`` of a class, made on first lookup:
    both are taken from a frozen dataclass over the class's ``_fields``
    (with their annotations and NamedTuple defaults) and replace the
    descriptors on the class."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses

        annotations = cls.__dict__.get("__annotations__", {})
        defaults = getattr(cls, "_field_defaults", {})
        # NamedTuple keeps a string annotation as a ForwardRef
        types = {name: getattr(annotation, "__forward_arg__", annotation)
                 for name, annotation in annotations.items()}
        specs = [(name, types.get(name, "typing.Any"))
                 + ((dataclasses.field(default=defaults[name]),)
                    if name in defaults else ())
                 for name in cls._fields]
        twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
        for attribute in _DATACLASS_ATTRIBUTES:
            setattr(cls, attribute, getattr(twin, attribute))
        return getattr(twin, self.name)


def dataclass_compatible(cls):
    """Class decorator: ``dataclasses`` functions accept the class's values
    (see the module docstring); ``cls._fields`` names their fields and
    ``cls(**fields)`` rebuilds one."""
    for attribute in _DATACLASS_ATTRIBUTES:
        setattr(cls, attribute, _DataclassAttribute(attribute))
    return cls


class Frozen:
    """Base of the value classes that validate their input or hold a cache.
    ``__init__`` sets each field named in ``_fields`` once, through
    ``object.__setattr__`` (or, in a class without slots, straight into
    the instance dict); assigning or deleting an attribute afterwards
    raises AttributeError.  Two values are equal when they are of the same
    class and their fields are equal, and hash by their fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__: restoring the slots
        # one by one would go through the __setattr__ that raises
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
