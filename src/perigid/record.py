"""The immutable value types' shared base.

A subclass lists its fields once, in `__slots__`, and trailing defaults in
`_defaults`.  Construction takes the fields positionally or by keyword and
then calls `__post_init__`, the validation hook; instances compare and hash
as the tuple of their fields, print as `Name(field=value, ...)`, refuse
assignment and deletion with AttributeError, pickle and copy by calling
the constructor again, so validation reruns, and serialise through
`to_json` as a dict of their fields by name, in slot order.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        # the slot descriptors' setters, which bypass the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Field values in slot order from positional and keyword arguments."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        first_default = len(names) - len(cls._defaults)
        values = list(args)
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= first_default:
                values.append(cls._defaults[i - first_default])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {names[i]!r}")
        if kwargs:  # a field given twice, or a name that is no field
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(values)

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
