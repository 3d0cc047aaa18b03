"""Frozen keyword-only records: what a frozen dataclass gives, without code.

``dataclasses`` writes each class's methods as source text and compiles it,
and imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) to do so.
The design chain loads nothing else that needs them, and that import and
the compiling were the largest start-up cost the package itself owned in
a design command. A :class:`Record` subclass declares its fields as a
dataclass does, as annotated class attributes whose values are the
defaults, and shares one generic ``__init__``, ``__eq__``, ``__hash__``,
``__repr__`` and :meth:`Record.replace`. The fields are exactly the
constructor's arguments, and each is given by keyword: a field's name
carries its unit, so field order is not part of a record's API.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class Record:
    """Base of a frozen record with the behaviour of a frozen dataclass.

    The constructor takes the fields by keyword only (one not given reads
    its default, the class attribute) and calls ``__post_init__`` when the
    class defines one. Records of one class are equal, and hash alike, when
    their fields are; the repr omits the fields named in ``_hidden``.
    Setting or deleting an attribute raises :class:`FrozenInstanceError`;
    ``__post_init__`` may set derived attributes with
    ``object.__setattr__``, which are not fields.
    """

    _fields: tuple = ()
    _hidden: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = cls._fields

    def __init__(self, **kwargs):
        cls = type(self)
        for name in kwargs:
            if name not in cls._fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
        missing = [repr(name) for name in cls._fields
                   if name not in kwargs and not hasattr(cls, name)]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"argument(s): {', '.join(missing)}")
        self.__dict__.update(kwargs)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def replace(self, **changes):
        """A new record with ``changes`` to its fields, built anew."""
        return type(self)(**{**{n: getattr(self, n) for n in self._fields},
                             **changes})

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
