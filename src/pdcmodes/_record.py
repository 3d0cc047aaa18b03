"""Frozen records: what ``@dataclass(frozen=True)`` gives, built without code.

``dataclasses`` writes each class's methods as source text and compiles it,
and imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) to do so.
The design chain loads nothing else that needs them, and that import and
the compiling were the largest start-up cost the package itself owned in
a design command. A :class:`Record` subclass declares its fields as a
dataclass does, as annotated class attributes in positional order, with
:func:`field` for the options a default cannot carry, and shares one
generic ``__init__``, ``__eq__``, ``__hash__``, ``__repr__`` and
:meth:`Record.replace`.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """The options of one field, spelled as ``dataclasses.field`` spells them.

    ``init=False`` leaves the field out of the constructor, for
    ``__post_init__`` to set; ``repr=False`` hides it from the repr and
    ``compare=False`` from equality and the hash.
    """

    __slots__ = ("default", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


class Record:
    """Base of a frozen record with the behaviour of a frozen dataclass.

    The constructor takes the ``init`` fields by position or keyword, fills
    the defaults and calls ``__post_init__`` when the class defines one.
    Instances compare equal, and hash alike, when they are of the same
    class and their compared fields are equal. Setting or deleting any
    attribute raises :class:`FrozenInstanceError`; ``__post_init__`` sets
    derived fields with ``object.__setattr__``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        specs = dict(getattr(cls, "_specs", {}))
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            if not isinstance(spec, field):
                spec = field(default=spec)
            # the class attribute is the default, as on a dataclass
            if spec.default is not _MISSING:
                setattr(cls, name, spec.default)
            elif name in cls.__dict__:
                delattr(cls, name)
            specs[name] = spec
        init = [name for name, spec in specs.items() if spec.init]
        for before, after in zip(init, init[1:]):
            if (specs[before].default is not _MISSING
                    and specs[after].default is _MISSING):
                raise TypeError(f"{cls.__qualname__}: field {after!r} without "
                                f"a default follows field {before!r} with one")
        cls._specs = specs
        cls._init = tuple(init)
        cls._compared = tuple(n for n, spec in specs.items() if spec.compare)
        cls._shown = tuple(n for n, spec in specs.items() if spec.repr)
        cls.__match_args__ = cls._init

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._init):
            raise TypeError(f"{cls.__qualname__}() takes {len(cls._init)} "
                            f"positional arguments but {len(args)} were given")
        values = dict(zip(cls._init, args))
        for name, value in kwargs.items():
            if name not in cls._init:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            values[name] = value
        missing = []
        for name, spec in cls._specs.items():
            if name not in values:
                if spec.default is not _MISSING:
                    values[name] = spec.default
                elif spec.init:
                    missing.append(repr(name))
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"argument(s): {', '.join(missing)}")
        self.__dict__.update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def replace(self, **changes):
        """A new record with ``changes`` applied to this one's ``init``
        fields, built, validated and derived anew by the constructor."""
        for name in changes:
            spec = self._specs.get(name)
            if spec is not None and not spec.init:
                raise ValueError(f"field {name!r} is derived (init=False) "
                                 "and cannot be replaced")
        return type(self)(**{**{n: getattr(self, n) for n in self._init},
                             **changes})

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
