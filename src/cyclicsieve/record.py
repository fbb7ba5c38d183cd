"""Frozen value records: the part of dataclasses the kernels use, without its import.

`record` turns a class whose body annotates its fields (every kernel module
has `from __future__ import annotations`, so the annotations stay strings
and are never evaluated) into an immutable value type:

* `__init__(self, field, ..., field=default)` takes the fields in order,
  positionally or by keyword, with the class attribute of a field as its
  default, sets them with `object.__setattr__` and then calls
  `self.__post_init__()`, looked up on each call, if the class has one;
* setting or deleting an attribute raises AttributeError, while
  `object.__setattr__` (for a `__post_init__` that normalises a field) and
  `functools.cached_property` (which writes the instance `__dict__`) still
  work;
* `==` compares the field tuple with an instance of the same class only,
  `hash` is the hash of the field tuple, and `repr` reads
  `Name(field=value, ...)`;
* with `order=True`, `<`, `<=`, `>` and `>=` compare field tuples, again
  only within one class.

That is what `dataclass(frozen=True)` and `dataclass(frozen=True,
order=True)` give these classes, at a smaller price: `dataclasses` imports
`inspect`, `ast`, `dis` and `tokenize`, and execs source for up to ten
methods per class, while a record execs only its `__init__` and makes
every comparison from one factory over `operator`'s functions, reading
the field tuple with `operator.attrgetter`.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge, gt, le, lt


def record(cls=None, /, *, order: bool = False):
    """Make `cls` a frozen record; use as `@record` or `@record(order=True)`."""
    if cls is None:
        return lambda cls: _build(cls, order)
    return _build(cls, order)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _build(cls, order: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__init__ = _make_init(cls, names, defaults)

    # attrgetter of one name returns the bare value; hash and repr still read a 1-tuple.
    key = attrgetter(*names)
    single = len(names) == 1

    def compare(op):
        def method(self, other):
            if other.__class__ is self.__class__:
                return op(key(self), key(other))
            return NotImplemented

        return method

    if single:
        def __hash__(self):
            return hash((key(self),))
    else:
        def __hash__(self):
            return hash(key(self))

    def __repr__(self):
        values = (key(self),) if single else key(self)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        return f"{self.__class__.__qualname__}({fields})"

    methods = {"__eq__": compare(eq), "__hash__": __hash__, "__repr__": __repr__}
    if order:
        methods.update(__lt__=compare(lt), __le__=compare(le), __gt__=compare(gt), __ge__=compare(ge))
    for name, method in methods.items():
        method.__name__, method.__qualname__ = name, f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _make_init(cls, names: tuple[str, ...], defaults: dict):
    """Exec `__init__` for the fields: the one generated method of a record.

    It sets each field with object.__setattr__: writing `self.__dict__`
    instead would build the dict object, which slows every later
    attribute read of the instance.
    """
    params = ", ".join(f"{name}=_default_{name}" if name in defaults else name for name in names)
    lines = [f"    _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    namespace.update((f"_default_{name}", value) for name, value in defaults.items())
    exec(f"def __init__(self, {params}):\n" + "\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
