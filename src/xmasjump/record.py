"""The immutable record base shared by every result type of the package."""

set_field = object.__setattr__  # how a record's __init__ stores each field


class Record:
    """An immutable value with ``__slots__``.

    The public names in a subclass's ``__slots__`` are its fields, in the
    order its ``__init__`` takes, validates and stores them with
    ``set_field``; private slots hold derived state. A class whose field is
    a property over private slots declares its fields as ``_fields``
    instead, and a subclass keeps its base's. Records are equal when their
    types and fields are, hash by their fields, and refuse assignment.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if not hasattr(cls, "_fields"):  # declared in the class body, or a base's
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # field names are ASCII identifiers, so the JSON keys need no escaping
        cls._json_keys = tuple(f'"{name}": ' for name in cls._fields)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def to_dict(self) -> dict:
        """Field name to value, in declared order, as JSON reads it back:
        tuples as lists, nested records as their own ``to_dict()``."""
        return {name: _json_shaped(getattr(self, name)) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._astuple()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record field {name!r} is read-only")

    __delattr__ = __setattr__


def _json_shaped(value):
    if type(value) is tuple:
        return [_json_shaped(item) for item in value]  # list(map()) over-allocates
    return value.to_dict() if isinstance(value, Record) else value
