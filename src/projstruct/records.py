"""One immutable record base for the package's value types.

A subclass of :class:`Record` declares its fields as annotated class
attributes, in order, with defaults as class values, and may define
``__post_init__`` to check a new record.  ``Record.__init_subclass__``
gives it the constructor and the C-level field getters of a
``collections.namedtuple`` of the same fields, so building a record and
reading a field cost what they cost on a named tuple.

A record is a tuple: ``len``, indexing and unpacking work, and
``_fields`` names its parts in order.  Unlike a plain tuple it equals
only a record of its own class, prints as ``Name(field=value, ...)``,
refuses attribute assignment and deletion, and round-trips through
``pickle`` and ``copy``.
"""

from collections import namedtuple


class Record(tuple):
    """Base of the frozen records; see the module note."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)  # the class's own, in order
        if not names:
            return
        own = vars(cls)
        defaults = [own[name] for name in names if name in own]
        if any(name in own for name in names[:len(names) - len(defaults)]):
            raise TypeError("%s: a field without a default follows one with"
                            % cls.__name__)
        shape = namedtuple(cls.__name__, names, defaults=defaults)
        for name in names:
            setattr(cls, name, getattr(shape, name))
        cls._fields = cls.__match_args__ = names
        new = shape.__new__
        if hasattr(cls, "__post_init__"):
            def __new__(cls, *args, **kwargs):
                self = new(cls, *args, **kwargs)
                self.__post_init__()
                return self
        else:
            __new__ = new
        cls.__new__ = staticmethod(__new__)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r: a %s is immutable"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: a %s is immutable"
                             % (name, type(self).__name__))

    def __getnewargs__(self):
        return tuple(self)
