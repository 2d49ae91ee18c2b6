"""Base class of the immutable value types."""

from __future__ import annotations


class Frozen:
    """Slots are set once, at construction, and never assigned again.

    Two instances are equal iff they have the same type and equal slot
    values, the hash is that of the slot values, and two instances of one
    type order as their slot values do, slot by slot in declaration order;
    an instance that holds a dict or a list is therefore unhashable, and
    one that holds a dict unordered.  Slots named with a leading
    underscore hold derived tables and take no part in any of these.  A
    type whose slots do not compare as its values should sets ``_values``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *values):
        """Set the slots, in declaration order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *values):
        """An instance with these slot values, for a conversion that
        already holds every one of them; the constructor does not run."""
        obj = object.__new__(cls)
        obj._set(*values)
        return obj

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() < other._values()
