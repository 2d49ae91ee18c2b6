"""Base class of the immutable value types."""

from __future__ import annotations


class Frozen:
    """Slots are set once, at construction, and never assigned again."""

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
