"""Field readers of the JSON documents: model files, construct configs and fit configs.

Each reader returns its field's value or raises ValueError("model field '<name>' ...")
naming the field, and the entry ``i`` of a list field where there is one.  The library
raises these errors as they are; the CLI adds the path of the file it read.
"""

import numbers

import numpy as np


def _name(name, i=None):
    return "model field %r" % name + ("" if i is None else " entry %d" % i)


def _key(obj, key, name=None, i=None):
    """``obj[key]``, a field of the document ``obj`` (``name`` None) or a key of the
    object in field ``name`` (its entry i where given)."""
    if name is None:
        if not isinstance(obj, dict):
            raise ValueError("a model document must be a JSON object, got %s"
                             % type(obj).__name__)
        if key not in obj:
            raise ValueError("model field %r is missing" % key)
    elif key not in _object(obj, name, i):
        raise ValueError("%s has no %r" % (_name(name, i), key))
    return obj[key]


def _object(value, name, i=None):
    """A JSON object."""
    if not isinstance(value, dict):
        raise ValueError("%s must be an object, got %r" % (_name(name, i), value))
    return value


def _list(value, name, n=None, each=None, i=None):
    """A list (a tuple from a library caller), of n entries, one per ``each``, where n is given."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (_name(name, i), value))
    if n is not None and len(value) != n:
        raise ValueError("%s must hold one entry per %s: need %d %s entries, got %d"
                         % (_name(name, i), each, n, name, len(value)))
    return value


def _integer(value, name, i=None, least=None):
    """An integer, at least ``least`` where given; a bool or a fraction is refused, not cast.
    A plain int is let through before the slower test for any other integral type."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError("%s must be an integer, got %r" % (_name(name, i), value))
    if least is not None and value < least:
        raise ValueError("%s must be at least %d, got %d" % (_name(name, i), least, value))
    return int(value)


def _flag(value, name, i=None):
    """A JSON boolean; a string such as "false" or a number is refused, not cast."""
    if not isinstance(value, bool):
        raise ValueError("%s must be true or false, got %r" % (_name(name, i), value))
    return value


def _integers(values, name, n=None, each=None, i=None):
    """A tuple of the integers of a :func:`_list`."""
    return tuple(_integer(v, name, i) for v in _list(values, name, n, each, i))


def _choice(value, name, choices, what, i=None):
    """One of ``choices`` (strings or integers; a bool or a float is none of them)."""
    if isinstance(value, bool) or not isinstance(value, (str, int)) or value not in choices:
        raise ValueError("%s must %s (%s), got %r"
                         % (_name(name, i), what, ", ".join(map(str, choices)), value))
    return value


def _labels(values, n):
    """The condition labels: one per partition set, each 1 or 2."""
    labels = _integers(values, "labels", n, "partition set")
    if any(c not in (1, 2) for c in labels):
        raise ValueError("model field 'labels' must hold 1 or 2, got %r" % (list(labels),))
    return labels


def _blocks(value, name, n, shape, i=None):
    """n finite lag blocks of ``shape``, read as one array."""
    try:
        stack = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # a ragged or non-numeric block
        stack = np.empty(0)
    if stack.shape != (n, *shape) or not np.isfinite(stack).all():
        raise ValueError("%s must hold %d finite %d x %d blocks" % (_name(name, i), n, *shape))
    return tuple(stack)
