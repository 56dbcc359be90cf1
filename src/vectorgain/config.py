"""One reader for every JSON config object, driven by tables.

A table declares an object once, as a tuple of (field, rule, default) in
the order its fields are read; REQUIRED marks a field that must be given.
`read` checks that the value is an object, rejects a key outside the
table, names a missing required field and applies each given field's
rule; `read_kind` first picks the table by the object's kind.  A rule
takes a JSON value and returns what it reads as, or raises Mismatch.
Rules check type, presence and name; ranges and shapes stay with the
code that owns them.  Every object fails in one message shape:

    {owner} {item} 'x' must be a number, got 2.9
    each entry of {owner} {item} 'x' must be a number, got '1'
    {owner} requires a {item} 'x'
    {owner} has no {item} 'x'
    {owner} must be an object, got a JSON array

A message is formatted only when it is raised, since a config can hold
millions of valid fields, and describes a value without echoing it whole.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "REQUIRED", "Mismatch", "read", "read_kind", "describe", "number",
    "integer", "boolean", "one_of", "obj", "array", "anything", "numbers",
    "seed",
]

# the default of a field that must be given
REQUIRED = object()


class Mismatch(Exception):
    """Raised by a rule: value (with entry, one entry of an array value)
    is not `expected`.  `read` turns it into the caller's error."""

    def __init__(self, expected: str, value, entry: bool = False):
        super().__init__(expected)
        self.expected, self.value, self.entry = expected, value, entry


def describe(v) -> str:
    """A JSON value as an error message shows it: a number, bool, null or
    short string as its repr, anything else by its JSON type alone."""
    if v is None or isinstance(v, (bool, float)) or (
            isinstance(v, (int, str)) and len(repr(v)) <= 40):
        return repr(v)
    kind = {int: "integer", str: "string", list: "array",
            dict: "object"}.get(type(v), type(v).__name__)
    return f"a JSON {kind}"


def _error(error, message: str, field=None, m: Mismatch = None):
    # `field` is the field of the object at fault, None for the object
    # itself: the command line names it before the message
    if m is not None:
        message = (f"{'each entry of ' if m.entry else ''}{message} "
                   f"must be {m.expected}, got {describe(m.value)}")
    exc = error(message)
    exc.field = field
    return exc


def read(d, table: tuple, owner: str, item: str = "field", error=ValueError,
         nulls=(), known: str = None) -> Dict:
    """The fields of the JSON object d, read by table, as {name: value} in
    table order, with the default of each field that is absent (or null,
    for a name in nulls); known is a key of d that the caller reads.  The
    first fault in table order, then a key outside the table, raises
    `error`, with the field's name as its `field`; an error of a rule
    other than Mismatch passes through."""
    if not isinstance(d, dict):
        raise _error(error, f"{owner} must be an object, got {describe(d)}")
    if nulls:
        d = {k: v for k, v in d.items() if v is not None or k not in nulls}
    values = {}
    defaults = 0
    try:
        for name, rule, default in table:
            if name in d:
                values[name] = rule(d[name])
            elif default is REQUIRED:
                break
            else:
                values[name] = default
                defaults += 1
        else:
            # every key of d was read, unless d holds more keys than that
            if len(d) - (known in d) == len(values) - defaults:
                return values
    except Mismatch:
        pass
    # a fault, found again field by field to name it
    for name, rule, default in table:
        if name in d:
            try:
                rule(d[name])
            except Mismatch as m:
                raise _error(error, f"{owner} {item} {name!r}", name,
                             m) from None
        elif default is REQUIRED:
            raise _error(error, f"{owner} requires a {item} {name!r}", name)
    key = next(k for k in d if k != known and k not in values)
    raise _error(error, f"{owner} has no {item} {describe(key)}")


def read_kind(d, kinds: Dict[str, Tuple[tuple, str, str]], owner: str,
              error=ValueError, key: str = "kind",
              default=REQUIRED) -> Tuple[str, Dict]:
    """The kind of the JSON object d, named by its field `key` (default
    when absent), and its other fields, read by `read` by the (table,
    owner, item) that kinds holds for that kind."""
    try:
        kind = d.get(key, default)
        table, kind_owner, item = kinds[kind]
    except (AttributeError, KeyError, TypeError):  # not an object, no kind
        # d, or its key alone, read as one of the kinds names the fault
        if isinstance(d, dict):
            d = {key: d[key]} if key in d else {}
        read(d, ((key, one_of(*kinds), REQUIRED),), owner, error=error)
        raise  # not reached: read has raised
    return kind, read(d, table, kind_owner, item, error, (), key)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def number(v) -> float:
    """A JSON number, as a float; a bool or a string is not one, nor an
    integer past the float range."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise Mismatch("a number in the float range", v) from None
    raise Mismatch("a number", v)


def integer(v) -> int:
    """A JSON integer; a float (2.0 too), a bool or a string is not one."""
    if type(v) is int:
        return v
    raise Mismatch("an integer", v)


def boolean(v) -> bool:
    if isinstance(v, bool):
        return v
    raise Mismatch("true or false", v)


def one_of(*values: str) -> Callable[[object], str]:
    """The rule of a string that must be one of values."""
    expected = "one of " + ", ".join(map(repr, values))

    def rule(v) -> str:
        if isinstance(v, str) and v in values:
            return v
        raise Mismatch(expected, v)

    return rule


def obj(v) -> dict:
    """A JSON object, which its own table reads."""
    if isinstance(v, dict):
        return v
    raise Mismatch("an object", v)


def array(v) -> list:
    """A JSON array, whose entries their own rule reads."""
    if isinstance(v, list):
        return v
    raise Mismatch("an array", v)


def anything(v):
    """Any JSON value, read later by the code that uses it."""
    return v


def numbers(v) -> np.ndarray:
    """A JSON number, or nested arrays of them at any depth, as a float
    array; a Python caller may also pass tuples and ndarrays."""
    pending = [v]
    while pending:  # a loop, not recursion: the JSON may nest deeply
        x = pending.pop()
        if isinstance(x, (list, tuple)):
            pending += x
        elif isinstance(x, np.ndarray):
            pending.append(x.tolist())
        elif not isinstance(x, (int, float)) or isinstance(x, bool):
            raise Mismatch("a number", x, entry=True)
    try:
        return np.asarray(v, dtype=float)
    except ValueError:  # arrays of unequal lengths side by side
        raise Mismatch("a rectangular array of numbers", v) from None
    except OverflowError:  # an integer past the float range
        raise Mismatch("an array of numbers in the float range", v) from None


def seed(v) -> int:
    """A JSON integer, or a float with an integer value such as 4.0, which
    reads as that integer."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return integer(v)
