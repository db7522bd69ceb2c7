"""JSON file forms derived from type annotations.

`codec(tp)` gives, for an annotation, the encoder of one value and the
decoder of a column (a list) of values.  An annotation may be int, float
(which also takes an int), str, bool, None or a union of them with at most
one other member (an optional section, a value that may be a tuple); a
list, a tuple of fixed or any length, or a frozenset of scalars (written
sorted); a dict keyed by str, int or tuple[int, ...] (keys are written as
strings, a tuple comma-joined); a dataclass; or a TypedDict, which decodes
to the dict it is, so its items must need no conversion.  A key whose
field has a default may be absent from the file.

Decoding checks the type of every value, and checks and converts in bulk:
the items of all the containers in a column are decoded as one column, so
a value costs a pass of builtins rather than a Python call.  A value of the
wrong type raises FormError and a missing key MissingKey; each holds the
row of the column it lies in and the path from there to it.

A dataclass field whose file form differs from its annotation's declares
it with `stored`, in its metadata.  A condition that spans a dataclass's
fields is checked in its `__post_init__`, which runs when the object is
built and when it is read; it raises FormError or MissingKey (`require`)
with the path from the object, and a decode sets the object's row.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import reprlib
import typing
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Union


class FormError(ValueError):
    """A value of the wrong type, at `row` of the decoded column and
    `path` from there."""

    def __init__(self, expected: str, value: Any, row: int = 0, path: str = "") -> None:
        super().__init__(expected, value)
        self.row, self.path, self.problem = row, path, f"expected {expected}, got {reprlib.repr(value)}"

    def __str__(self) -> str:
        return f"{self.path.lstrip('.')}: {self.problem}" if self.path else self.problem


class MissingKey(KeyError):
    """A required key absent from an object at `row` of the decoded column
    and `path` from there."""

    def __init__(self, key: str, row: int = 0, path: str = "") -> None:
        super().__init__(key)
        self.row, self.path = row, path


def _same(v: Any) -> Any:
    return v


def stored(
    form: Any = None,
    out: Callable = _same,
    back: Callable = _same,
    key: str = "",
) -> dict:
    """Field metadata: the field is stored under `key` (default: its name)
    as `form` (default: its annotation); `out` turns the field's value into
    that form, and `back` turns the decoded form into the value."""
    return {"stored": (key, form, out, back)}


def require(items: list[dict], keys: Iterable[str], field: str) -> None:
    """Raise MissingKey at the first item of the list in `field` that lacks
    a key, the keys taken in turn, with the path from the object to it."""
    for key in keys:
        for n, d in enumerate(items):
            if key not in d:
                raise MissingKey(key, path=f".{field}[{n}]")


def _check(vs: list, ok: set, name: str, key: Callable = type) -> None:
    """Raise at the first value of a column whose key(value) is not in ok."""
    if not set(map(key, vs)) <= ok:
        row = next(i for i, v in enumerate(vs) if key(v) not in ok)
        raise FormError(name, vs[row], row)


def _all_of(ok: set, items: Iterable, key: Callable = type) -> bool:
    """Is key(item) in ok for every item?  A TypeError while reading them
    (a container of the wrong type) reads as no, for the caller to name."""
    try:
        return set(map(key, items)) <= ok
    except TypeError:
        return False


def _sub(decode: Callable, column: list, where: Callable[[int], tuple[int, str]]) -> list:
    """decode of a column drawn from another: `where` maps an error's row
    to its row in the other column and the step between them."""
    try:
        return decode(column) if column else column
    except (FormError, MissingKey) as e:
        e.row, step = where(e.row)
        e.path = step + e.path
        raise


def _items(decode: Callable, vs: list, parts: Iterable, step: Callable[[Any, int], str]) -> tuple[list, list]:
    """The items of all the containers in vs (`parts`: each one's items) as
    one column, and its decode; `step(container, i)` names its item i."""
    flat = list(itertools.chain.from_iterable(parts))

    def where(j: int) -> tuple[int, str]:
        ends = list(itertools.accumulate(map(len, vs)))
        row = bisect.bisect_right(ends, j)
        return row, step(vs[row], j - ends[row] + len(vs[row]))

    return flat, _sub(decode, flat, where)


# the Python types a JSON value may have where each scalar type is annotated
_SCALARS = {int: ("int", {int}), float: ("float", {float, int}), str: ("str", {str}),
            bool: ("bool", {bool}), type(None): ("null", {type(None)})}  # fmt: skip
# (write, read, what a key holds) for each key type of a dict
_KEYS = {
    str: (_same, _same, "a string"),
    int: (str, int, "an int"),
    tuple[int, ...]: (
        lambda c: ",".join(map(str, c)),
        lambda k: tuple(map(int, k.split(","))),
        "comma-joined ints",
    ),
}



class Codec(NamedTuple):
    encode: Callable[[Any], Any]  # one value
    decode: Callable[[list], list]  # a column of values
    ok: frozenset = frozenset()  # a scalar's Python types, which a container checks in one pass


@functools.cache
def codec(tp: Any) -> Codec:
    """The codec of an annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union or tp in _SCALARS:
        scalars = [a for a in args or (tp,) if a in _SCALARS]
        ok = frozenset().union(*(_SCALARS[a][1] for a in scalars))
        name = " or ".join(_SCALARS[a][0] for a in scalars)
        if len(scalars) == len(args or (tp,)):
            return Codec(_same, lambda vs: _check(vs, ok, name) or vs, ok)
        ((enc, dec, _),) = [codec(a) for a in args if a not in _SCALARS]

        def decode_union(vs):
            rows = [i for i, v in enumerate(vs) if type(v) not in ok]
            out = list(vs)
            for i, x in zip(rows, _sub(dec, [vs[i] for i in rows], lambda r: (rows[r], ""))):
                out[i] = x
            return out

        return Codec(lambda v: v if type(v) in ok else enc(v), decode_union)
    if origin is tuple and args[-1] is not Ellipsis:
        codecs = [codec(a) for a in args]
        ok = codecs[0].ok if len({c.ok for c in codecs}) == 1 else frozenset()

        def decode_row(vs):
            if ok and _all_of({len(args)}, vs, list.__len__) and _all_of(ok, itertools.chain.from_iterable(vs)):
                return list(map(tuple, vs))
            _check(vs, {list}, "list")
            _check(vs, {len(args)}, f"list of {len(args)}", len)
            columns = [
                _sub(c.decode, list(map(itemgetter(p), vs)), lambda r, p=p: (r, f"[{p}]"))
                for p, c in enumerate(codecs)
            ]
            return list(zip(*columns))

        return Codec(lambda v: [c.encode(x) for c, x in zip(codecs, v)], decode_row)
    if origin in (list, tuple, frozenset):
        item = codec(args[0])

        def decode_list(vs):
            _check(vs, {list}, "list")
            if origin is list and item.ok and _all_of(item.ok, itertools.chain.from_iterable(vs)):
                return vs
            flat, got = _items(item.decode, vs, vs, lambda v, i: f"[{i}]")
            if got is flat and origin is list:
                return vs
            it = iter(got)
            return [origin(itertools.islice(it, len(v))) for v in vs]

        enc = item.encode
        if enc is _same:
            return Codec(sorted if origin is frozenset else list, decode_list)
        return Codec(lambda v: [enc(x) for x in v], decode_list)
    if origin is dict:
        (key_out, key_in, key_name), (enc, dec, ok) = _KEYS[args[0]], codec(args[1])

        def decode_map(vs):
            if key_in is _same and ok and _all_of(ok, itertools.chain.from_iterable(map(dict.values, vs))):
                return vs
            _check(vs, {dict}, "object")
            flat, got = _items(dec, vs, map(dict.values, vs), lambda d, i: f"[{list(d)[i]!r}]")
            it, table = iter(got), {}
            if key_in is _same:
                return vs if got is flat else [dict(zip(d, it)) for d in vs]
            for k in set(itertools.chain.from_iterable(vs)):  # read each distinct key once
                try:
                    table[k] = key_in(k)
                except ValueError:
                    raise FormError(f"a key of {key_name}", k, next(i for i, d in enumerate(vs) if k in d)) from None
            return [dict(zip(map(table.__getitem__, d), it)) for d in vs]

        if key_out is enc is _same:
            return Codec(dict, decode_map)
        return Codec(lambda v: {key_out(k): enc(x) for k, x in v.items()}, decode_map)
    return _record(tp)


def _present(vs: list, key: str) -> list[int]:
    """The rows of the objects in vs that hold key."""
    return [i for i, d in enumerate(vs) if key in d]


def _record(cls: type) -> Codec:
    """A dataclass or a TypedDict (kept: decoded to itself), written as an
    object; its fields are decoded column by column."""
    hints, kept = typing.get_type_hints(cls), typing.is_typeddict(cls)
    if kept:
        fields = [(k, k, codec(t), _same, _same, k in cls.__required_keys__) for k, t in hints.items()]
    else:
        fields = []
        for f in dataclasses.fields(cls):
            key, form, out, back = f.metadata.get("stored", ("", None, _same, _same))
            required = f.default is dataclasses.MISSING is f.default_factory
            fields.append((f.name, key or f.name, codec(form or hints[f.name]), out, back, required))

    def decode_record(vs):
        _check(vs, {dict}, "object")
        kwargs = None if kept else [{} for _ in vs]
        for name, key, c, _, back, required in fields:
            try:
                column = list(map(itemgetter(key), vs))
            except KeyError:
                if required:
                    raise MissingKey(key, next(i for i, d in enumerate(vs) if key not in d)) from None
                column = [d[key] for d in vs if key in d]
            full = len(column) == len(vs)
            where = lambda r, full=full, key=key: (r if full else _present(vs, key)[r], "." + key)  # noqa: E731
            got = _sub(c.decode, column, where)
            if kwargs is not None:
                for i, x in zip(range(len(vs)) if full else _present(vs, key), got):
                    kwargs[i][name] = back(x)
        if kwargs is None:
            return vs
        out = []
        try:
            for kw in kwargs:
                out.append(cls(**kw))
        except (FormError, MissingKey) as e:  # raised by the row's __post_init__
            e.row = len(out)
            raise
        return out

    def encode(obj):
        return {key: c.encode(out(getattr(obj, name))) for name, key, c, out, _, _ in fields}

    return Codec(_same if kept else encode, decode_record)
