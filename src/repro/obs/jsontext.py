"""Canonical JSON (``json.dumps(data, sort_keys=True, separators=(",",
":"))``) written from columns: rows of one shape render through one
``%``-template with sorted keys (:func:`template`), and :class:`Texts`
renders each distinct float and string of its columns once, exactly
as ``json.dumps`` does; any other mix of types renders value by value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["Texts", "dumps", "literal", "template"]

#: Value types a column renders through the name memo.
_NAMED = {str, bool, type(None)}

#: ``float.__repr__`` of the non-finite floats -> their JSON text.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(value) -> str:
    """Canonical JSON of one plain-data value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def literal(text: str) -> str:
    """A JSON string as a ``%``-template fragment."""
    return encode_basestring_ascii(text).replace("%", "%%")


def template(keys: Sequence[str]) -> str:
    """A JSON object with one ``%s`` slot per key."""
    return "{%s}" % ",".join("%s:%%s" % literal(key) for key in keys)


class Texts:
    """Memo of one writer call: the JSON text of every distinct float
    and name it has rendered."""

    def __init__(self) -> None:
        #: Keyed by the float's bits, so 0.0 and -0.0 stay apart.
        self.floats: Dict[int, str] = {}
        self.names: Dict[object, str] = {
            None: "null", True: "true", False: "false",
        }

    def column(self, values: Sequence) -> List[str]:
        """The JSON text of every value of one column."""
        kinds = set(map(type, values))
        if kinds == {float}:
            bits = np.array(values, dtype=np.float64).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            keys = keys.tolist()
            memo = self.floats
            fresh = set(keys).difference(memo)
            if fresh:
                fresh = np.fromiter(fresh, np.int64, len(fresh))
                floats = fresh.view(np.float64).tolist()
                reprs = list(map(float.__repr__, floats))
                memo.update(
                    zip(fresh.tolist(), map(_NON_FINITE.get, reprs, reprs))
                )
            texts = list(map(memo.__getitem__, keys))
            return list(map(texts.__getitem__, inverse.tolist()))
        if kinds == {int}:
            return list(map(int.__repr__, values))
        if kinds <= _NAMED:
            memo = self.names
            texts = list(map(memo.get, values))
            if None in texts:
                for value in set(values).difference(memo):
                    memo[value] = encode_basestring_ascii(value)
                texts = list(map(memo.__getitem__, values))
            return texts
        return [dumps(value) for value in values]
