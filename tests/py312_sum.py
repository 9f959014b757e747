"""Python 3.12's builtin ``sum``, runnable on any interpreter.

From 3.12, ``sum`` adds exact floats with Neumaier's compensated
algorithm, so the same floats can sum to a different last bit than on
3.11.  This is a port of CPython 3.12's ``builtin_sum_impl`` (its int
and float fast paths, then plain ``+``): swapped in for
``builtins.sum``, it lets a test on 3.11 check that pinned bytes do not
depend on which ``sum`` the interpreter has.
"""

import math

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def _as_long(value):
    """``PyLong_AsLongAndOverflow``: the int, or None on overflow."""
    return value if _LONG_MIN <= value <= _LONG_MAX else None


def sum312(iterable, /, start=0):
    items = iter(iterable)
    result = start
    if type(result) is int and _as_long(result) is not None:
        for item in items:
            if type(item) in (int, bool):
                total = result + item
                if _as_long(total) is not None:
                    result = total
                    continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _as_long(item) is not None:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
