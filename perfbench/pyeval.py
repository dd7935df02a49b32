"""Plain-Python evaluation of jetlag expression text.

jetlag's grammar (``+ - * /``, ``^`` for powers, parentheses, ``sin cos exp
ln sqrt``) is Python's once ``^`` becomes ``**``: both bind ``^`` above unary
minus and ``*`` ``/`` left to right.  The checks use this to evaluate the
program's printed formulas independently of the program's own evaluator.
"""

from __future__ import annotations

import math

_FUNCS = {
    "__builtins__": {},
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}
_CODE = {}


def py_eval(text: str, binding: dict) -> float:
    """Value of ``text`` with names bound from ``binding`` (name -> float)."""
    code = _CODE.get(text)
    if code is None:
        code = compile(text.replace("^", "**"), "<jetlag-text>", "eval")
        _CODE[text] = code
    return float(eval(code, _FUNCS, binding))  # noqa: S307 - jetlag-grammar text only
