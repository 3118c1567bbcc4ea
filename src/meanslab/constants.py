"""Sharp constants of the mean comparisons, exactly and to 40 digits.

Every best-possible weight or bound in the inequality catalog is the limit
of its record's quotient at a = b or at a/b → ∞, and :mod:`meanslab.records`
derives its name, the claim it is sharp in, its exact text and its place in
the listing from the record's spec and each mean's two ends.  This module
holds :class:`SharpConstant`, p0's definition, and :func:`expr_value`,
which parses a text and computes the high-precision value from it.

Expression grammar (a subset of Python expression syntax): integer
literals, unary minus, ``+ - * /``, parentheses, the one-argument calls
``sqrt(x)`` and ``ln(x)``, and the names ``e``, ``pi`` and ``p0`` (the root
of a scalar equation).  Every value is a finite real: a division by zero or
a call outside its real domain is refused, as text outside the grammar is.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .errors import ParameterError

__all__ = ["SharpConstant", "expr_value", "solve_p0", "p0_residual"]

_DPS = 40

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_CALLS = {"sqrt": mp.sqrt, "ln": mp.log}


def expr_value(text: str) -> mp.mpf:
    """Evaluate an exact expression at the current mpmath precision.

    The text is parsed, never executed: any syntax outside the module's
    grammar raises ParameterError.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ParameterError(f"cannot parse expression {text!r}: {exc}") from None
    return _node_value(tree.body, text)


def _node_value(node, text: str) -> mp.mpf:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return mp.mpf(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_node_value(node.operand, text)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _node_value(node.left, text), _node_value(node.right, text)
        if isinstance(node.op, ast.Div) and not right:
            raise ParameterError(f"division by zero in expression {text!r}")
        return _BINARY[type(node.op)](left, right)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _CALLS
        and len(node.args) == 1
        and not node.keywords
    ):
        value = _CALLS[node.func.id](_node_value(node.args[0], text))
        if not (isinstance(value, mp.mpf) and mp.isfinite(value)):  # ln(0) is -inf, sqrt(-1) an mpc
            raise ParameterError(f"{ast.unparse(node)!r} is not a finite real in expression {text!r}")
        return value
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return +_NAMES[node.id]()
    raise ParameterError(f"unsupported term {ast.unparse(node)!r} in expression {text!r}")


def _p0_gap(p: mp.mpf) -> mp.mpf:
    """(p+1)^(1/p) - 2 ln(1+√2) at the current precision; p0 is its root."""
    return mp.power(p + 1, 1 / p) - 2 * mp.log(1 + mp.sqrt(2))


@lru_cache(maxsize=1)
def _p0_hp() -> mp.mpf:
    """The root p0 of :func:`_p0_gap`, to well past 40 digits."""
    with mp.workdps(60):
        return mp.findroot(_p0_gap, mp.mpf("1.84"))


_NAMES = {"e": lambda: mp.e, "pi": lambda: mp.pi, "p0": _p0_hp}


def solve_p0() -> float:
    """The critical exponent p0, rounded to the nearest double."""
    return float(_p0_hp())


def p0_residual(p: float) -> float:
    """The absolute :func:`_p0_gap` at p, to 40 digits, rounded to the nearest double."""
    with mp.workdps(_DPS):
        return float(abs(_p0_gap(mp.mpf(p))))


@dataclass(frozen=True)
class SharpConstant:
    """One best-possible constant: the claim it is sharp in (``context``),
    its exact expression text and its value.

    ``value`` carries 40 significant digits.  ``definition`` is set only
    for constants that are roots rather than closed forms.
    """

    name: str
    context: str
    exact_expr: str
    value: mp.mpf
    definition: str | None = None

    @property
    def float_value(self) -> float:
        return float(self.value)


_P0_DEFINITION = "unique root of (p+1)^(1/p) = 2*ln(1+sqrt(2)) on [1.5, 2.5]"


def _sharp_constant(name: str, context: str, text: str) -> SharpConstant:
    """The constant ``name``, sharp in the claim ``context``, of a derived
    text, with its value to 40 digits and, for p0, its definition;
    ParameterError if the text has no finite real value."""
    with mp.workdps(_DPS):
        value = expr_value(text)
    return SharpConstant(name, context, text, value, _P0_DEFINITION if text == "p0" else None)
