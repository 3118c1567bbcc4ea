"""Sharp constants of the mean comparisons, exactly and to 40 digits.

Every best-possible weight or bound in the inequality catalog is an exact
expression over a tiny vocabulary: integers, √2, ln(1+√2), e, and one
number p0 defined by a scalar root equation.  Each constant is stored once,
as the formula text that reports print; :func:`expr_value` parses that text
and computes the high-precision value from it.

Expression grammar (a subset of Python expression syntax): integer
literals, unary minus, ``+ - * /``, parentheses, the one-argument calls
``sqrt(x)`` and ``ln(x)``, and the names ``e`` and ``p0``.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .errors import ParameterError

__all__ = ["SharpConstant", "sharp_constants", "constant", "expr_value", "solve_p0", "p0_residual"]

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
        return _BINARY[type(node.op)](_node_value(node.left, text), _node_value(node.right, text))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _CALLS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _CALLS[node.func.id](_node_value(node.args[0], text))
    if isinstance(node, ast.Name) and node.id == "e":
        return +mp.e
    if isinstance(node, ast.Name) and node.id == "p0":
        return +_p0_hp()
    raise ParameterError(f"unsupported term {ast.unparse(node)!r} in expression {text!r}")


def _p0_gap(p: mp.mpf) -> mp.mpf:
    """(p+1)^(1/p) - 2 ln(1+√2) at the current precision; p0 is its root."""
    return mp.power(p + 1, 1 / p) - 2 * mp.log(1 + mp.sqrt(2))


@lru_cache(maxsize=1)
def _p0_hp() -> mp.mpf:
    """The root p0 of :func:`_p0_gap`, to well past 40 digits."""
    with mp.workdps(60):
        return mp.findroot(_p0_gap, mp.mpf("1.84"))


def solve_p0() -> float:
    """The critical exponent p0, rounded to the nearest double."""
    return float(_p0_hp())


def p0_residual(p: float) -> float:
    """The absolute :func:`_p0_gap` at p, to 40 digits, rounded to the nearest double."""
    with mp.workdps(_DPS):
        return float(abs(_p0_gap(mp.mpf(p))))


@dataclass(frozen=True)
class SharpConstant:
    """One best-possible constant: exact expression text and value.

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


_TABLE: tuple[tuple[str, str, str, str | None], ...] = (
    ("thm3.1.lower", "sharp lower bound of (M - C)/CH", "1/(2*ln(1+sqrt(2))) - 1", None),
    ("thm3.1.upper", "sharp upper bound of (M - C)/CH", "-5/12", None),
    ("cor3.1.lower", "sharp coefficient in alpha*CH < C - M", "5/12", None),
    ("cor3.1.upper", "sharp coefficient in C - M < beta*CH", "1 - 1/(2*ln(1+sqrt(2)))", None),
    ("cor3.2.lower", "sharp coefficient in alpha*CH < Cbar - M", "1/12", None),
    ("cor3.2.upper", "sharp coefficient in Cbar - M < beta*CH", "2/3 - 1/(2*ln(1+sqrt(2)))", None),
    ("thm3.2.lower", "sharp one-sided bound in lambda*CH < M", "1/(2*ln(1+sqrt(2)))", None),
    ("thm3.3.lower", "sharp weight in alpha*Q + (1-alpha)*M < Cbar", "1/2", None),
    (
        "thm3.3.upper",
        "sharp weight in Cbar < beta*Q + (1-beta)*M",
        "(3 - 4*ln(1+sqrt(2)))/(3*(1 - sqrt(2)*ln(1+sqrt(2))))",
        None,
    ),
    (
        "thm3.4.lower",
        "sharp weight in alpha*C + (1-alpha)*M < Q",
        "(sqrt(2)*ln(1+sqrt(2)) - 1)/(2*ln(1+sqrt(2)) - 1)",
        None,
    ),
    ("thm3.4.upper", "sharp weight in Q < beta*C + (1-beta)*M", "2/5", None),
    (
        "neuman-QA.lower",
        "sharp weight in alpha*Q + (1-alpha)*A < M",
        "(1 - ln(1+sqrt(2)))/((sqrt(2) - 1)*ln(1+sqrt(2)))",
        None,
    ),
    ("neuman-QA.upper", "sharp weight in M < beta*Q + (1-beta)*A", "1/3", None),
    (
        "neuman-CA.lower",
        "sharp weight in lambda*C + (1-lambda)*A < M",
        "(1 - ln(1+sqrt(2)))/ln(1+sqrt(2))",
        None,
    ),
    ("neuman-CA.upper", "sharp weight in M < mu*C + (1-mu)*A", "1/6", None),
    ("zhao-HQ.lower", "sharp weight in alpha*H + (1-alpha)*Q < M", "2/9", None),
    ("zhao-HQ.upper", "sharp weight in M < beta*H + (1-beta)*Q", "1 - 1/(sqrt(2)*ln(1+sqrt(2)))", None),
    ("zhao-GQ.lower", "sharp weight in alpha*G + (1-alpha)*Q < M", "1/3", None),
    ("zhao-GQ.upper", "sharp weight in M < beta*G + (1-beta)*Q", "1 - 1/(sqrt(2)*ln(1+sqrt(2)))", None),
    ("zhao-HC.lower", "sharp weight in alpha*H + (1-alpha)*C < M", "1 - 1/(2*ln(1+sqrt(2)))", None),
    ("zhao-HC.upper", "sharp weight in M < beta*H + (1-beta)*C", "5/12", None),
    ("identric-IQ.lower", "sharp weight in alpha*I + (1-alpha)*Q < M", "1/2", None),
    (
        "identric-IQ.upper",
        "sharp weight in M < beta*I + (1-beta)*Q",
        "e*(sqrt(2)*ln(1+sqrt(2)) - 1)/((sqrt(2)*e - 2)*ln(1+sqrt(2)))",
        None,
    ),
    (
        "lp0-l2.lower",
        "largest exponent p with L_p below the asinh mean everywhere",
        "p0",
        "unique root of (p+1)^(1/p) = 2*ln(1+sqrt(2)) on [1.5, 2.5]",
    ),
)


@lru_cache(maxsize=1)
def sharp_constants() -> tuple[SharpConstant, ...]:
    """All sharp constants in the catalog, each with a 40-digit value."""
    with mp.workdps(_DPS):
        return tuple(
            SharpConstant(name, context, expr, expr_value(expr), definition)
            for name, context, expr, definition in _TABLE
        )


def constant(name: str) -> SharpConstant:
    """Look up a sharp constant by its catalog name."""
    for c in sharp_constants():
        if c.name == name:
            return c
    raise ParameterError(f"unknown sharp constant {name!r}")
