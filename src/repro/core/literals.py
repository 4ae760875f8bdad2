"""Literal and quantifier primitives.

Variables are positive integers ``1, 2, 3, ...``. A *literal* is a nonzero
integer: ``v`` denotes the positive literal of variable ``v`` and ``-v`` its
negation. This is the classical DIMACS encoding, chosen because the solver
kernel manipulates literals in tight loops and plain integers are the fastest
hashable value in CPython.

The module also defines :class:`Quant`, the two quantifier kinds, used by the
prefix tree (:mod:`repro.core.prefix`) and everything above it.
"""

from __future__ import annotations

import enum
from typing import Iterable, Tuple


class Quant(enum.Enum):
    """Quantifier kind of a variable or of a quantifier block."""

    EXISTS = "e"
    FORALL = "a"

    @property
    def dual(self) -> "Quant":
        """Return the other quantifier (``∃`` for ``∀`` and vice versa)."""
        if self is Quant.EXISTS:
            return Quant.FORALL
        return Quant.EXISTS

    @property
    def symbol(self) -> str:
        """Unicode symbol, for pretty-printing prefixes."""
        return "∃" if self is Quant.EXISTS else "∀"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.symbol


#: Convenient aliases so call sites can say ``EXISTS``/``FORALL`` directly.
EXISTS = Quant.EXISTS
FORALL = Quant.FORALL


def var_of(lit: int) -> int:
    """Return the variable of ``lit`` (the paper's ``|l|``)."""
    return lit if lit > 0 else -lit


def neg(lit: int) -> int:
    """Return the complementary literal (the paper's ``l̄``)."""
    return -lit


def sign(lit: int) -> bool:
    """True for a positive literal, False for a negated one."""
    return lit > 0


def lit_name(lit: int, prefix_hint: str = "z") -> str:
    """Human readable rendering such as ``z3`` / ``¬z3`` for debugging."""
    v = var_of(lit)
    body = "%s%d" % (prefix_hint, v)
    return body if lit > 0 else "¬" + body


def check_no_duplicate_vars(lits: Iterable[int]) -> Tuple[int, ...]:
    """Validate that no variable occurs twice (in either polarity).

    The paper's clause definition requires ``|l_i| != |l_j]`` for each pair of
    literals in a clause; the same well-formedness applies to cubes. Returns
    the literals as a tuple, sorted by variable then sign, so that syntactic
    equality of constraints is canonical.

    A tuple already in that form (variables strictly increasing) is
    returned as is after one scan; learned constraints arrive that way.

    Raises:
        ValueError: if a variable occurs twice or a literal is zero.
    """
    if isinstance(lits, tuple):
        prev = 0
        for lit in lits:
            v = lit if lit > 0 else -lit
            if v <= prev:  # also catches 0
                break
            prev = v
        else:
            return lits
    out = sorted(set(lits), key=lambda l: (var_of(l), l))
    seen = set()
    for lit in out:
        if lit == 0:
            raise ValueError("0 is not a literal")
        v = var_of(lit)
        if v in seen:
            raise ValueError("variable %d occurs twice in %r" % (v, out))
        seen.add(v)
    return tuple(out)
