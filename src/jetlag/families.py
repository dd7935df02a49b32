"""Morse families: energy functions over a cotangent base with fiber multipliers.

A family may carry auxiliary momentum-defining relations (the acceleration
bundle pipeline records pa = dF/da there).  Each relation comes with its own
multiplier symbol; the total energy E + sum(mult * relation) restores the
unreduced family, which is what dynamics and rank checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .calculus import diff
from .charts import ChartSpec
from .errors import ChartMismatchError
from .expr import Expr, add, mul, neg, simplify
from .symbols import Kind


@dataclass(frozen=True)
class MorseFamily:
    base: ChartSpec
    fibers: tuple
    energy: Expr
    # (multiplier symbol, constraint expr) pairs recorded outside the fibers
    extra_relations: tuple = ()
    label: str = ""

    def __post_init__(self):
        if not self.base.positions or len(self.base.positions) != len(self.base.momenta):
            raise ChartMismatchError(
                f"Morse family base must pair positions with momenta ({self.base.space})"
            )
        allowed = set(self.base.roster) | set(self.all_fibers)
        stray = {
            s
            for s in self.total_energy.free
            if s.kind is not Kind.PARAM and s not in allowed
        }
        if stray:
            raise ChartMismatchError(f"energy uses symbols outside base and fibers: {sorted(stray)}")

    @property
    def all_fibers(self) -> tuple:
        return self.fibers + tuple(m for m, _ in self.extra_relations)

    @cached_property
    def total_energy(self) -> Expr:
        total = self.energy
        for mult, relation in self.extra_relations:
            total = add(total, mul(mult, relation))
        return simplify(total)

    def fiber_equations(self) -> list:
        """d(total energy)/d(fiber) = 0, one expression per fiber symbol."""
        total = self.total_energy
        return [diff(total, lam) for lam in self.all_fibers]


def legendre_sum(lagrangian: Expr, pairs) -> Expr:
    """sum p v - L over (momentum, velocity) pairs, in their order, unsimplified:
    the energy of both routes, before or after a substitution."""
    total = neg(lagrangian)
    for momentum, velocity in pairs:
        total = add(total, mul(momentum, velocity))
    return total
