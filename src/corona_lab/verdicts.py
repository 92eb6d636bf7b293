"""The verdict record that decides every estimate the package certifies."""

import operator
from typing import NamedTuple

#: each sense's comparison, and the sign the slack widens its bound by
_SENSES = {
    "<=": (operator.le, 1.0),
    "<": (operator.lt, 1.0),
    ">=": (operator.ge, -1.0),
    ">": (operator.gt, -1.0),
}


class Verdict(NamedTuple):
    """One estimate: ``value`` against ``bound``, widened by ``slack``.

    With the default sense "<=" it holds when value <= bound + slack; ">="
    holds when value >= bound - slack, and "<" and ">" are the strict
    forms.  Every form is false on NaN.  ``where`` names what the estimate
    is about, for messages.  A record of arrays (value or bound) is tested
    elementwise by :meth:`passes`.
    """

    name: str
    value: float
    bound: float
    slack: float = 0.0
    where: object = None
    sense: str = "<="

    def passes(self):
        """The comparison on ``value``: a bool, or a bool array for arrays."""
        compare, sign = _SENSES[self.sense]
        return compare(self.value, self.bound + sign * self.slack)

    @property
    def holds(self) -> bool:
        return bool(self.passes())


def require(verdict: Verdict, error: type, message: str) -> Verdict:
    """``verdict`` if it holds; otherwise raise ``error`` with ``message``
    formatted by the verdict's fields, such as ``{value}`` and ``{where}``."""
    if verdict.holds:
        return verdict
    raise error(message.format(**verdict._asdict()))
