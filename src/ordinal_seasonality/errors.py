"""The package's one exception type, and the one rule for arguments that must be whole numbers."""

import numpy as np


class InvalidInputError(ValueError):
    """Input violates a precondition: a malformed file or row, a wrong length, a non-finite value, ...

    The message names what failed, with ``row N:`` when a CSV data row is at
    fault.  The CLI reports it as ``error: <message>`` and exits 2.
    """


def whole_number(value, name: str) -> int:
    """``value`` as an int: an int, a numpy integer or a whole float such as 4.0; anything else raises."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    number = float(value)
    if not number.is_integer():  # nan and the infinities too
        raise InvalidInputError(f"{name} must be a whole number, got {value}")
    return int(number)
