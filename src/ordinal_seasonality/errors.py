"""The package's one exception type."""


class InvalidInputError(ValueError):
    """Input violates a precondition: a malformed file or row, a wrong length, a non-finite value, ...

    The message names what failed, with ``row N:`` when a CSV data row is at
    fault.  The CLI reports it as ``error: <message>`` and exits 2.
    """
