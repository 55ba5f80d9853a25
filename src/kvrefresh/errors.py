"""Exception types shared across the package, and configuration type checks.

Two failure classes are distinguished so the CLI can map them to exit
codes: bad configuration (caught before compute starts) and broken
runtime contracts (caught mid-run, always a bug or misuse).
"""

import numbers


class ConfigurationError(ValueError):
    """Invalid configuration value or inconsistent configuration."""


class ContractViolation(RuntimeError):
    """A runtime precondition or invariant was violated."""


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), bool: (bool, "true or false")}


def require(kind: type, **fields) -> None:
    """Raise ConfigurationError unless every field value is of `kind` (int, float or bool).

    Bools never pass as numbers, and floats never pass as integers.
    """
    abstract, noun = _KINDS[kind]
    for name, value in fields.items():
        if not isinstance(value, abstract) or (kind is not bool and isinstance(value, bool)):
            raise ConfigurationError(f"{name} must be {noun}, got {value!r}")
