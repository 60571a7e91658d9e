"""The one data-error class, which the CLI maps to exit code 2, the one
guard that refuses an input too large to hold in memory, and the one grammar
of a number written as text (a flag, a config value, a text embedding)."""

import re

# largest array (or set of arrays) built for one input, in bytes (4 GiB: a
# distance matrix of about 23k points); larger inputs are refused before
# anything is allocated
MAX_ALLOCATION_BYTES = 4 * 2**30


class IncmineError(Exception):
    """A refused input: its message names the input and the reason."""


def check_allocation(n_bytes: int, what: str) -> None:
    """Refuse ``what`` before it is allocated when it takes more than
    ``MAX_ALLOCATION_BYTES``."""
    if n_bytes > MAX_ALLOCATION_BYTES:
        from decimal import Decimal  # holds any size; a float overflows past 1e308

        raise IncmineError(
            f"{what} needs {Decimal(n_bytes) / 2**30:.1f} GiB, above the "
            f"{MAX_ALLOCATION_BYTES / 2**30:.1f} GiB limit")


# a number written as text: ASCII digits with an optional sign, point and
# exponent, or nan, inf or infinity in any case. int() and float() alone
# would also read "1_5" as 15, U+0661 as 1 and " 5 " as 5.
NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                    r"|nan|inf(?:inity)?)", re.ASCII | re.IGNORECASE)


def strict_int(text: str) -> int:
    """``int(text)`` when ``text`` matches ``NUMBER``; ValueError otherwise."""
    if not NUMBER.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def strict_float(text: str) -> float:
    """``float(text)`` when ``text`` matches ``NUMBER``; ValueError otherwise."""
    if not NUMBER.fullmatch(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


# argparse names a flag's type in its "invalid int value: '1_0'" error
strict_int.__name__, strict_float.__name__ = "int", "float"
