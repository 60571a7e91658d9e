"""The one data-error class, which the CLI maps to exit code 2, and the one
guard that refuses an input too large to hold in memory."""

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
