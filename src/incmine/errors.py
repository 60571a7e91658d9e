"""Shared exception base so the CLI can map domain failures to one exit code,
and the one guard that refuses an input too large to hold in memory."""

# largest array (or set of arrays) built for one input, in bytes (4 GiB: a
# distance matrix of about 23k points); larger inputs are refused before
# anything is allocated
MAX_ALLOCATION_BYTES = 4 * 2**30


class IncmineError(Exception):
    """Base class for all data/domain errors raised by this package."""


class AllocationError(IncmineError):
    """An input needs more than ``MAX_ALLOCATION_BYTES``."""


def check_allocation(n_bytes: int, what: str) -> None:
    """Refuse ``what`` before it is allocated when it takes more than
    ``MAX_ALLOCATION_BYTES``."""
    if n_bytes > MAX_ALLOCATION_BYTES:
        from decimal import Decimal  # holds any size; a float overflows past 1e308

        raise AllocationError(
            f"{what} needs {Decimal(n_bytes) / 2**30:.1f} GiB, above the "
            f"{MAX_ALLOCATION_BYTES / 2**30:.1f} GiB limit")
