"""Shared utilities: deterministic RNG, run logs, table printing, crash-safe
file writes."""

from repro.utils.atomic import (
    atomic_write_bytes,
    crc32_bytes,
    crc32_file,
    recover_jsonl,
)
from repro.utils.logging import RunLog
from repro.utils.rng import SeedBank
from repro.utils.tables import format_float, format_table, print_table

__all__ = [
    "atomic_write_bytes",
    "crc32_bytes",
    "crc32_file",
    "recover_jsonl",
    "RunLog",
    "SeedBank",
    "format_float",
    "format_table",
    "print_table",
]
