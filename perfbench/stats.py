"""The tail percentile rule behind op_tail_ms."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail_percentile(per_pass: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile that leaves ``beyond`` samples above it in one
    pass of ``per_pass`` operations.  It depends only on the workload's
    fixed operation count, so it is the same on every run and commit."""
    if per_pass <= beyond:
        raise ValueError(f"a pass of {per_pass} operations cannot leave {beyond} beyond")
    return 100.0 * (per_pass - beyond) / per_pass


def tail(values, per_pass: int, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond) by nearest rank at
    tail_percentile(per_pass); over k whole passes, k * beyond samples lie
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = -(-n * (per_pass - beyond) // per_pass)  # ceil in integers
    return ordered[rank - 1], tail_percentile(per_pass, beyond), n - rank

