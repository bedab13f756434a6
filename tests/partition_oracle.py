"""Exhaustive-enumeration oracle for ``qpwalk.maximal_partitions``.

It enumerates set partitions, so its cost grows exponentially with the
number of terms and it refuses more than twelve.
"""

from typing import Callable, Optional

from qpwalk.errors import QpwalkError
from qpwalk.terms import COUPLE_TOL, GammaSet, PartitionResult


class TooLarge(QpwalkError):
    """Brute-force enumeration refused for oversized input."""


def _best_valid_partition(n: int, linked: Callable[[int, int], bool]):
    """Unique valid partition with the most parts, by full enumeration.

    Items are placed one at a time; an item with already-placed linked
    partners must join their block (two distinct partner blocks kill the
    branch, since the pair spanning them could never be reunited).  This
    generates every partition in which linked items share a block exactly
    once.
    """
    blocks: list[list[int]] = []
    best: Optional[tuple[tuple[int, ...], ...]] = None
    best_count = -1
    duplicates = 0

    def place(i: int) -> None:
        nonlocal best, best_count, duplicates
        if i == n:
            if len(blocks) > best_count:
                best_count = len(blocks)
                best = tuple(tuple(b) for b in blocks)
                duplicates = 0
            elif len(blocks) == best_count:
                duplicates += 1
            return
        partner_blocks = [
            bi for bi, blk in enumerate(blocks) if any(linked(i, j) for j in blk)
        ]
        if len(partner_blocks) > 1:
            return
        if len(partner_blocks) == 1:
            blocks[partner_blocks[0]].append(i)
            place(i + 1)
            blocks[partner_blocks[0]].pop()
            return
        for bi in range(len(blocks)):
            blocks[bi].append(i)
            place(i + 1)
            blocks[bi].pop()
        blocks.append([i])
        place(i + 1)
        blocks.pop()

    place(0)
    if duplicates:
        raise AssertionError(
            f"maximal valid partition is not unique: {duplicates + 1} maximizers"
        )
    return best


def brute_force_partition(g: GammaSet) -> PartitionResult:
    """Exhaustive-enumeration oracle for maximal_partitions.

    Raises
    ------
    TooLarge
        For more than 12 terms; set partitions grow too fast beyond that.
        Twelve is just enough for the twelve-point reference fixture.
    """
    n = len(g.terms)
    if n > 12:
        raise TooLarge(f"{n} terms exceed the brute-force limit of 12")
    terms = g.terms

    def same_rho(i: int, j: int) -> bool:
        return abs(terms[i].rho - terms[j].rho) <= COUPLE_TOL * max(
            terms[i].rho, terms[j].rho
        )

    def same_sigma(i: int, j: int) -> bool:
        return abs(terms[i].sigma - terms[j].sigma) <= COUPLE_TOL * max(
            terms[i].sigma, terms[j].sigma
        )

    return PartitionResult(
        h_groups=_best_valid_partition(n, same_rho),
        v_groups=_best_valid_partition(n, same_sigma),
        g_groups=_best_valid_partition(
            n, lambda i, j: same_rho(i, j) or same_sigma(i, j)
        ),
    )
