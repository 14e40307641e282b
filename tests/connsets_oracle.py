"""An independent connected-set counter for the tests: the exhaustive scan.

The package counts connected sets by rooted extension or by the frontier
program.  ``count_connected_sets_bruteforce`` tests every one of the 2^n
vertex subsets for connectivity instead, so agreement between the two is
evidence for both.
"""

from relshape.connsets import ConnSetProfile
from relshape.graphs import mask_is_connected

BRUTEFORCE_CAP = 20


def count_connected_sets_bruteforce(g):
    """The connected-set profile of g by a scan of all 2^n vertex subsets;
    ValueError above order ``BRUTEFORCE_CAP``."""
    n = g.n
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"order {n} above brute-force cap {BRUTEFORCE_CAP}")
    counts = [0] * (n + 1)
    for mask in range(1, 1 << n):
        if mask_is_connected(g.adj, mask):
            counts[mask.bit_count()] += 1
    return ConnSetProfile(n, tuple(counts))
