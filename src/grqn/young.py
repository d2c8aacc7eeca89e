"""Schubert classes as bead words, and the strip rules on them.

A partition lam in the d x c grid is an m-bit int, m = d + c, with one bead
per row: row i (from 0, lam padded to d rows) puts its bead at bit
lam_i + d - 1 - i.  This is the Maya diagram of lam (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.1 Ex. 8): adding one box to row i moves
its bead up one slot, and adding a ribbon of k boxes moves one bead up k
slots.  Words with the same weight compare as integers the way their
partitions compare lexicographically.  The vertical strips of every size
come from one walk, one list step per run of movable beads.  Everything is
a pure value, safe to share between workers.
"""

from __future__ import annotations


def partitions_in_grid(d: int, c: int) -> dict[int, list[int]]:
    """Bead words of the partitions with at most d parts, each at most c.

    Keyed by weight 0..dc, each list descending, which is descending
    lexicographic order on the partitions; C(d + c, d) words in all.  One
    depth-first pass places the beads from the top row down, each from its
    highest free slot to its lowest, so the words of each weight arrive in
    order.  A row left empty leaves every row below it empty too.
    """
    if d < 0 or c < 0:
        raise ValueError(f"grid sides must be nonnegative: {d}x{c}")
    buckets: dict[int, list[int]] = {t: [] for t in range(d * c + 1)}

    def rec(rows: int, hi: int, w: int, weight: int) -> None:
        # rows beads are left to place below slot hi: this row's part is
        # p - rows + 1 >= 1, or 0, which puts this row and all below at the bottom
        if rows:
            for p in range(hi - 1, rows - 1, -1):
                rec(rows - 1, p, w | 1 << p, weight + p - rows + 1)
        buckets[weight].append(w | (1 << rows) - 1)

    rec(d, d + c, 0, 0)
    return buckets


def bits(x: int):
    """Positions of the set bits of x, highest first."""
    while x:
        p = x.bit_length() - 1
        yield p
        x ^= 1 << p


def sized_vertical_strips(w: int, m: int) -> list[tuple[int, int]]:
    """Pairs (j, mu): mu is w with j >= 1 boxes added, at most one per row.

    Every size up to the most boxes that fit, each mu once, in no particular
    order.  Each run of consecutive beads whose next slot ``top`` is empty
    (and inside the word) can move its top s beads up one slot, whatever the
    other runs do.  That clears bit top - s and sets bit top, which are set
    and clear in every word the runs above made, so it adds
    2^top - 2^(top - s): each run is one list step over the pairs.
    """
    strips = [(0, w)]
    for top in bits(w << 1 & ~w & (1 << m) - 1):
        run = top - (~w & (1 << top) - 1).bit_length()
        steps = [(s, (1 << top) - (1 << top - s)) for s in range(run + 1)]
        strips = [(j + s, v + step) for j, v in strips for s, step in steps]
    return strips[1:]  # the first pair moved no bead


def lenart_strips(w: int, k: int, d: int, m: int) -> list[int]:
    """Grid words mu with k more boxes than w and odd strip coefficient.

    With w the word of lam, the mod-2 border-strip coefficient of s_mu in
    the image of s_lam is zero unless mu/lam is a broken border strip with
    one or two ribbons (edge-connected components); it is one for two
    ribbons, and for one ribbon the parity of the contents of its sharp and
    dull corners.  In bead words:

    * one ribbon moves a bead p to an empty slot p + k < m; with h beads
      strictly between them, its coefficient is p + d + 1 + h mod 2 (for a
      ribbon on rows a..b this is lam_b + a, the telescoped corner sum);
    * two ribbons move beads p1 < p2 up k1 + k2 = k slots, k1, k2 >= 1, to
      empty slots p1 + k1 < p2 and p2 + k2 < m.

    Each mu is listed once, in no particular order.
    """
    if k >= m:
        return []
    # w & free >> s: the beads whose slot s higher is empty and inside the
    # word; each loop takes the set bits of such a mask from the highest down
    free = ~w & (1 << m) - 1
    between, out, x = (1 << k - 1) - 1, [], w & free >> k
    while x:
        x ^= 1 << (p := x.bit_length() - 1)
        if p + d + 1 + (w >> p + 1 & between).bit_count() & 1:
            out.append(w ^ (1 | 1 << k) << p)
    for k1 in range(1, k):
        lower = w & free >> k1
        if not lower:
            continue
        jump, k2 = 1 | 1 << k1, k - k1
        x = (w & free >> k2) >> k1 + 1 << k1 + 1  # p2 > k1 leaves room below
        while x:
            x ^= 1 << (p2 := x.bit_length() - 1)
            upper, y = w ^ (1 | 1 << k2) << p2, lower & (1 << p2 - k1) - 1
            while y:
                y ^= 1 << (p1 := y.bit_length() - 1)
                out.append(upper ^ jump << p1)
    return out
