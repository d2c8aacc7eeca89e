"""Partition combinatorics for the border-strip calculus.

Partitions are plain tuples of weakly decreasing positive integers.
Everything is a pure value, safe to share between workers.
"""

from __future__ import annotations

Partition = tuple[int, ...]


def partitions_in_grid(d: int, c: int) -> list[Partition]:
    """All partitions with at most d parts, each at most c.

    Graded by weight, lexicographically descending within a weight; the list
    has length C(d + c, d).  One depth-first pass tries each row's values
    from largest to smallest, which visits the partitions in descending
    lexicographic order; each goes to the bucket for its weight.
    """
    if d < 0 or c < 0:
        raise ValueError(f"grid sides must be nonnegative: {d}x{c}")
    buckets: list[list[Partition]] = [[] for _ in range(d * c + 1)]

    def rec(prefix: Partition, weight: int, cap: int) -> None:
        if len(prefix) < d:
            for v in range(cap, 0, -1):
                rec(prefix + (v,), weight + v, v)
        buckets[weight].append(prefix)  # after every extension: a zero row sorts last

    rec((), 0, c)
    return [lam for bucket in buckets for lam in bucket]


def lenart_strips(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """Grid partitions mu with k more boxes than lam and odd strip coefficient.

    The mod-2 border-strip coefficient of s_mu in the image of s_lam is zero
    unless mu/lam is a broken border strip with one or two ribbons (edge-
    connected components); it is one for two ribbons, and for one ribbon the
    parity of the contents of its sharp and dull corners.  So the walk places
    whole ribbons, top to bottom, and emits nothing else.

    With rows numbered from 0 and lam padded to d rows: a ribbon on rows
    a..b has mu_i = lam_{i-1} + 1 on each row below a (one more box would
    make a 2x2 block, one fewer would break it), so its size s fixes its top
    row at mu_a = s + lam_b - (b - a).  That top must exceed lam_a and stay
    at most lam_{a-1} (c on row 0): further right it would touch or overhang
    the row above.  Only rows where lam has an addable box can start one.
    Below row a each pair of consecutive rows adds corner contents of
    parity lam_{i-1} + lam_i, which telescopes, so a single ribbon's
    coefficient is lam_b + a mod 2.  ``lam`` must fit the d x c grid; each
    mu is listed once, in no particular order.
    """
    base = lam + (0,) * (d - len(lam))
    step = tuple(p + 1 for p in base)
    starts: list[tuple[int, int, int]] = []
    # room[j]: the largest ribbon that can start on row j or below
    room = [0] * (d + 1)
    for a in range(d - 1, -1, -1):
        cap = base[a - 1] if a else c
        room[a] = room[a + 1]
        if cap > base[a]:
            starts.append((a, base[a], cap))
            room[a] = max(room[a], cap - base[-1] + d - 1 - a)
    starts.reverse()
    out: list[Partition] = []
    for i, (a1, lo1, cap1) in enumerate(starts):
        if cap1 - base[-1] + d - 1 - a1 + room[a1 + 1] < k:
            continue  # the rows from a1 down cannot hold k boxes
        head = base[:a1]
        for b1 in range(a1, d):
            off1 = base[b1] - b1 + a1
            if lo1 - off1 >= k:
                break
            top = k + off1
            if top <= cap1 and (base[b1] + a1) & 1:
                out.append(head + (top,) + step[a1:b1] + lam[b1 + 1 :])
            # second ribbon below: its size k - s1 must fit in room[b1 + 1]
            for top1 in range(max(lo1 + 1, top - room[b1 + 1]), min(cap1, top - 1) + 1):
                rem = top - top1
                first = head + (top1,) + step[a1:b1]
                for a2, lo2, cap2 in starts[i + 1 :]:
                    if a2 <= b1:
                        continue
                    mid = first + base[b1 + 1 : a2]
                    for b2 in range(a2, d):
                        top2 = rem + base[b2] - b2 + a2
                        if top2 <= lo2:
                            break
                        if top2 <= cap2:
                            out.append(mid + (top2,) + step[a2:b2] + lam[b2 + 1 :])
    return out
