"""Reference implementations that tests compare the library against.

The strip rule here is the generate-and-filter form: every grid partition
above lam at the right distance, each tested span by span.  The library's
``lenart_strips`` walks the odd-coefficient strips directly instead.
"""

from grqn.young import NotContained, Partition, _extensions, contains


def covers_at_distance(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """Grid partitions mu containing lam with |mu| - |lam| = k."""
    if k <= 0:
        raise ValueError(f"distance must be positive, got {k}")
    if len(lam) > d or (lam and lam[0] > c):
        raise ValueError(f"{lam} does not fit in a {d}x{c} grid")
    return _extensions(lam, k, d, c)


def lenart_coefficient(lam: Partition, mu: Partition) -> int:
    """Mod-2 border-strip coefficient of s_mu in the image of s_lam.

    Zero unless mu/lam is a broken border strip with at most two components;
    one for two components; for a single component, the parity of the total
    content of the sharp and dull corners.
    """
    if not contains(mu, lam):
        raise NotContained(f"{lam} is not contained in {mu}")
    spans = []
    for i, hi in enumerate(mu, start=1):
        lo = lam[i - 1] if i <= len(lam) else 0
        if hi > lo:
            spans.append((i, lo, hi))
    if not spans:
        return 0
    comps = 1
    for (i1, lo1, _hi1), (i2, _lo2, hi2) in zip(spans, spans[1:]):
        if i2 != i1 + 1:
            comps += 1
            continue
        overlap = hi2 - lo1
        if overlap >= 2:
            return 0
        if overlap <= 0:
            comps += 1
    if comps > 2:
        return 0
    if comps == 2:
        return 1
    total = 0
    for idx, (i, lo, hi) in enumerate(spans):
        above = spans[idx - 1] if idx and spans[idx - 1][0] == i - 1 else None
        if above is None or above[1] != lo:
            total += lo + 1 - i
        if above is not None and above[1] >= lo + 1 and above[1] + 1 <= hi:
            total += above[1] + 1 - i
    return total & 1


def filtered_strips(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """The candidates above lam whose strip coefficient is one."""
    return [mu for mu in covers_at_distance(lam, k, d, c) if lenart_coefficient(lam, mu)]
