"""Half-open interval sets on [0, 1) (or on a circle of unit length).

The unions that `iet_core.transport` carries and the tower statistics
read: sorted disjoint [a, b) pieces, with their measure, intersection and
symmetric difference.  Works with floats, Fractions or integers.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

__all__ = ["normalize", "measure", "intersect", "symdiff_measure"]


def normalize(pieces: Iterable[Interval]) -> List[Interval]:
    """Sort, drop empties, merge touching/overlapping pieces."""
    ps = sorted((a, b) for a, b in pieces if b > a)
    out: List[Interval] = []
    for a, b in ps:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def measure(pieces: Sequence[Interval]):
    return sum(b - a for a, b in pieces)


def intersect(xs: Sequence[Interval], ys: Sequence[Interval]) -> List[Interval]:
    xs, ys = normalize(xs), normalize(ys)
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            out.append((a, b))
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def symdiff_measure(xs: Sequence[Interval], ys: Sequence[Interval]):
    """Measure of the symmetric difference."""
    return measure(normalize(xs)) + measure(normalize(ys)) - 2 * measure(intersect(xs, ys))
