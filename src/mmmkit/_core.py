"""The row-reduction core: one sparse integer reduction step.

Every exact elimination in ``exactq`` runs through `reduce_row`, on rows
kept as dicts ``{column: int}`` of their nonzero entries.  Clearing a column
by integer combinations, and dividing a row by its content whenever the
combination scaled it, keeps every entry integral and small without
Fraction overhead; callers divide each output row by its pivot entry to
recover the rational reduced row echelon form.
"""

from itertools import compress
from math import gcd


def reduce_row(r, pivot, j):
    """Clear column ``j`` of row ``r`` against ``pivot``, both nonzero there.

    With a and b the entries of ``pivot`` and ``r`` at j over their gcd, the
    result is a r - b pivot, divided by its content when a is not 1.  ``r``
    may be changed in place; the result is the returned dict.
    """
    g = gcd(pivot[j], r[j])
    a, b = pivot[j] // g, r[j] // g
    if a != 1:
        r = {k: a * c for k, c in r.items()}
    for k, c in pivot.items():
        c = r.get(k, 0) - b * c
        if c:
            r[k] = c
        else:
            del r[k]
    if a != 1:
        content = gcd(*r.values())
        if content != 1:
            r = {k: c // content for k, c in r.items()}
    return r


def rref_int(rows, ncols):
    """Row-reduce an integer matrix, returning scaled-integer RREF rows.

    ``rows`` is a sequence of length-``ncols`` lists of ints; it is not
    modified.  Returns ``(out, pivots)`` where ``out[i]`` is a primitive
    integer row (content gcd 1, positive pivot entry) proportional to row i
    of the rational RREF and ``pivots[i]`` is its pivot column.  Zero rows
    are dropped.

    Each row is reduced by its leading column against the rows kept so far
    until it is new there or vanishes; once ``ncols`` rows are kept every
    other row would vanish.  Each kept row is then cleared at every later
    pivot in ascending order, the rows of later pivots first, so it is
    cleared against rows already reduced, and scaled to content 1 with a
    positive pivot entry.
    """
    kept = {}  # pivot column -> row
    for row in rows:
        if len(kept) == ncols:
            break
        r = dict(compress(enumerate(row), row))
        while r:
            j = min(r)
            pivot = kept.get(j)
            if pivot is None:
                kept[j] = r
                break
            r = reduce_row(r, pivot, j)
    pivots = sorted(kept)
    for p in reversed(pivots):
        r = kept[p]
        # The rows of later pivots are reduced already, so clearing one
        # column brings in no other pivot column.
        for q in sorted(q for q in r if q > p and q in kept):
            r = reduce_row(r, kept[q], q)
        content = gcd(*r.values()) if r[p] > 0 else -gcd(*r.values())
        kept[p] = {k: c // content for k, c in r.items()}
    return [[kept[p].get(k, 0) for k in range(ncols)] for p in pivots], pivots
