"""The row-reduction core: integer Gauss-Jordan elimination.

Every exact elimination in ``exactq`` runs here, on lists of Python ints.
Keeping all entries integral with per-row content reduction avoids Fraction
overhead in the inner loop while staying exact; callers divide each output
row by its pivot entry to recover the rational reduced row echelon form.
"""

from math import gcd


def _row_content(row, ncols):
    g = 0
    for c in range(ncols):
        v = row[c]
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def rref_int(rows, ncols):
    """Row-reduce an integer matrix, returning scaled-integer RREF rows.

    ``rows`` is a sequence of length-``ncols`` lists of ints; it is not
    modified.  Returns ``(out, pivots)`` where ``out[i]`` is a primitive
    integer row (content gcd 1, positive pivot entry) proportional to row i
    of the rational RREF and ``pivots[i]`` is its pivot column.  Zero rows
    are dropped.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = -1
        for r in range(pr, nrows):
            if m[r][pc]:
                pivot_row = r
                break
        if pivot_row < 0:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
        row = m[pr]
        # Entries left of pc are zero in every row at or below pr, so the
        # pivot row only needs normalising from pc onward.
        if row[pc] < 0:
            for c in range(pc, ncols):
                row[c] = -row[c]
        g = _row_content(row, ncols)
        if g > 1:
            for c in range(pc, ncols):
                row[c] //= g
        piv = row[pc]
        for r in range(nrows):
            if r == pr:
                continue
            other = m[r]
            f = other[pc]
            if not f:
                continue
            for c in range(ncols):
                other[c] = piv * other[c] - f * row[c]
            g = _row_content(other, ncols)
            if g > 1:
                for c in range(ncols):
                    other[c] //= g
        pivots.append(pc)
        pr += 1
        if pr == nrows or pr == ncols:
            # Either no rows are left, or the column space is full and every
            # remaining row must reduce to zero.
            break
    return m[:pr], pivots
