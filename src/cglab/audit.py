"""The central-difference gradient oracle that ``check-gradients`` audits the
catalog's hand-derived gradients against; it loads only the problems layer."""

from __future__ import annotations

import numpy as np

from .problems import DimensionMismatch, NonFiniteOutput, ProblemInstance, Vector, _check_point

__all__ = ["fd_gradient"]


_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Entries fd_gradient keeps alive at once, over all the points of a batch;
# _spread sizes its blocks and groups by it.  A block path block of 2k rows
# of n counts each entry twice, for the temporary of its size that POWER's
# x**2 and VARDIM's x - 1 make: 65,536 entries (512 KB) timed 1.1x faster
# than 32,768, and no slower than 131,072 at a lower peak RSS (Xeon, 2 MB L2
# per core).  A term path group fits its rows' leaf blocks: 2, 3 and 4 times
# 65,536 ran at one speed within noise, at a peak RSS of 39.9, 40.3 and
# 42.2 MB (2 cores, Python 3.11, numpy 2.4).
_FD_BUDGET = 131072


def _spread(count: int, entries_each: int) -> int:
    """How many of ``count`` items go in a group: the fewest groups whose
    entries fit ``_FD_BUDGET`` (or of one item each), with the items spread
    evenly, so that only a last group can be smaller."""
    groups = -(-count // max(1, _FD_BUDGET // max(1, entries_each)))
    return max(1, -(-count // max(1, groups)))


# numpy's pairwise summation (Higham 1993), which np.add.reduce applies to
# each float64 row: a row of at most _PAIRWISE_LEAF entries is a leaf that
# numpy sums in one loop, and a longer row is the sum of its two halves,
# split at _pairwise_split(w).  tests/test_problems.py pins both against
# np.add.reduce.
_PAIRWISE_LEAF = 128


def _pairwise_split(w: int) -> int:
    """Where numpy's pairwise sum splits a row of ``w > 128`` entries: half
    the row, rounded down to its 8-way unrolled loop."""
    half = w // 2
    return half - half % 8


def fd_gradient(p: ProblemInstance, x: Vector) -> Vector:
    """Central-difference gradient oracle; never touches counters.

    ``x`` is one point or a batch of points, a ``(..., n)`` array, and the
    result has its shape: each row has the bits of the one-point call on
    that row.  ``check-gradients`` audits an instance's points in one call.
    The step in coordinate i is fixed, ``h_i = cbrt(eps) (1 + |x_i|)``, the
    usual balance of truncation vs. cancellation for central differences.
    Each component has the bits of two 1-D ``value_fn`` calls, at
    ``x + h_i e_i`` and ``x - h_i e_i``.

    Whole perturbed points are evaluated in one place, ``_block_values``:
    in ``(..., 2k, n)`` blocks within ``_FD_BUDGET``, per point the rows of
    ``x + h_i e_i`` for k coordinates followed by those of
    ``x - h_i e_i``.  The block buffer is filled with ``x`` once per call;
    each block writes in only its moved entries and, after the objective,
    writes ``x`` back over them.  The objective gets the block as a
    read-only array, and the batch contract makes it row-exact.  Without
    an element form every coordinate takes this path.  POWER and VARDIM do,
    since a weighted sum over all of x enters them through a row dot, whose
    order of additions is BLAS's and not a tree.

    With ``p.elements`` only the shared coordinates are whole points, and
    ``_block_values`` evaluates them through the form's ``value``: a shared
    coordinate may move every term and ``outer``'s value too.  For every
    other coordinate no point is evaluated.  The terms of ``x`` are
    computed once, and so are, per column, all terms with that column moved,
    one element call each: O(n (r + s)) element work per point for r
    columns and s shared coordinates.  A coordinate's row is then the terms
    of ``x`` with its few moved terms written in, and its value has to be
    that row's sum in ``np.add.reduce``'s bits.  numpy sums a row as a tree
    (see ``_PAIRWISE_LEAF``), so the row's sum differs from the sum of
    ``x``'s terms only along the paths from the leaves its moved terms fall
    in.  The walk down that tree re-sums, at each leaf, only the rows of the
    coordinates that move a term in it, as one ``np.add.reduce`` over a
    block of ``<= 128`` columns, and at each inner node adds left and right
    sums for those coordinates only, taking the base sum of a half that a
    coordinate does not move.  That is O(n 128 + n log n) work and O(n)
    memory per point.  Every row of terms, each sum of a form of c sums for
    each point, walks the tree together, in groups of rows whose leaf
    blocks fit ``_FD_BUDGET``; ``outer`` gets every row's sums with its
    point's shared values.
    """
    x = _check_point(p.name, (*np.shape(x)[:-1], p.dim), x)
    steps = _CBRT_EPS * (1.0 + np.abs(x))
    up, down = x + steps, x - steps
    if p.elements is None:
        f_up, f_down = _block_values(p.name, p.value_fn, x, up, down, np.arange(p.dim))
    else:
        f_up, f_down = _term_values(p, x, up, down)
    g = (f_up - f_down) / (2.0 * steps)
    if not np.isfinite(g).all():
        raise NonFiniteOutput(f"{p.name}: finite-difference gradient overflowed")
    return g


def _block_values(name: str, value, x: Vector, up: Vector, down: Vector, moved: Vector):
    """``value`` at ``x + steps e_i`` and ``x - steps e_i`` for each i in the
    non-empty index array ``moved`` and each point of ``x``, as two
    ``(..., len(moved))`` arrays, in blocks within ``_FD_BUDGET``."""
    *lead, n = x.shape
    count = len(moved)
    f_up, f_down = np.empty((*lead, count)), np.empty((*lead, count))
    # k coordinates per block, each 2 rows of n per point and counted
    # twice; a last block of fewer than k leaves rows that hold x
    k = _spread(count, 4 * x.size)
    # every row of buf holds its point between blocks: a block writes its
    # moved entries in, evaluates, and writes x back over exactly those
    # entries.  Point-major, so the block is C-ordered whatever its shape.
    buf = np.empty((*lead, 2 * k, n))
    buf[:] = x[..., None, :]
    flat = buf.reshape(-1)
    # value reads a view it cannot write, so that it cannot leave a stale
    # entry behind for the next block
    frozen = buf.view()
    frozen.flags.writeable = False
    # where row j < k of each point's block starts in flat; coordinate
    # moved[lo + j] moves in rows j and k + j.  Indexing flat with one index
    # array, and the moved values gathered once, keep a block's scatters as
    # cheap for a batch as for one point.
    rows = np.arange(0, buf.size, 2 * k * n).reshape(*lead, 1) + np.arange(0, k * n, n)
    ups, downs, xs = up[..., moved], down[..., moved], x[..., moved]
    for lo in range(0, count, k):
        at = moved[lo : lo + k]
        m = len(at)
        above = rows[..., :m] + at
        below = above + k * n
        flat[above] = ups[..., lo : lo + m]
        flat[below] = downs[..., lo : lo + m]
        f = np.asarray(value(frozen), dtype=float)
        if f.shape != (*lead, 2 * k):
            raise DimensionMismatch(
                f"{name}: the objective gave shape {f.shape} for a batch of shape "
                f"{buf.shape}; it must map (..., n) to (...)"
            )
        f_up[..., lo : lo + m], f_down[..., lo : lo + m] = f[..., :m], f[..., k : k + m]
        flat[above] = flat[below] = xs[..., lo : lo + m]
    return f_up, f_down


def _term_values(p: ProblemInstance, x: Vector, up: Vector, down: Vector):
    """The objective at ``x + steps e_i`` and ``x - steps e_i`` for every i
    and every point of ``x``, from the element form's terms, in the bits of
    ``value_fn``."""
    form = p.elements
    elem, w = form.elem, form.terms
    # the terms of x, and per column offset o the terms with that column
    # read from up (plus) or down (minus) and all else, the shared values
    # too, from x: 1 + 2 r element calls of w entries per sum and point
    cols = [slice(o, o + form.stride * w, form.stride) for o in form.offsets]
    args = [x[..., c] for c in cols] + [x[..., i, None] for i in form.shared]
    base = elem(*args)
    moves = []
    for j, (o, c) in enumerate(zip(form.offsets, cols)):
        plus = elem(*args[:j], up[..., c], *args[j + 1 :])
        minus = elem(*args[:j], down[..., c], *args[j + 1 :])
        moves.append((o, plus, minus))
    lead, shape = x.shape[:-1], base.shape
    other = {t.shape for _, *ends in moves for t in ends} - {shape}
    c = base.ndim - len(lead) - 1  # 1 for a form of c sums, else 0
    if c not in (0, 1) or shape[c:] != (*lead, w) or other:
        expected = ", ".join(map(str, (*lead, w)))
        raise DimensionMismatch(
            f"{p.name}: elem gave shape {shape} at x and {sorted(other)} moved, "
            f"expected ({expected},) or (c, {expected}) throughout"
        )
    if c and form.outer is None:
        raise DimensionMismatch(f"{p.name}: elem gave {shape[0]} sums and no outer")
    # one row of terms per sum and point
    rows = base.reshape(-1, w)
    moves = [(o, plus.reshape(-1, w), minus.reshape(-1, w)) for o, plus, minus in moves]
    span = (min(form.offsets), max(form.offsets), form.stride)
    width = min(w, _PAIRWISE_LEAF)
    per_row = (2 * (span[1] - span[0] + span[2] * (width - 1) + 1) + 1) * width
    group = _spread(len(rows), per_row)
    buf = np.empty(group * per_row)
    # s[0, r, i] and s[1, r, i] hold the sum of term row r with coordinate
    # i moved up and down, laid out as outer takes them
    s = np.empty((2, len(rows), p.dim))
    for lo in range(0, len(rows), group):
        g = slice(lo, lo + group)
        kth = [(o, plus[g], minus[g]) for o, plus, minus in moves]
        total, a, sums = _moved_sums(rows[g], kth, span, 0, w, buf)
        walked = s[:, g]
        walked[:] = total[:, None]
        walked[..., a : a + sums.shape[-1]] = sums
    f_up, f_down = s.reshape(2, *shape[:-1], p.dim)
    if form.outer is not None:
        values = [x[..., i, None] for i in form.shared]
        f_up, f_down = form.outer(f_up, *values), form.outer(f_down, *values)
    if form.shared:
        shared = np.array(form.shared, dtype=np.intp)
        f_up[..., shared], f_down[..., shared] = _block_values(
            p.name, form.value, x, up, down, shared
        )
    return f_up, f_down


def _moved_sums(base, moves, span, lo, hi, buf):
    """Sums over terms lo..hi-1 of each row of ``base``, as numpy's pairwise
    tree forms them.

    ``base`` holds g rows of terms.  ``span = (first, last, stride)``:
    terms lo..hi-1 read coordinates ``a = first + stride lo`` to
    ``last + stride (hi - 1)``, m of them.  Returns the ``(g,)`` sums of
    ``base[:, lo:hi]``, ``a``, and the ``(2, g, m)`` sums of those
    coordinates' rows, each moved up (``[0]``) and down (``[1]``) by
    ``moves``, whose term arrays have ``base``'s rows (see
    ``_term_values``).  ``buf`` holds the largest leaf block.
    """
    first, last, stride = span
    a = first + stride * lo
    m = last + stride * (hi - 1) + 1 - a
    size, g = hi - lo, len(base)
    if size > _PAIRWISE_LEAF:
        mid = lo + _pairwise_split(size)
        left_base, _, left = _moved_sums(base, moves, span, lo, mid, buf)
        right_base, right_a, right = _moved_sums(base, moves, span, mid, hi, buf)
        # numpy adds the left half's sum to the right half's; a row that
        # moves no term of a half has that half's base sum there
        sums = np.empty((2, g, m))
        sums[:] = left_base[:, None]
        sums[..., : left.shape[-1]] = left
        sums[..., : right_a - a] += right_base[:, None]
        sums[..., right_a - a :] += right
        return left_base + right_base, a, sums
    # a leaf: a C-ordered block of g m rows moved up, g m moved down and the
    # g rows of base.  Coordinate i = o + stride j moves term j of column o,
    # in row i - a of its point's m, which are stride size + 1 apart when flat
    block = buf[: (2 * m + 1) * g * size].reshape(-1, size)
    block[: 2 * g * m].reshape(2, g, m, size)[:] = base[:, None, lo:hi]
    block[2 * g * m :] = base[:, lo:hi]
    up, down = block[: 2 * g * m].reshape(2, g, m * size)
    step = stride * size + 1
    for o, plus, minus in moves:
        start = (o - first) * size
        at = slice(start, start + (size - 1) * step + 1, step)
        up[:, at] = plus[:, lo:hi]
        down[:, at] = minus[:, lo:hi]
    sums = np.add.reduce(block, axis=-1)
    return sums[2 * g * m :], a, sums[: 2 * g * m].reshape(2, g, m)

