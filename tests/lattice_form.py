"""Vector lists and kspace_3p's lattice form, for the tests.

kernels_numpy.kspace_3p sums a lattice in its own form, (axes, px, py,
wsd, slices), which ewald._extended_lattice builds from the grid.  The
tests hand the kernel other sets too: vectors on no lattice, a subset of
one, weights of both signs.  This module turns such a list into the form
by sorting it (entries, with the refusal of a set far from a lattice cut
by |k|) and a form back into its vectors (half_vectors).  vectors builds
the list of vectors and weights that the builder's lattice holds, vector
by vector, so the tests can compare the builder with the sorted form of
the same vectors.
"""

import math

import numpy as np

from ewaldpot import kernels_numpy
from ewaldpot.core import _index_mesh
from ewaldpot.ewald import _free_decay


def vectors(mode, box, kp, lengths, xi, decay=None):
    """The grid as a 3p half lattice: (vectors, weights), one row each.

    kp holds the grid vectors, one row each.  Each is joined with the free
    components 2 pi j / lengths (j integer per free axis) that keep
    k^2 = kp^2 + free^2 <= 4 xi^2 C, C = decay (without it the C of the
    kspace_sum_* functions, ewald._free_decay()), in grid order and per grid
    vector in lexicographic order of j (in 3p, which has no free axis, the
    grid cut at that k^2).  Of each +-k pair the vector whose first nonzero
    component is positive is kept, in that order, with the weight
    (pref exp(-k^2 quart)) / k^2: k^2 = (kx^2 + ky^2) + kz^2,
    pref = 8 pi/V, quart = 1/(4 xi^2) and exp libm's (kernels_numpy._exp).
    V is the product of the periodic box lengths and lengths.
    """
    periodic, free = list(mode.periodic_axes), list(mode.free_axes)
    if decay is None:
        decay = _free_decay()
    room = 4.0 * xi * xi * decay - (kp * kp).sum(axis=1)
    base = 2.0 * np.pi / lengths
    span = math.sqrt(max(0.0, room.max()))
    fk = _index_mesh(np.floor(span / base).astype(np.int64)).T * base
    ip, jf = np.nonzero((fk * fk).sum(axis=1)[None, :] <= room[:, None])
    vecs = np.empty((len(ip), 3))
    vecs[:, periodic] = kp[ip]
    vecs[:, free] = fk[jf]
    kx, ky, kz = vecs.T
    half = (kx > 0.0) | (kx == 0.0) & ((ky > 0.0) | (ky == 0.0) & (kz > 0.0))
    vecs = vecs[half]
    kx, ky, kz = vecs.T
    k2 = (kx * kx + ky * ky) + kz * kz
    volume = float(np.prod(box[periodic])) * float(np.prod(lengths))
    pref = 8.0 * math.pi / volume
    quart = 0.25 / (xi * xi)
    return vecs, pref * kernels_numpy._exp(-k2 * quart) / k2


def form(kvecs, w, n_src):
    """The lattice form of the vectors kvecs with weights w, for
    kspace_3p at n_src sources: entries at its slices of
    _K_ELEMENTS // n_src pairs."""
    return entries(kvecs, w, max(1, kernels_numpy._K_ELEMENTS // n_src))


def entries(kvecs, w, step):
    """The tables, pairs, entries and tiles of kspace_3p, for slices of
    step pairs: (axes, px, py, wsd, slices).

    axes holds the tables' rows (axes).  The distinct pairs (kx, ky)
    come by their last |kz| row, descending, then by their x and y table
    rows, px and py: on a lattice cut by |k| the pairs that reach a |kz|
    row are then a prefix of their slice, and the pairs' staircase of
    cells (P, |kz| row), each pair's rows up to its last, holds every
    entry.  A set whose staircase exceeds 2K + step cells, K the vectors,
    raises ValueError, before any array beyond O(K + step).

    A slice's tiles come by row: a tile starts at a row with the pairs
    that reach it, and takes the next row while it then spans at most
    step cells, at least half of them in the staircase.  A tile's cells
    run row by row, pair by pair; a cell that holds no entry is
    padding.  wsd holds per cell ws = w+ + w- and wd = w+ - w-,
    w+ and w- the sums (np.bincount, in the given order) of the weights of
    its vectors with kz >= 0 and kz < 0; padding cells have 0.0.  slices
    holds per slice its pairs (a slice) and its tiles: (first and end z
    row, pairs, first and end cell); a tile's pairs are the first of its
    slice.
    """
    axs, (ix, iy, row) = axes(kvecs)
    ny = len(axs[1][0]) * (1 + axs[1][1])
    xy, pair = _distinct(ix * ny + iy)
    last = np.zeros(len(xy), np.intp)
    np.maximum.at(last, pair, row)
    cells = int(last.sum()) + len(xy)
    if cells > 2 * len(kvecs) + step:
        raise ValueError(
            f"kspace_3p: the {len(xy)} (kx, ky) pairs of the {len(kvecs)} "
            f"vectors span {cells} (pair, |kz|) cells, more than 2K + step "
            f"= {2 * len(kvecs) + step}; it sums a lattice cut by |k|")
    by_last = np.argsort(-last, kind="stable")
    px, py = np.divmod(xy[by_last], ny)
    last = last[by_last]
    pair = np.argsort(by_last)[pair]    # the inverse permutation
    # per slice and row the cell of its first pair (base), the rows of
    # each slice in turn
    slices, base, end = [], [], 0
    for p0 in range(0, len(xy), step):
        part = last[p0:p0 + step]
        tiles = []
        # per row the pairs that reach it
        for r, n in enumerate(np.searchsorted(
                -part, -np.arange(part[0] + 1), "right").tolist()):
            base.append(end)
            if tiles and (r + 1 - tile[0]) * tile[2] <= min(
                    step, 2 * (filled + n)):
                tile[1] = r + 1
                filled += n
            else:
                tile = [r, r + 1, n, end, end]
                tiles.append(tile)
                filled = n
            end += tile[2]
            tile[4] = end
        slices.append((slice(p0, p0 + step), tiles))
    rows = last[::step] + 1    # per slice, those of its first pair
    cell = np.array(base, np.intp)[(np.cumsum(rows) - rows)[pair // step]
                                   + row]
    cell += pair % step
    wsd = np.bincount(cell + end * (kvecs[:, 2] < 0.0), w,
                      2 * end).reshape(2, -1)    # w+, w-
    ws = wsd[0] + wsd[1]
    np.subtract(wsd[0], wsd[1], out=wsd[1])
    wsd[0] = ws
    return axs, px, py, wsd, slices


def axes(kvecs):
    """The table rows of the vectors' components: (axes, rows).

    axes holds, per axis, the distinct |u| of its components u over all
    the vectors (ascending) and whether the table takes signed rows: the x
    and y tables have those |u| rows, then, if any u is negative, their
    negatives; the z tables have the |kz| rows only.  rows holds, per
    axis, each vector's row in its table.
    """
    axs, rows = [], []
    for u in kvecs.T:
        au, ia = _distinct(np.abs(u))
        signed = len(axs) < 2 and bool((u < 0.0).any())
        if signed:
            ia += len(au) * (u < 0.0)
        axs.append((au, signed))
        rows.append(ia)
    return axs, rows


def _distinct(v):
    # the sorted distinct values of v and, per element, its index in them
    sv = np.sort(v)
    new = np.empty(len(sv), bool)
    new[:1] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    u = sv[new]
    return u, np.searchsorted(u, v)


def half_vectors(lattice):
    """The vectors and weights of a lattice form: per cell the vector
    (kx, ky, +|kz|) of weight (ws + wd)/2 and (kx, ky, -|kz|) of weight
    (ws - wd)/2, those of weight 0.0 left out.  Exact on the builder's
    forms, whose cells hold w + w and 0.0, or w and w."""
    axs, px, py, wsd, slices = lattice
    tables = [au if not signed else np.concatenate((au, -au))
              for au, signed in axs[:2]]
    out = []
    for part, tiles in slices:
        for ra, rb, n, c0, c1 in tiles:
            ws, wd = wsd[:, c0:c1].reshape(2, rb - ra, n)
            kx, ky = tables[0][px[part][:n]], tables[1][py[part][:n]]
            for r in range(ra, rb):
                kz = axs[2][0][r]
                for sign, wk in ((1.0, (ws[r - ra] + wd[r - ra]) / 2),
                                 (-1.0, (ws[r - ra] - wd[r - ra]) / 2)):
                    has = wk != 0.0
                    out.append((np.column_stack(
                        [kx[has], ky[has], np.full(has.sum(), sign * kz)]),
                        wk[has]))
    if not out:
        return np.zeros((0, 3)), np.zeros(0)
    return (np.vstack([v for v, _ in out]),
            np.concatenate([wk for _, wk in out]))
