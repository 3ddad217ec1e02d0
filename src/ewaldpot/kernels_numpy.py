"""Vectorized numpy/scipy kernels of the Ewald layers.

One kernel per layer: the real-space pair sum, the k-space sum, and the 2p
and 1p zero modes.  Each takes plain arrays (source positions and charges,
target positions) that ewald.py has validated, and, where a layer treats
targets at the sources differently (real space and the k-space sum), a flag
that says they are the sources.  The zero modes need none: both are finite
at every point, and the 1p one sums the screened logarithm
-gamma - log(rho^2 xi^2) - E1(rho^2 xi^2), which is +0.0 at rho = 0, at the
sources and off them alike.
It sums with numpy reductions in a fixed order, so reruns are
bit-identical.  The test suite checks each kernel against a plain loop over
math and the scalar routines of specfun.

real_space takes erfc only of the pairs within r_cut: it finds them block
by block of nearby targets, among the image points near each block, and
never forms an array over all (target, source, image) triples.

kspace_3p is the k-space sum of every mode, a plain weighted trig sum
over exactly the vectors and weights it is given.  ewald._extended_lattice
forms both, the only place that does: one k of each +-k pair of the mode's
grid extended along its free axes (in 3p the grid as it is), with the
Ewald weight 8 pi/V e^{-k^2/4xi^2}/k^2 (see the ewald module docstring).
The kernel returns the real part only and never forms the imaginary part.
It holds its arrays in (vectors, points) layout, one row per k, so each
gather is a copy of whole contiguous rows.  It takes cos and sin of k.x
from per-axis tables: libm cos and sin of kx x, ky y and kz z, one row
per distinct component of the whole vector set and one column per point,
built once per point, combined over the distinct (kx, ky) pairs of a
slice of vectors and then per vector by
cos(a + b) = cos a cos b - sin a sin b and
sin(a + b) = sin a cos b + cos a sin b (see _phases).  libm runs on the
distinct |k| of an axis only, and the rows of -|k| take the same cos and
the negated sin; that is exact on the assumption, checked by the tests,
that libm cos is even and sin odd.  One slice rule holds at the sources
and off them: _K_ELEMENTS // N vectors, so no array of the kernel spans
(K, points).  S(k) is each row times q summed along its points; per
target, a slice's rows are added in a fixed binary tree (_fold) and the
sums of the slices in another (_pairwise).  It evaluates in a
fixed, written-down order with elementwise numpy operations and reductions
only: each product and sum is its own float64 operation, with no complex
arithmetic, no fused step and no matrix product (so no BLAS kernel, whose
rounding depends on the CPU it picks at run time).  Its cos and sin are
libm's through math (_libm; numpy's own SIMD exp, cos and sin differ from
libm in the last bit on some CPUs), as are the exp of ewald's weights and
the exp and log of the zero modes.  The bytes of every layer therefore
depend on neither the BLAS build nor numpy's SIMD dispatch level for these
functions.

Every kernel takes its points in blocks under _ROW_ELEMENTS (_blocks),
real space the targets of each spatial block in runs under it and
kspace_3p its targets off the sources (as columns), so no kernel forms
an (M, N) array; a point's terms and their order do not depend on the
blocks, so neither do the bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .specfun import EULER_GAMMA, SQRT_PI


#: up to this many targets form a single block: below it the work per
#: block costs more than the pairs that blocks cull
_FEW_TARGETS = 128

#: every kernel takes its points in blocks of consecutive points (_blocks),
#: each array of a block at most this many (k, point), (target, source) or
#: (target, candidate) elements, and at least one point's: a block's arrays
#: stay in the CPU cache, and in real space, where one spatial block spans
#: the cell when r_cut is long against it, no array spans all image points
_ROW_ELEMENTS = 2 ** 15

#: kspace_3p takes the vectors in slices of _K_ELEMENTS // N (one at
#: least), at the sources and off them alike, so a slice's (slice, N)
#: arrays stay in the CPU cache; the slices set the order of the k sum,
#: the column blocks of _ROW_ELEMENTS no order, so the two stay apart.
#: With whole-row gathers no floor on the slice pays: slices of 8 vectors
#: at 3p N=4096 ran 0.81 times as long as slices of 64
_K_ELEMENTS = 2 ** 15

#: _libm converts this many elements to Python floats at a time
_LIBM_RUN = 4096


def _target_blocks(targets, r_cut):
    """Index arrays that partition the targets into spatial blocks.

    A block is a cell of side r_cut/2 of a grid anchored at the smallest
    target coordinates; blocks come in lexicographic cell order and hold
    their targets in ascending index order.  All targets form one block
    when r_cut is infinite or they are few.
    """
    m = targets.shape[0]
    if m <= _FEW_TARGETS or not math.isfinite(r_cut):
        return [np.arange(m)]
    cell = np.floor((targets - targets.min(axis=0)) / (0.5 * r_cut))
    order = np.lexsort(cell.T[::-1])
    cell = cell[order]
    new = np.any(cell[1:] != cell[:-1], axis=1)
    return np.split(order, np.flatnonzero(new) + 1)


def real_space(pos, q, targets, at_sources, images, xi, r_cut, eps):
    """Real-space sum sum_p sum_n q_n erfc(xi d)/d, d = |t - x_n + p| <= r_cut.

    Returns the sum per target; at_sources says the targets are pos, and
    then the n = m pair of the p = 0 image is left out.  This is the one
    coincidence check of an evaluation, as erfc(xi d)/d is the only term
    of the split that diverges at d = 0, and it covers exactly the pairs
    whose term is formed, those with d <= r_cut: off the sources a pair
    with d < eps raises ValueError naming its target and source, at the
    sources a zero distance of any pair but the left-out one does.

    Image point j = p N + n, source n shifted by image p, sits at
    x_n - images[p]; the points are held in that (image, source) order.
    The targets are split into spatial blocks (_target_blocks).  A block
    takes as candidates the image points inside its bounding box widened
    by r_cut (and a rounding margin), so every pair within r_cut is a
    candidate.  Its targets are taken in runs of consecutive targets
    (_blocks over its candidates), each run with at most _ROW_ELEMENTS
    (target, candidate) pairs (one target at least).  The order of every
    rounding step is fixed:

        d^2     ((t_x - x_n + p_x)^2 + (t_y - ...)^2) + (t_z - ...)^2,
                each component (t - x_n) + p, for every candidate pair
        d       sqrt(d^2), only for the pairs with d^2 <= T, T the largest
                double with sqrt(T) <= r_cut (_square_cut): exactly the
                pairs with d <= r_cut
        term    erfc(xi d) q_n / d, for those pairs
        sum     per target, its kept terms in ascending j (image by image
                in the order of images, source by source within an image)
                through np.add.reduceat: the first term plus numpy's
                pairwise sum of the others; 0.0 without a kept term

    The terms and their order per target do not depend on the partition
    into blocks and runs, so neither do the bytes of the result.  Per run
    only (run targets, candidates) arrays are held, never (M, N) ones.
    """
    n = pos.shape[0]
    out = np.zeros(targets.shape[0])
    # (P N,) per axis: image point j of source j % N and image j // N
    ycols = [(pos[None, :, a] - images[:, None, a]).ravel() for a in range(3)]
    extent = max(np.abs(targets).max(), max(np.abs(y).max() for y in ycols))
    reach = r_cut + 1e-12 * (r_cut + extent)
    p0s = np.flatnonzero(~images.any(axis=1))
    d2_cut = _square_cut(r_cut)
    for blk in _target_blocks(targets, r_cut):
        tb = targets[blk]
        lo = tb.min(axis=0) - reach
        hi = tb.max(axis=0) + reach
        inbox = (ycols[0] >= lo[0]) & (ycols[0] <= hi[0])
        for a in (1, 2):
            inbox &= (ycols[a] >= lo[a]) & (ycols[a] <= hi[a])
        cand = np.flatnonzero(inbox)
        img, src = np.divmod(cand, n)
        # per axis, the (candidates,) source and image coordinates
        xs = [pos[src, a] for a in range(3)]
        ps = [images[img, a] for a in range(3)]
        qs = q[src]
        for part in _blocks(len(blk), len(cand)):
            run = blk[part]
            tr = targets[run]
            d = np.subtract.outer(tr[:, 0], xs[0])
            d += ps[0]
            d *= d
            da = np.empty_like(d)
            for a in (1, 2):
                np.subtract.outer(tr[:, a], xs[a], out=da)
                da += ps[a]
                da *= da
                d += da
            del da
            if at_sources:
                # target m's own image point p0 N + m sits on it, so it is
                # a candidate; NaN drops the pair from both tests below
                for p0 in p0s:
                    d[np.arange(len(run)),
                      np.searchsorted(cand, p0 * n + run)] = np.nan
            keep = d <= d2_cut
            dk = np.sqrt(d[keep])
            del d
            close = dk == 0.0 if at_sources else dk < eps
            if close.any():
                if at_sources:
                    raise ValueError(
                        "zero distance between a target and a periodic image")
                rows, cols = np.nonzero(keep)
                i = np.argmax(close)
                raise ValueError(
                    f"target {run[rows[i]]} lies within {eps:.3e} of source "
                    f"{src[cols[i]]}; evaluate at sources instead")
            terms = np.multiply(dk, xi)
            sp.erfc(terms, out=terms)
            terms *= np.broadcast_to(qs, keep.shape)[keep]
            terms /= dk
            count = np.count_nonzero(keep, axis=1)
            has = count > 0
            first = np.cumsum(count) - count
            out[run[has]] = np.add.reduceat(terms, first[has])
    return out


def _square_cut(r_cut):
    """The largest double T with sqrt(T) <= r_cut: d <= r_cut exactly when
    d^2 <= T, for d = sqrt(d^2) correctly rounded, as sqrt is monotone."""
    if math.isinf(r_cut):
        return math.inf
    t = r_cut * r_cut
    while math.sqrt(t) > r_cut:
        t = math.nextafter(t, 0.0)
    while math.sqrt(up := math.nextafter(t, math.inf)) <= r_cut:
        t = up
    return t


def kspace_3p(pos, q, targets, kvecs, w, at_sources):
    """Weighted trig sum sum_k w_k (C_k cos k.t + S_k sin k.t) per target t.

    C_k and S_k are sum_n q_n cos k.x_n and sum_n q_n sin k.x_n, so the sum
    is sum_k w_k sum_n q_n cos(k.(t - x_n)), over exactly the vectors kvecs
    (one row each) with weights w; at_sources says the targets are pos.

    The vectors are taken in slices of _K_ELEMENTS // N (one at least),
    at the sources and off them alike.  _phases writes the cos and
    sin of k.x of a slice to (slice, points) arrays, one row per vector,
    from per-axis tables (_axis_tables) built once per point: once for the
    sources, and off the sources once per column block of targets
    (_blocks), the outer loop there, so no (components, M) table is held.
    The order of every other rounding step is fixed:

        S(k)    per vector, q times its cos (sin) row, summed along the
                points by numpy's pairwise sum of a contiguous row; then
                times w
        slice   per target, c (w cs) + s (w sn) on its column, in place,
                the rows then folded in a fixed binary tree (_fold); at the
                sources the rows of S(k) serve again as the target rows
        sum     per target, the sums of the slices added in the fixed
                binary tree of _pairwise

    Every column is formed and summed from its own point alone, so the
    bytes depend on neither the column blocks nor the other targets; the
    slices, and so N, move their last bits.  No BLAS routine is called and
    cos and sin are libm's, so the result depends on neither the BLAS
    kernel nor numpy's SIMD level.
    """
    n_src = len(pos)
    step = max(1, _K_ELEMENTS // n_src)
    axes, keys = _phase_keys(kvecs, step)
    blocks = [] if at_sources else _blocks(len(targets), step)
    cols = max([n_src] + [b.stop - b.start for b in blocks])
    # c, s and the work arrays of _phases, reused from slice to slice:
    # fresh arrays of this size per slice cost page faults, as glibc
    # returns them to the system between slices
    buf = np.empty((5, min(step, len(w)) * cols))

    def phases(tables, key, m):    # c, s and a free work array, (slice, m)
        c, s, *work = (b[:len(key[-1]) * m].reshape(-1, m) for b in buf)
        _phases(tables, key, c, s, work)
        return c, s, work[0]

    def slice_sums(c, s, cs, sn):    # per target column, its slice sum
        c *= cs[:, None]
        s *= sn[:, None]
        c += s
        return _fold(c)

    def source_slices():    # per slice: its key, w S(k), and c and s
        tables = _axis_tables(pos, axes)
        for part, key in keys:
            c, s, t = phases(tables, key, n_src)
            cs, sn = (np.multiply(p, q, out=t).sum(axis=1) * w[part]
                      for p in (c, s))
            yield key, cs, sn, c, s

    out = np.zeros(len(targets))
    if at_sources:
        out[:] = _pairwise(slice_sums(c, s, cs, sn)
                           for _, cs, sn, c, s in source_slices())
        return out
    sums = [(key, cs, sn) for key, cs, sn, _, _ in source_slices()]
    for blk in blocks:
        tables = _axis_tables(targets[blk], axes)
        out[blk] = _pairwise(
            slice_sums(*phases(tables, key, blk.stop - blk.start)[:2], cs, sn)
            for key, cs, sn in sums)
    return out


def _fold(rows):
    """The column sums of rows, a copy, added in a fixed binary tree: while
    n > 1 rows are left, the last h = n // 2 are added onto the first h
    (rows[:h] += rows[n - h:n]) and n becomes n - h.  Overwrites rows."""
    n = len(rows)
    while n > 1:
        h = n // 2
        rows[:h] += rows[n - h:n]
        n -= h
    return rows[0].copy()


def _pairwise(terms):
    """The sum of the arrays that terms yields, in a fixed binary tree.

    Consecutive runs of 1, 2, 4, ... terms are added as they complete, the
    earlier run on the left, and the runs left at the end from the last
    to the first, so at most log2 of their count partial sums are held.
    0.0 when terms yields none; one term is returned as it is.
    """
    stack = []    # (terms in the run, its sum), the longest run first
    for t in terms:
        size = 1
        while stack and stack[-1][0] == size:
            t = stack.pop()[1] + t
            size *= 2
        stack.append((size, t))
    total = stack.pop()[1] if stack else 0.0
    while stack:
        total = stack.pop()[1] + total
    return total


def _phase_keys(kvecs, step):
    """The keys of the per-axis tables of _phases, for slices of step vectors.

    axes holds, per axis, the distinct |u| of its components u (kx, ky or
    kz) over all the vectors, and whether any u is negative; the rows of
    the axis' tables are those |u|, then, if any u is negative, their
    negatives.  Per slice, a key holds the distinct (kx, ky) pairs that
    occur in it, as row indices px, py into the x and y tables, and per
    vector the index of its pair and its z table row.
    """
    axes, rows = [], []
    for u in kvecs.T:
        au, ia = _distinct(np.abs(u))
        neg = u < 0.0
        signed = bool(neg.any())
        axes.append((au, signed))
        rows.append(ia + len(au) * neg if signed else ia)
    ix, iy, iz = rows
    ny = len(axes[1][0]) * (1 + axes[1][1])    # rows of the y tables
    keys = []
    for start in range(0, len(kvecs), step):
        part = slice(start, start + step)
        pairs, ixy = _distinct(ix[part] * ny + iy[part])
        keys.append((part, (*np.divmod(pairs, ny), ixy, iz[part])))
    return axes, keys


def _distinct(v):
    # the sorted distinct values of v and, per element, its index in them
    # (np.unique's result, at a fraction of its fixed cost on short arrays)
    sv = np.sort(v)
    new = np.empty(len(sv), bool)
    new[:1] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    u = sv[new]
    return u, np.searchsorted(u, v)


def _axis_tables(pts, axes):
    """cx, sx, cy, sy, cz, sz: libm cos and sin of u x, u y and u z over the
    rows of each axis (_phase_keys) by the points pts, one column per point
    (each product rounded once).  libm runs on the distinct |u| rows only:
    a row of -|u| takes the cos of its |u| row and the negated sin.  That
    is exact as (-u) x = -(u x) and libm cos is even and sin odd.  A
    column depends on its own point alone."""
    tables = []
    for coord, (au, signed) in zip(pts.T, axes):
        arg = np.multiply.outer(au, coord)
        cos, sin = _libm(math.cos, arg), _libm(math.sin, arg)
        if signed:
            cos, sin = np.concatenate((cos, cos)), np.concatenate((sin, -sin))
        tables += [cos, sin]
    return tables


def _phases(tables, key, c, s, work):
    """cos and sin of k.x, a slice's vectors by the tables' points, into c
    and s, one row per vector.

    From the per-axis tables (_axis_tables) and the slice's key
    (_phase_keys), in this order:

        xy      per distinct (kx, ky) pair of the slice:
                cxy = (cx cy) - (sx sy),  sxy = (sx cy) + (cx sy)
        k.x     per vector, from its pair's xy and its kz's z entries:
                c = (cxy cz) - (sxy sz),  s = (sxy cz) + (cxy sz)

    Each product, difference and sum is one np.multiply, np.subtract or
    np.add of float64 arrays, rounded on its own (no complex arithmetic
    and no fused step); np.take along axis 0 picks whole rows, contiguous
    copies.  A column depends on its own point alone.  The xy tables span
    the distinct pairs that occur, never every (kx, ky) of the distinct kx
    and ky.  work holds three arrays of c's shape.
    """
    cx, sx, cy, sy, cz, sz = tables
    px, py, ixy, iz = key
    gcx, gsx = cx[px], sx[px]
    gcy, gsy = cy[py], sy[py]
    cxy = gcx * gcy
    t = gsx * gsy
    cxy -= t
    sxy = gsx * gcy
    np.multiply(gcx, gsy, out=t)
    sxy += t
    # mode "clip" (the indices are in range) as "raise" buffers out
    gc, gs, gz = work
    np.take(cxy, ixy, axis=0, out=gc, mode="clip")
    np.take(sxy, ixy, axis=0, out=gs, mode="clip")
    np.take(cz, iz, axis=0, out=gz, mode="clip")
    np.multiply(gc, gz, out=c)
    np.multiply(gs, gz, out=s)
    np.take(sz, iz, axis=0, out=gz, mode="clip")
    gs *= gz
    c -= gs
    gc *= gz
    s += gc


def _blocks(m, n):
    """Slices of consecutive points, each of at most _ROW_ELEMENTS // n
    points (one at least), that cover m points of n elements each."""
    step = max(1, _ROW_ELEMENTS // max(1, n))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _libm(fn, x):
    # fn (math.exp, log, cos or sin) elementwise: libm, not numpy's SIMD
    # loop.  The elements pass as Python floats in runs of _LIBM_RUN, so
    # the peak stays near the size of the result, not five times it
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _LIBM_RUN):
        run = flat[i:i + _LIBM_RUN]
        out[i:i + _LIBM_RUN] = np.fromiter(map(fn, run.tolist()),
                                           np.float64, len(run))
    return out.reshape(x.shape)


def zero_mode_2p(zpos, q, ztar, xi, area):
    # targets in blocks of rows (_blocks); each row summed on its own
    out = np.empty(len(ztar))
    for part in _blocks(len(ztar), len(zpos)):
        dz = ztar[part, None] - zpos[None, :]
        w = xi * dz
        terms = _libm(math.exp, -w * w) / xi + SQRT_PI * dz * sp.erf(w)
        out[part] = (q[None, :] * terms).sum(axis=1)
    return (-2.0 * SQRT_PI / area) * out


def _log_e1_bracket_array(x):
    # -gamma - log(x) - E1(x), continued to 0 at x = 0; series below 1e-3
    # where the log cancellation would otherwise cost accuracy.  Each form
    # is evaluated on the elements it serves only
    out = np.zeros_like(x)
    small = (x > 0.0) & (x < 1e-3)
    xs = x[small]
    out[small] = xs * (-1.0 + xs * (0.25 - xs / 18.0))
    large = x >= 1e-3
    xl = x[large]
    out[large] = -EULER_GAMMA - _libm(math.log, xl) - sp.exp1(xl)
    return out


def zero_mode_1p(pos, q, targets, xi, length):
    # targets in blocks of rows (_blocks); each row summed on its own.  The
    # bracket is +0.0 at rho = 0, so a source whose axis holds the target
    # (at the sources, the n = m term) adds nothing
    out = np.empty(len(targets))
    for part in _blocks(len(targets), len(pos)):
        dxy = targets[part, None, :2] - pos[None, :, :2]
        br = _log_e1_bracket_array((dxy ** 2).sum(axis=-1) * xi * xi)
        out[part] = (q[None, :] * br).sum(axis=1)
    return out / length
