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
It takes cos and sin of k.x from per-axis tables: libm cos and sin of
x kx, y ky and z kz, one entry per point and distinct component, combined
over the distinct (kx, ky) pairs and then per vector by
cos(a + b) = cos a cos b - sin a sin b and
sin(a + b) = sin a cos b + cos a sin b (see _phases).  It evaluates in a
fixed, written-down order with elementwise numpy operations and reductions
only: each product and sum is its own float64 operation, with no complex
arithmetic, no fused step and no matrix product (so no BLAS kernel, whose
rounding depends on the CPU it picks at run time).  Its cos and sin are
libm's through math (_libm; numpy's own SIMD exp, cos and sin differ from
libm in the last bit on some CPUs), as are the exp of ewald's weights and
the exp and log of the zero modes.  The bytes of every layer therefore
depend on neither the BLAS build nor numpy's SIMD dispatch level for these
functions.

Every kernel takes its points in row blocks under _ROW_ELEMENTS (_blocks),
real space the targets of each spatial block in runs under it, so no
kernel forms an (M, N) array; a row's terms and their order do not depend
on the blocks, so neither do the bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .specfun import EULER_GAMMA, SQRT_PI


#: up to this many targets form a single block: below it the work per
#: block costs more than the pairs that blocks cull
_FEW_TARGETS = 128

#: every kernel takes its points in blocks of consecutive rows (_blocks),
#: each array of a block at most this many (point, k), (target, source) or
#: (target, candidate) elements, and at least one row's: a block's arrays
#: stay in the CPU cache, and in real space, where one spatial block spans
#: the cell when r_cut is long against it, no array spans all image points
_ROW_ELEMENTS = 2 ** 15

#: at the sources kspace_3p takes its vectors in slices of at most
#: this many (target, k) elements, and at least one k, which bounds its
#: (N, slice) cos and sin buffers at 80 MiB each: every perfbench workload
#: fits in one slice.  Off the sources it needs no slices: slices would
#: only repeat the per-axis tables of every target once per slice
_K_ELEMENTS = 10 * 2 ** 20


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

        d       sqrt(((t_x - x_n + p_x)^2 + (t_y - ...)^2) + (t_z - ...)^2),
                each component (t - x_n) + p, for every candidate pair
        term    erfc(xi d) q_n / d, only for the pairs with d <= r_cut
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
            np.sqrt(d, out=d)
            if at_sources:
                # target m's own image point p0 N + m sits on it, so it is
                # a candidate; NaN drops the pair from both tests below
                for p0 in p0s:
                    d[np.arange(len(run)),
                      np.searchsorted(cand, p0 * n + run)] = np.nan
            keep = d <= r_cut
            dk = d[keep]
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
            terms *= qs[np.nonzero(keep)[1]]
            terms /= dk
            count = np.count_nonzero(keep, axis=1)
            has = count > 0
            first = np.cumsum(count) - count
            out[run[has]] = np.add.reduceat(terms, first[has])
    return out


def kspace_3p(pos, q, targets, kvecs, w, at_sources):
    """Weighted trig sum sum_k w_k (C_k cos k.t + S_k sin k.t) per target t.

    C_k and S_k are sum_n q_n cos k.x_n and sum_n q_n sin k.x_n, so the sum
    is sum_k w_k sum_n q_n cos(k.(t - x_n)), over exactly the vectors kvecs
    (one row each) with weights w; at_sources says the targets are pos.  At
    the sources the vectors are taken in slices of at most
    _K_ELEMENTS // M (one at least), each summed by _kspace_slice, and the
    sums of the slices are added in slice order; off the sources, where
    _kspace_slice holds no (M, slice) array, in one slice.

    No BLAS routine is called and cos and sin are libm's, so the result
    does not depend on the BLAS kernel or on numpy's SIMD level.
    """
    n_tar = targets.shape[0]
    kx, ky, kz = np.ascontiguousarray(kvecs.T)
    out = np.zeros(n_tar)
    step = max(1, _K_ELEMENTS // max(1, n_tar) if at_sources else len(w))
    for start in range(0, len(w), step):
        part = slice(start, start + step)
        re = _kspace_slice(pos, q, targets, at_sources, kx[part], ky[part],
                           kz[part], w[part])
        out = re if start == 0 else out + re
    return out


def _kspace_slice(pos, q, targets, at_sources, kx, ky, kz, w):
    """kspace_3p over one slice of vectors with weights w.

    The sources, then the targets, are taken in blocks of at most
    _ROW_ELEMENTS // len(w) consecutive points (one at least).  _phases
    writes the cos and sin of k.x of a block's points to rows of the
    buffers c and s, and the order of every other rounding step is fixed:

        S(k)    cs, sn summed source by source, n = 0 .. N-1: per block,
                q_n times its cos (sin) rows, cs (sn) added to the first
                row, and an axis-0 np.add.reduce, which adds rows in order
        re      per target, c (w cs) + s (w sn) on its rows, in place
                (w cs and w sn in cs and sn), then a numpy sum of it along
                the slice

    At the sources c and s are (N, slice): row n holds source n's cos and
    sin, which serve again as the target row.  Off the sources they hold
    one block, and the targets are reduced block by block.  Every row is
    formed and summed from its own point alone, so the bytes depend on
    neither the blocks nor the other points.
    """
    n_k = len(w)
    axes = _phase_axes(kx, ky, kz)
    sources = _blocks(len(pos), n_k)
    blocks = _blocks(targets.shape[0], n_k)
    rows_b = max(b.stop - b.start for b in sources + blocks)
    rows_c = len(pos) if at_sources else rows_b
    # c, s and the work buffers of _phases in one allocation: once glibc
    # has freed a chunk that large, it raises its mmap and trim thresholds
    # and keeps the next one in the heap.  Five chunks below the threshold
    # (about 100 kB each at N = 24) could leave the heap top free after a
    # call, trimmed and faulted in again by the next
    buf = np.empty((2 * rows_c + 3 * rows_b, n_k))
    c, s = buf[:rows_c], buf[rows_c:2 * rows_c]
    work = [buf[2 * rows_c + i * rows_b:2 * rows_c + (i + 1) * rows_b]
            for i in range(3)]

    def rows(part):    # the rows of c and s that hold a block
        return part if at_sources else slice(0, part.stop - part.start)

    cs = np.zeros(n_k)
    sn = np.zeros(n_k)
    for part in sources:
        bc, bs = c[rows(part)], s[rows(part)]
        _phases(pos[part], axes, bc, bs, work)
        t = work[0][:part.stop - part.start]
        for phase, acc in ((bc, cs), (bs, sn)):
            np.multiply(phase, q[part, None], out=t)
            t[0] += acc
            np.add.reduce(t, axis=0, out=acc)
    cs *= w
    sn *= w
    out = np.empty(targets.shape[0])
    for part in blocks:
        bc, bs = c[rows(part)], s[rows(part)]
        if not at_sources:
            _phases(targets[part], axes, bc, bs, work)
        bc *= cs
        bs *= sn
        bc += bs
        out[part] = bc.sum(axis=1)
    return out


def _phase_axes(kx, ky, kz):
    """The keys of the per-axis tables of _phases for one slice.

    They are the distinct kx, ky and kz; the distinct (kx, ky) pairs that
    occur, as indices px, py into the distinct kx and ky; and per vector
    the index of its pair and of its kz.
    """
    (ux, ix), (uy, iy), (uz, iz) = map(_distinct, (kx, ky, kz))
    pairs, ixy = _distinct(ix * len(uy) + iy)
    px, py = np.divmod(pairs, len(uy))
    return ux, uy, uz, px, py, ixy, iz


def _distinct(v):
    # the sorted distinct values of v and, per element, its index in them
    u = np.unique(v)
    return u, np.searchsorted(u, v)


def _phases(pts, axes, c, s, work):
    """cos and sin of k.x, points pts by the slice's vectors, into c and s.

    The tables, from the point coordinates x, y, z and the keys of
    _phase_axes, in this order:

        axis    cx, sx = libm cos, sin of x ux (each product x u rounded
                once); likewise cy, sy of y uy and cz, sz of z uz
        xy      per distinct (kx, ky) pair:
                cxy = (cx cy) - (sx sy),  sxy = (sx cy) + (cx sy)
        k.x     per vector, from its pair's xy and its kz's z entries:
                c = (cxy cz) - (sxy sz),  s = (sxy cz) + (cxy sz)

    Each product, difference and sum is one np.multiply, np.subtract or
    np.add of float64 arrays, rounded on its own (no complex arithmetic
    and no fused step); np.take picks the entries.  A row depends on its
    own point alone.  The tables span the distinct pairs that occur,
    never every (kx, ky) of the distinct kx and ky.  work holds three
    buffers of at least c's shape, reused from block to block: fresh
    allocations of that size per block cost page faults.
    """
    ux, uy, uz, px, py, ixy, iz = axes
    tables = []
    for a, u in enumerate((ux, uy, uz)):
        arg = np.multiply.outer(pts[:, a], u)
        tables += [_libm(math.cos, arg), _libm(math.sin, arg)]
    cx, sx, cy, sy, cz, sz = tables
    gcx, gsx = np.take(cx, px, axis=1), np.take(sx, px, axis=1)
    gcy, gsy = np.take(cy, py, axis=1), np.take(sy, py, axis=1)
    cxy = gcx * gcy
    t = gsx * gsy
    cxy -= t
    sxy = gsx * gcy
    np.multiply(gcx, gsy, out=t)
    sxy += t
    # mode "clip" (the indices are in range) as "raise" buffers out
    gc, gs, gz = (buf[:len(pts)] for buf in work)
    np.take(cxy, ixy, axis=1, out=gc, mode="clip")
    np.take(sxy, ixy, axis=1, out=gs, mode="clip")
    np.take(cz, iz, axis=1, out=gz, mode="clip")
    np.multiply(gc, gz, out=c)
    np.multiply(gs, gz, out=s)
    np.take(sz, iz, axis=1, out=gz, mode="clip")
    np.multiply(gs, gz, out=gs)
    c -= gs
    np.multiply(gc, gz, out=gc)
    s += gc


def _blocks(m, n):
    """Slices of consecutive rows, each of at most _ROW_ELEMENTS // n rows
    (one at least), that cover m rows of n elements."""
    step = max(1, _ROW_ELEMENTS // max(1, n))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _libm(fn, x):
    # fn (math.exp, log, cos or sin) elementwise: libm, not numpy's SIMD
    # loop
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


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
    # where the log cancellation would otherwise cost accuracy
    small = x < 1e-3
    xs = np.where(small, x, 1.0)
    series = xs * (-1.0 + xs * (0.25 - xs / 18.0))
    xl = np.where(small | (x == 0.0), 1.0, x)
    direct = -EULER_GAMMA - _libm(math.log, xl) - sp.exp1(xl)
    return np.where(x == 0.0, 0.0, np.where(small, series, direct))


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
