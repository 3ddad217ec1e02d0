"""Vectorized numpy/scipy kernels of the Ewald layers.

One kernel per layer: the real-space pair sum, the k-space sum, and the 2p
and 1p zero modes.  Each takes plain arrays (source positions and charges,
target positions) that ewald.py has validated, and, where a layer treats
targets at the sources differently, a flag that says they are the sources.
It sums with numpy reductions in a fixed order, so reruns are
bit-identical.  The test suite checks each kernel against a plain loop over
math and the scalar routines of specfun.

real_space takes erfc only of the pairs within r_cut: it finds them block
by block of nearby targets, among the image points near each block, and
never forms an array over all (target, source, image) triples.

kspace_3p is the k-space sum of every mode: ewald._kspace hands it the 3p
lattice as it is, and the 2p and 1p sums as 3p sums over a lattice
extended along the free axes (see the ewald module docstring).  The
lattices are closed under negation and the kernel is real and even, so the
potential is real: the kernel returns that real part only, never forms the
imaginary part (which would be rounding noise), and sums one k of each +-k
pair with double weight.  It evaluates in a fixed, written-down order with
elementwise numpy operations and reductions only: no matrix product (so no
BLAS kernel, whose rounding depends on the CPU it picks at run time) and
libm exp through math.exp (numpy's own SIMD exp differs from libm in the
last bit on some CPUs).  The zero modes take exp and log from libm the
same way.  The bytes of every layer therefore depend on neither the BLAS
build nor numpy's SIMD dispatch level for exp and log.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .specfun import EULER_GAMMA, SQRT_PI


#: up to this many targets form a single block: below it the work per
#: block costs more than the pairs that blocks cull
_FEW_TARGETS = 128

#: a run of a block's targets forms at most this many (target, candidate)
#: distances at once, and at least one target's: when r_cut is long against
#: the cell, one block spans it and its candidates are all the image points
_RUN_ELEMENTS = 2 ** 16

#: kspace_3p holds at most this many (target, k) elements in each of its
#: cos and sin buffers, and at least one k's: every perfbench workload (the
#: largest, map3p, 1000 targets by 8599 half-lattice vectors) fits in one
#: slice of the lattice, 80 MiB per buffer
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
    candidate.  Its targets are taken in runs of consecutive targets, each
    run with at most _RUN_ELEMENTS (target, candidate) pairs (one target at
    least).  The order of every rounding step is fixed:

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
        step = max(1, _RUN_ELEMENTS // max(1, len(cand)))
        for start in range(0, len(blk), step):
            run = blk[start:start + step]
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


def kspace_3p(pos, q, targets, xi, kvecs, volume, at_sources):
    """3p k-space sum (4 pi/V) sum_k e^{-k^2/4xi^2}/k^2 S(k) e^{-i k.r}.

    Returns the potential (the real part) per target; at_sources says the
    targets are pos.  The terms of k and -k are equal, so the sum runs over
    the half lattice: of each +-k pair the vector whose first nonzero
    component is positive, in grid order, with weight 8 pi/V.  That is
    exact on lattices closed under negation, which ewald._check_grid
    enforces and ewald's extended lattices have by construction.  The half
    lattice is taken in slices of at most _K_ELEMENTS // M vectors (one at
    least), each summed by _kspace_slice; the sums of the slices are added
    in slice order.  The weight of a kept k is
    pref * math.exp(-k^2 quart) / k^2, with k^2 = (kx^2 + ky^2) + kz^2,
    pref = 8 pi/V (twice 4 pi/V, exactly) and quart = 1/(4 xi^2).

    No BLAS routine is called and exp is libm's, so the result does not
    depend on the BLAS kernel or on numpy's SIMD level.
    """
    n_tar = targets.shape[0]
    kx, ky, kz = kvecs.T
    half = (kx > 0.0) | (kx == 0.0) & ((ky > 0.0) | (ky == 0.0) & (kz > 0.0))
    kx, ky, kz = np.ascontiguousarray(kvecs[half].T)
    k2 = (kx * kx + ky * ky) + kz * kz
    pref = 8.0 * math.pi / volume
    quart = 0.25 / (xi * xi)
    w = np.array([pref * math.exp(-k * quart) / k for k in k2.tolist()])
    out = np.zeros(n_tar)
    step = max(1, _K_ELEMENTS // max(1, n_tar))
    for start in range(0, len(w), step):
        part = slice(start, start + step)
        re = _kspace_slice(pos, q, targets, at_sources, kx[part], ky[part],
                           kz[part], w[part])
        out = re if start == 0 else out + re
    return out


def _kspace_slice(pos, q, targets, at_sources, kx, ky, kz, w):
    """kspace_3p over one slice of kept vectors with weights w.

    The order of every rounding step is fixed:

        phase   (x kx + y ky) + z kz; for the targets one
                np.multiply.outer per axis, added in place
        S(k)    cs, sn accumulated one source at a time, n = 0 .. N-1,
                from q_n times cos and sin of that source's phases
        targets at the sources: cos and sin of source n's phases are
                written to row n of the (M, slice) cos and sin buffers c, s
                and the target phase step is skipped; the phase
                arithmetic is the same, so are the bytes
        re      c (w cs) + s (w sn), formed in place in c and s, then a
                numpy sum along the slice per target

    c and s are the only target-sized arrays.
    """
    n_k = len(w)
    cs = np.zeros(n_k)
    sn = np.zeros(n_k)
    phase = np.empty(n_k)
    tmp = np.empty(n_k)
    c = np.empty((targets.shape[0], n_k))
    s = np.empty((targets.shape[0], n_k))
    cos_n = sin_n = tmp    # off the sources they only feed cs and sn
    for n, ((x, y, z), qn) in enumerate(zip(pos.tolist(), q.tolist())):
        np.multiply(kx, x, out=phase)
        np.multiply(ky, y, out=tmp)
        phase += tmp
        np.multiply(kz, z, out=tmp)
        phase += tmp
        if at_sources:    # row n of the target phases is this phase
            cos_n, sin_n = c[n], s[n]
        np.cos(phase, out=cos_n)
        np.multiply(cos_n, qn, out=tmp)
        cs += tmp
        np.sin(phase, out=sin_n)
        np.multiply(sin_n, qn, out=tmp)
        sn += tmp
    wc = w * cs
    ws = w * sn
    if not at_sources:    # s holds the phase first, then its sine in place
        np.multiply.outer(targets[:, 0], kx, out=s)
        np.multiply.outer(targets[:, 1], ky, out=c)
        s += c
        np.multiply.outer(targets[:, 2], kz, out=c)
        s += c
        np.cos(s, out=c)
        np.sin(s, out=s)
    c *= wc
    s *= ws
    c += s
    return c.sum(axis=1)


def _libm(fn, x):
    # fn (math.exp or math.log) elementwise: libm, not numpy's SIMD loop
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def zero_mode_2p(zpos, q, ztar, xi, area):
    dz = ztar[:, None] - zpos[None, :]
    w = xi * dz
    terms = _libm(math.exp, -w * w) / xi + SQRT_PI * dz * sp.erf(w)
    return (-2.0 * SQRT_PI / area) * (q[None, :] * terms).sum(axis=1)


def _log_e1_bracket_array(x):
    # -gamma - log(x) - E1(x), continued to 0 at x = 0; series below 1e-3
    # where the log cancellation would otherwise cost accuracy
    small = x < 1e-3
    xs = np.where(small, x, 1.0)
    series = xs * (-1.0 + xs * (0.25 - xs / 18.0))
    xl = np.where(small | (x == 0.0), 1.0, x)
    direct = -EULER_GAMMA - _libm(math.log, xl) - sp.exp1(xl)
    return np.where(x == 0.0, 0.0, np.where(small, series, direct))


def zero_mode_1p_sources(pos, q, xi, length):
    # the targets are the sources; the n = m term drops
    dxy = pos[:, None, :2] - pos[None, :, :2]
    br = _log_e1_bracket_array((dxy ** 2).sum(axis=-1) * xi * xi)
    np.fill_diagonal(br, 0.0)
    return (q[None, :] * br).sum(axis=1) / length


def zero_mode_1p_points(pos, q, targets, xi, length):
    rho2 = ((targets[:, None, :2] - pos[None, :, :2]) ** 2).sum(axis=-1)
    if np.any(rho2 == 0.0):
        raise ValueError(
            "off-particle target lies on the axis of a source "
            "(rho = 0); the per-term logarithm diverges there")
    terms = _libm(math.log, rho2) + sp.exp1(rho2 * xi * xi)
    return -(q[None, :] * terms).sum(axis=1) / length
