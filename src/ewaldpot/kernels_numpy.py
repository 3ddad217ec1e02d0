"""Vectorized numpy/scipy kernels of the Ewald layers.

One kernel per layer and mode: the real-space pair sum, the 3p, 2p and 1p
k-space sums, and the 2p and 1p zero modes.  Each takes plain arrays (source
positions and charges, target positions) that ewald.py has validated, and,
where a layer treats targets at the sources differently, a flag that says
they are the sources.  It sums with numpy reductions in a fixed order, so
reruns are bit-identical.  The test suite checks each kernel against a
plain loop over math and the scalar routines of specfun.

real_space takes erfc only of the pairs within r_cut: it finds them block
by block of nearby targets, among the image points near each block, and
never forms an array over all (target, source, image) triples.

The k-space sums run over lattices closed under negation with real, even
kernels, so the potential is real: each k-space kernel returns that real
part only and never forms the imaginary part, which would be rounding
noise.  The terms of k and -k are then equal, so each kernel sums a part of
the lattice with multiplicities: 3p one k of each +-k pair, 2p the quadrant
kx, ky >= 0, 1p the k3 > 0 half.

kspace_3p evaluates in a fixed, written-down order with elementwise numpy
operations and reductions only: no matrix product (so no BLAS kernel, whose
rounding depends on the CPU it picks at run time) and libm exp through
math.exp (numpy's own SIMD exp differs from libm in the last bit on some
CPUs).  Its bytes therefore depend on neither the BLAS build nor numpy's
SIMD dispatch level.

kspace_1p takes its incomplete-K0 table from one batched call,
specfun._k0inc_array, over every positive k3 and every distinct rho^2 xi^2.
The call returns the bytes of the scalar routine _k0inc_scalar, element by
element: the same adaptive panel tree and accumulation order, libm exp,
and the scalar routine itself wherever the budget or the stack depth would
end its tree early.  The 1p K0 values therefore do not depend on numpy's
SIMD dispatch level.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .specfun import EULER_GAMMA, SQRT_PI, _k0inc_array


#: up to this many targets form a single block: below it the work per
#: block costs more than the pairs that blocks cull
_FEW_TARGETS = 128

#: a run of a block's targets forms at most this many (target, candidate)
#: distances at once, and at least one target's: when r_cut is long against
#: the cell, one block spans it and its candidates are all the image points
_RUN_ELEMENTS = 2 ** 16


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
    exact on grids closed under negation, which ewald._check_grid enforces.
    The order of every rounding step is fixed:

        half    the kept vectors of kvecs, K/2 of them, selected on the
                signs of their components
        phase   (x kx + y ky) + z kz; for the targets one
                np.multiply.outer per axis, added in place
        S(k)    cs, sn accumulated one source at a time, n = 0 .. N-1,
                from q_n times cos and sin of that source's phases over the
                K/2 kept vectors
        targets at the sources: cos and sin of source n's phases are
                written to row n of the (M, K/2) cos and sin buffers c, s
                and the target phase step is skipped; the phase
                arithmetic is the same, so are the bytes
        weight  pref * math.exp(-k^2 quart) / k^2 per kept k, pref = 8 pi/V
                (twice 4 pi/V, exactly), quart = 1/(4 xi^2)
        re      c (w cs) + s (w sn), formed in place in c and s, then a
                numpy sum along K/2 per target

    c and s are the only target-sized arrays, (M, K/2) each.

    No BLAS routine is called and exp is libm's, so the result does not
    depend on the BLAS kernel or on numpy's SIMD level.
    """
    n_tar = targets.shape[0]
    if len(kvecs) == 0:
        return np.zeros(n_tar)
    kx, ky, kz = kvecs.T
    half = (kx > 0.0) | (kx == 0.0) & ((ky > 0.0) | (ky == 0.0) & (kz > 0.0))
    kx, ky, kz = np.ascontiguousarray(kvecs[half].T)
    k2 = (kx * kx + ky * ky) + kz * kz
    pref = 8.0 * math.pi / volume
    quart = 0.25 / (xi * xi)
    w = np.array([pref * math.exp(-k * quart) / k for k in k2.tolist()])
    n_k = len(w)
    cs = np.zeros(n_k)
    sn = np.zeros(n_k)
    phase = np.empty(n_k)
    tmp = np.empty(n_k)
    c = np.empty((n_tar, n_k))
    s = np.empty((n_tar, n_k))
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


def _g_array(kbar, dz, xi):
    # screened kernel g for one kbar over an array of z separations,
    # same two-branch overflow-safe evaluation as the scalar version: per
    # branch, erfcx(arg) exp(-c) where arg >= 0 and exp(+-kbar dz) erfc(arg)
    # where arg < 0, each formula taken only on its own elements; exp(-c)
    # is shared by both branches, and a branch without a negative argument
    # (h + w at the sources, where dz >= 0) needs no masking
    h = 0.5 * kbar / xi
    w = xi * dz
    c = h * h + w * w
    ec = np.exp(-c)
    out = np.zeros(dz.shape)
    for arg, sign in ((h + w, 1.0), (h - w, -1.0)):
        neg = arg < 0.0
        if not neg.any():
            out += sp.erfcx(arg) * ec
            continue
        term = np.empty(dz.shape)
        nonneg = ~neg
        term[nonneg] = sp.erfcx(arg[nonneg]) * ec[nonneg]
        term[neg] = np.exp((sign * kbar) * dz[neg]) * sp.erfc(arg[neg])
        out += term
    return out


def kspace_2p(pos, q, targets, xi, kvecs, area, at_sources):
    """2p k-space sum (pi/A) sum_kbar sum_n q_n g(|kbar|, dz)/|kbar| cos(kbar.drho).

    Returns the potential per target; at_sources says the targets are pos.
    g depends on kbar only through |kbar|, so the four sign combinations
    (+-kx, +-ky) of a grid vector sum to 4 g cos(kx dx) cos(ky dy).  The
    sum runs over the quadrant kx >= 0, ky >= 0 of the grid with
    multiplicity 2 for a vector with one zero component and 4 otherwise.
    That is exact on grids closed under the sign flip of each axis
    separately, which ewald._check_grid enforces.  The order of every
    rounding step is fixed:

        axis    cos(kx dx) = cos(kx x_m) cos(kx x_n) + sin(kx x_m) sin(kx x_n)
                as two outer products of 1-D tables, added; the x factor is
                formed and multiplied by q_n whenever kx changes along the
                grid order, the y factor is formed per quadrant vector
        g       _g_array(|kbar|, .); at the sources g is even in dz, so it
                runs on |z_m - z_n| for m <= n (the upper triangle, row by
                row, diagonal included) and is scattered to (M, N) by an
                index map built once per call; off the sources it runs on
                the (M, N) dz = z_m - z_n.  Both give the same bytes.
        term    (g * (x factor q_n)) * y factor, summed with numpy along N
                per target
        re      += (mult * pref / |kbar|) * that sum, pref = pi / area,
                one quadrant vector at a time in grid order

    Only (M, N) arrays of the current quadrant vector are held.
    """
    re = np.zeros(targets.shape[0])
    quad = [(kx, ky) for kx, ky in kvecs.tolist() if kx >= 0.0 and ky >= 0.0]
    if not quad:
        return re
    if at_sources:
        z = pos[:, 2]
        n = len(z)
        dz = np.abs(np.concatenate([z[m] - z[m:] for m in range(n)]))
        # index map: row m holds the triangle's pairs (m, m..N-1), which
        # follow one another from offset m N - m (m - 1)/2, and mirrors the
        # rows above it.  Filled row by row: building it with integer
        # ufuncs raised the peak RSS of a fresh N=64 2p call by ~0.15 MB.
        tri = np.empty((n, n), dtype=np.intp)
        for m in range(n):
            first = m * n - m * (m - 1) // 2
            tri[m, m:] = np.arange(first, first + n - m)
            tri[m, :m] = tri[:m, m]
    else:
        dz = targets[:, None, 2] - pos[None, :, 2]    # (M, N)
    pref = math.pi / area
    xt, yt = targets[:, 0], targets[:, 1]
    xs, ys = pos[:, 0], pos[:, 1]
    kx_done = None
    for kx, ky in quad:
        if kx != kx_done:
            cxq = (np.multiply.outer(np.cos(kx * xt), np.cos(kx * xs))
                   + np.multiply.outer(np.sin(kx * xt), np.sin(kx * xs)))
            cxq *= q
            kx_done = kx
        cy = np.multiply.outer(np.cos(ky * yt), np.cos(ky * ys))
        cy += np.multiply.outer(np.sin(ky * yt), np.sin(ky * ys))
        kb = math.hypot(kx, ky)
        g = _g_array(kb, dz, xi)
        if at_sources:
            g = g[tri]
        g *= cxq
        g *= cy
        mult = (2.0 if kx else 1.0) * (2.0 if ky else 1.0)
        re += (mult * pref / kb) * g.sum(axis=1)
    return re


def kspace_1p(pos, q, targets, xi, kz, length, abs_tol, rel_tol, max_sub):
    """1p k-space sum (1/L) sum_{k3 > 0} sum_n q_n 2 cos(k3 dz) K0(u, v).

    u = k3^2/4xi^2 and v = rho^2 xi^2.  K0 depends only on (k3, rho^2), so
    the table is built from the distinct values of rho^2 xi^2 (at the
    sources rho^2 is symmetric, which halves the work): one call of
    specfun._k0inc_array over every positive k3 and every distinct v, then
    scattered back to (M, N).  That call gives the bytes of _k0inc_scalar
    element by element: the same panel tree built a bisection level at a
    time across all elements, libm exp through math.exp, the accepted
    panels added right to left as the scalar stack does, and elements whose
    tree reaches max_sub panels (or v == 0, u < 1e-6) passed to the scalar
    routine itself.  Per k3 the (M, N) terms q_n 2 cos(k3 dz) K0 are summed
    along N with numpy, in the order of kz.
    """
    re = np.zeros(targets.shape[0])
    rho2 = ((targets[:, None, :2] - pos[None, :, :2]) ** 2).sum(axis=-1)
    dz = targets[:, None, 2] - pos[None, :, 2]
    xi2 = xi * xi
    first = {}    # distinct values by first occurrence: O(MN), no sort
    inv = np.array([first.setdefault(x, len(first))
                    for x in (rho2 * xi2).ravel().tolist()])
    inv = inv.reshape(rho2.shape)
    v = np.array(list(first))
    k3s = [k3 for k3 in kz if k3 > 0.0]
    u = np.array([0.25 * k3 * k3 / xi2 for k3 in k3s])
    table = _k0inc_array(*np.broadcast_arrays(u[:, None], v[None, :]),
                         abs_tol, rel_tol, max_sub)
    for k3, row in zip(k3s, table):
        re += (q[None, :] * 2.0 * np.cos(k3 * dz) * row[inv]).sum(axis=1)
    return re / length


def zero_mode_2p(zpos, q, ztar, xi, area):
    dz = ztar[:, None] - zpos[None, :]
    w = xi * dz
    terms = np.exp(-w * w) / xi + SQRT_PI * dz * sp.erf(w)
    return (-2.0 * SQRT_PI / area) * (q[None, :] * terms).sum(axis=1)


def _log_e1_bracket_array(x):
    # -gamma - log(x) - E1(x), continued to 0 at x = 0; series below 1e-3
    # where the log cancellation would otherwise cost accuracy
    small = x < 1e-3
    xs = np.where(small, x, 1.0)
    series = -xs + 0.25 * xs ** 2 - xs ** 3 / 18.0
    xl = np.where(small | (x == 0.0), 1.0, x)
    direct = -EULER_GAMMA - np.log(xl) - sp.exp1(xl)
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
    terms = np.log(rho2) + sp.exp1(rho2 * xi * xi)
    return -(q[None, :] * terms).sum(axis=1) / length
