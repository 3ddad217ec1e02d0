"""Vectorized numpy/scipy kernels of the Ewald layers.

One kernel per layer: the real-space pair sum, the k-space sum, and the 2p
and 1p zero modes.  Each takes plain arrays (source positions and charges,
target positions) that ewald.py has validated, and, where a layer treats
targets at the sources differently, a flag that says they are the
sources.  Both zero modes are finite at every point, and the 1p one sums
the screened logarithm -gamma - log(x) - E1(x), x = rho^2 xi^2, which is
-Ein(x) and +0.0 at rho = 0, at the sources and off them alike; it takes
the flag only to form the bracket of each pair of sources once there.
The bracket (_log_e1_bracket_array) is a fixed 33-term Horner sum of the
series of -Ein for x <= _EIN_X0 = 4, from the highest term down, with a
last step that adds c_0 = +0.0, so x = 0 gives +0.0; above 4 it is libm
log and scipy's exp1.  Its multiplies and adds are single float64
operations, so its bytes depend on neither the array nor SIMD dispatch.
It sums with numpy reductions in a fixed order, so reruns are
bit-identical.  The test suite checks each kernel against a plain loop over
math and the scalar routines of specfun.

real_space takes erfc only of the pairs within r_cut: it finds them block
by block of nearby targets, among the image points near each block, and
never forms an array over all (target, source, image) triples.  Off the
sources a block forms each axis's component of d^2 once per distinct
target coordinate where it repeats them, and gathers it to its targets.
At the sources it forms each pair of targets once, the pair of target m,
source n, image p with that of n, m, -p, and adds it to both; the blocks
own the pairs, so there they set the order of the sum.  One int32 rank
table per image point, built once per call, lets a block's scan take only
the points it owns, and where a call has more than one block, a block
takes only those within reach of its targets' bounding box.  The first
level of the mirror's tree, per pair of targets, is one np.einsum per run
(_pair_rows), in the order its docstring states on X86_V2, as below.

kspace_3p is the k-space sum of every mode, a plain weighted trig sum
over a lattice handed over in the kernel's own form (axes, px, py, wsd,
slices): the per-axis tables' rows, the (kx, ky) pairs, the slices and
tiles and the weights per cell.  ewald._extended_lattice builds that form,
the only place in the library that does, as it builds the lattice: one k
of each +-k pair of the mode's grid extended along its free axes (in 3p
the grid as it is), with the Ewald weight 8 pi/V e^{-k^2/4xi^2}/k^2 (see
the ewald module docstring).  The kernel sorts nothing and recovers
nothing from a vector list; it starts at the tiles.
The kernel returns the real part only and never forms the imaginary part.
It sums entries, not vectors: an entry holds the +|kz| and -|kz| vectors
of one distinct (kx, ky) pair, so per entry four source sums and one
target term serve both, by cos(a -+ b) = cos a cos b +- sin a sin b and
sin(a -+ b) = sin a cos b -+ cos a sin b with a = kx x + ky y, b = |kz| z.
Its cos and sin of a come from per-axis tables: libm cos and sin of kx x
and ky y, one row per distinct component of the lattice and one column
per point, built once per point and combined over the pairs of a slice;
those of b from the |kz| rows of the z tables.  libm runs on the distinct
|k| of an axis only, and the x and y rows of -|k| take the same cos and
the negated sin; that and the +-|kz| identity are exact on the
assumption, checked by the tests, that libm cos is even and sin odd.
Off the sources it also runs on the distinct target coordinates only: a
block of targets that repeats them takes its x, y and pair tables over
its distinct (x, y) and its z tables and their row sums over its
distinct z, and gathers both to its targets (_block_distinct).  Its
arrays hold pairs by points, one contiguous row per pair, and an entry's
terms are products of a pair's row and a z row.  One slice rule holds at
the sources and off them: _K_ELEMENTS // N pairs, so no array of the
kernel spans (pairs, points).  The pairs come by their last z row,
descending, so on a lattice cut by |k| those that reach a z row are a
prefix of their slice, and a slice's entries form tiles of consecutive z
rows by such a prefix (_tiles), at most half padding, so the work follows
the lattice.  The source sums S(k) of a tile are einsums over blocks of
_SOURCE_BLOCK sources (_source_sums), the blocks added in a fixed binary
tree; per target a tile's terms are added one at a time, row by row, by
one np.einsum per tile (_tile_sums), and a slice's pairs and the slices
in fixed binary trees (_fold, _pairwise).  It evaluates in a fixed,
written-down order with elementwise numpy operations, reductions and
those einsums only: each product and sum is its own float64 operation,
with no complex arithmetic and no matrix product.  The einsums run with
optimize=False, numpy's own sum-of-products loop, which calls no BLAS
routine (optimize routes through tensordot to BLAS, whose rounding
depends on the CPU it picks at run time).  That loop follows numpy's
baseline, not the dispatched SIMD level, and on x86-64's X86_V2 it keeps
two float64 lanes and does not fuse; a baseline with FMA or wider
vectors (X86_V3, aarch64) changes its order, and the order tests of the
suite (test_source_sums_add_in_the_stated_order,
test_tile_sums_add_in_the_stated_order and, for real space,
test_real_space_mirror_pairs_add_in_the_stated_order) fail there.

Every exp, log, cos and sin of the layers is glibc libm's, through one
compiled loop each that calls it once per element; numpy's own float64
exp, log, cos and sin are SIMD loops that differ from libm in the last
bit on some CPUs and arguments, and are never called.  cos and sin
(_cos_sin) are numpy's complex exp of 0 + iy, which is C cexp: glibc's
cexp(0 + iy) is exp(0) cos y + i exp(0) sin y with cos y and sin y from
sincos, and exp(0) = 1 exactly.  exp (_exp, for ewald's weights and the
2p zero mode) is scipy's inv_boxcox at lambda = 0, a call of C exp; log
(_log, for the 1p zero mode above _EIN_X0) is scipy's xlogy(1, x), 1.0
times C log.
The tests check all three byte for byte against math's libm calls, with
numpy's SIMD dispatch on and off.  The bytes of every layer therefore
depend on neither the BLAS build nor numpy's SIMD dispatch level.

Every kernel takes its points in blocks under _ROW_ELEMENTS (_blocks),
real space the targets of each spatial block in runs under it and
kspace_3p its targets off the sources (as columns), so no kernel forms
an (M, N) array; a point's terms and their order do not depend on these
blocks, so neither do the bytes.  Nor do they depend on the gathers of
the tables shared by repeated coordinates: a column or row of a table
is formed from its own coordinates alone, and coordinates are equal
when their bits are.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np
from scipy import special as sp

from .specfun import EULER_GAMMA, SQRT_PI


#: up to this many targets form a single block: below it the work per
#: block costs more than the pairs that blocks cull.  At the sources the
#: blocks own the pairs (_real_at_sources), so this sets the order of the
#: real-space sum there; off the sources it sets no order
_FEW_TARGETS = 128

#: every kernel takes its points in blocks of consecutive points (_blocks),
#: each array of a block at most this many (k, point), (target, source) or
#: (target, candidate) elements, and at least one point's: a block's arrays
#: stay in the CPU cache, and in real space, where one spatial block spans
#: the cell when r_cut is long against it, no array spans all image points
_ROW_ELEMENTS = 2 ** 15

#: kspace_3p takes the pairs in slices of _K_ELEMENTS // N (one at
#: least; ewald._extended_lattice builds the slices for the N sources of
#: its call), at the sources and off them alike, so a slice's (slice, N)
#: arrays stay in the CPU cache; the slices set the order of the k sum,
#: the column blocks of _ROW_ELEMENTS no order, so the two stay apart.
#: With whole-row gathers no floor on the slice pays: slices of 8 vectors
#: at 3p N=4096 ran 0.81 times as long as slices of 64
_K_ELEMENTS = 2 ** 15

#: kspace_3p sums the sources in blocks of this many consecutive ones
#: (_source_sums) and adds the blocks' sums in a binary tree: each block
#: is one einsum loop of two running sums, so on the 512 sources of the
#: bulk3p benchmark the source sums err as numpy's pairwise row sum did
#: (rms 1.86e-16 against 1.85e-16 of their rms, from math.fsum), where
#: one loop over all sources erred 5.46e-16
_SOURCE_BLOCK = 32

#: zero_mode_1p at the sources takes the sources in tiles of this many
#: and each pair of tiles once (_zero_mode_1p_at_sources); the tiles set
#: the order of its sum, so this is no budget: the tile arrays stay near
#: _ROW_ELEMENTS / 2 elements
_PAIR_TILE = 128

#: _cos_sin takes this many elements at a time through its complex
#: scratch, 64 KiB; longer runs read no faster
_TRIG_RUN = 2 ** 12

#: _log_e1_bracket_array sums the series of -Ein(x) up to this x and takes
#: -gamma - log x - E1(x) above it.  The alternating series loses about
#: log10(e^x / x) digits to cancellation, 1.1 at x = 4; against
#: mpmath on [1e-12, 50] the bracket errs by at most 2.6e-16 of
#: max(|bracket|, 1), and below x = 1e-2 by 1.4e-16 of itself
_EIN_X0 = 4.0

#: c_k = (-1)^k / (k k!), the coefficients of -Ein(x), k = 0 .. 33, each
#: correctly rounded (integer true division), c_0 = +0.0; the first term
#: left out, k = 34, is below 3e-20 at x = _EIN_X0
_EIN_COEFFS = (0.0,) + tuple((-1) ** k / (k * math.factorial(k))
                             for k in range(1, 34))


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
    The targets are split into spatial blocks (_target_blocks).  Off the
    sources a block takes as candidates the image points inside its
    bounding box widened by reach, r_cut and a rounding margin, so every
    pair within r_cut is a candidate; at the sources it takes those it
    owns, and in a call of more than one block only those within reach
    of the box (_real_at_sources).  Its targets are taken in runs of
    consecutive targets (_blocks over its candidates), each run with at
    most _ROW_ELEMENTS (target, candidate) pairs (one target at least);
    per run only (run targets, candidates) arrays are held, never (M, N)
    ones.  Off the sources the order of every rounding step is fixed:

        d^2     ((t_x - x_n + p_x)^2 + (t_y - ...)^2) + (t_z - ...)^2,
                each component (t - x_n) + p, for every candidate pair;
                where a block has few distinct t_a (no more than half its
                targets, nor than its first run has), each distinct t_a's
                squared components by the candidates once, a table whose
                rows are gathered to the run's targets (_component_table)
        d       sqrt(d^2), only for the pairs with d^2 <= T, T the largest
                double with sqrt(T) <= r_cut (_square_cut): exactly the
                pairs with d <= r_cut
        term    erfc(xi d) q_n / d, for those pairs
        sum     per target, its kept terms in ascending j (image by image
                in the order of images, source by source within an image)
                through np.add.reduceat: the first term plus numpy's
                pairwise sum of the others; 0.0 without a kept term

    The terms and their order per target do not depend on the partition
    into blocks and runs, nor on the tables, whose rows are formed from
    their own coordinate alone, so neither do the bytes of the result.  A
    table holds no more elements than a run's d^2.  At the sources each
    pair is formed once (_real_at_sources).
    """
    # per axis the source coordinates and image shifts, and (P N,) the
    # image points, j of source j % N and image j // N
    axes = np.ascontiguousarray(pos.T), np.ascontiguousarray(images.T)
    ycols = [(axes[0][a][None, :] - axes[1][a][:, None]).ravel()
             for a in range(3)]
    extent = max(np.abs(targets).max(), max(np.abs(y).max() for y in ycols))
    reach = r_cut + 1e-12 * (r_cut + extent)
    blocks = _target_blocks(targets, r_cut)
    if at_sources:
        return _real_at_sources(pos, q, images, axes, ycols, blocks, reach,
                                xi, r_cut)
    out = np.zeros(targets.shape[0])
    d2_cut = _square_cut(r_cut)
    # the distinct coordinates of each block's targets per axis, for its
    # component tables, where the axis repeats a coordinate
    found = [_block_distinct(targets[:, a:a + 1], blocks) if repeats else None
             for a, repeats in enumerate(_repeats(targets))]
    for b, blk in enumerate(blocks):
        cand = _in_box(ycols, targets[blk], reach)
        src, xs, ps = _candidates(axes, cand)
        qs = q[src]
        runs = _blocks(len(blk), len(cand))
        tables = [f and _component_table(targets[:, a], b, blk, f, xs[a],
                                         ps[a], runs[0])
                  for a, f in enumerate(found)]
        for part in runs:
            run = blk[part]
            d = np.empty((len(run), len(cand)))
            _square_distances(targets[run], xs, ps, d, np.empty_like(d),
                              tables, part)
            # the kept pairs by index, in (target, candidate) order
            keep = np.flatnonzero(d <= d2_cut)
            dk = np.sqrt(d.ravel().take(keep))
            del d
            close = dk < eps
            if close.any():
                row, col = divmod(int(keep[np.argmax(close)]), len(cand))
                raise ValueError(
                    f"target {run[row]} lies within {eps:.3e} of source "
                    f"{src[col]}; evaluate at sources instead")
            terms = np.multiply(dk, xi)
            sp.erfc(terms, out=terms)
            terms *= qs.take(keep % len(cand))
            terms /= dk
            bounds = np.searchsorted(keep, np.arange(len(run) + 1)
                                     * len(cand))
            first = bounds[:-1]
            has = bounds[1:] > first
            out[run[has]] = np.add.reduceat(terms, first[has])
    return out


def _component_table(t, b, blk, found, x, p, run):
    """For the coordinates t of the targets blk of block b along one axis
    and the block's candidates (source coordinates x and image shifts p
    along it): where blk holds no more distinct t than its first run (a
    slice of blk) has targets, nor than half its targets (_block_rows),
    (table, ids), the table ((t - x_n) + p_n)^2 of each distinct t by the
    candidates and per target its row; None elsewhere.  So a table holds
    no more elements than the run's d^2, and each of its rows serves two
    targets or more."""
    rows, ids = _block_rows(found, b, blk,
                            min(run.stop - run.start, len(blk) // 2))
    if ids is None:
        return None
    table = np.empty((len(rows), len(x)))
    _component(t[rows], x, p, table)
    return table, ids


def _real_at_sources(pos, q, images, axes, ycols, blocks, reach, xi, r_cut):
    """real_space at the sources: each pair formed once, by its owner.

    The term of (target m, source n, image p) and that of (n, m, -p) have
    the same d^2 bit for bit ((x_n - x_m) - p = -((x_m - x_n) + p) per
    component), so the pair is formed once and adds q_n t to target m and
    q_m t to target n, t = erfc(xi d)/d.  This takes the image set closed
    under negation, as build_image_vectors' is.  The owner of a pair is
    the target of the earlier block (_target_blocks); within one block,
    the target whose image p lies in the upper half, the one whose first
    nonzero coordinate is positive; for p = 0 within one block, the lower
    index.  One int32 table, built once per call, holds per image point
    j = p N + n its rank 3 (block of source n) + (half of image p), 0 to
    2 for the upper half, p = 0 and the lower half (_image_halves).  So
    block b keeps as candidates the image points of rank 3 b + 1 (p = 0
    in its own block, for the sources n > m of a target m only, which
    leaves out its own point) and 3 b or from 3 b + 3 on, and, where the
    call has more than one block, only those whose distance to its
    targets' bounding box is at most reach (_near_box): every pair within
    r_cut is one.  A single block (N <= _FEW_TARGETS) keeps every owned
    point of its box widened by reach, and so the own sums it had before
    the pruning.  The block takes its targets in runs of an even
    number of them from an even offset, each run with at most
    _ROW_ELEMENTS (target, candidate) pairs (two targets at least), and
    forms d^2 and d as real_space does; the order of the other rounding
    steps is fixed:

        t       erfc(xi d) / d, for the owned pairs with d <= r_cut
        own     per target, q_n t over the block's candidates in ascending
                j, 0.0 where no pair is kept: numpy's pairwise sum of the
                row
        mirror  per candidate j, q_m t over the block's targets m in
                ascending order, in the binary tree of _pairwise_rows,
                which does not depend on the runs: its first level, per
                pair of targets a, b from an even offset, q_a t_a + q_b t_b
                by one np.einsum("gm,gmj->gj", optimize=False) per run
                (_pair_rows), the rest over these pair rows; per source,
                the sums of its image points in the block (0.0 for those
                not candidates) in the binary tree of _fold over the
                images; the blocks' sums in the binary tree of _pairwise
        sum     own + mirror

    The einsum adds each product to 0.0 in m order, each product and sum
    rounded on its own, on numpy builds whose baseline is X86_V2 (no FMA):
    q_a t_a + q_b t_b, the tree's own first sum (0.0 + x is x, or +0.0 for
    -0.0, which the bincount of the mirror erases); a block of an odd
    number of targets ends in a pair with a zero row, whose sum is q_a t_a.
    The bytes thus depend on the blocks, which own the pairs and set the
    candidates of the own sums, but not on the runs.  Besides a run's
    arrays, a block holds (P N,) ones and log2 of its target count of
    (candidates,) partial sums, and _pairwise log2 of the block count of
    (N,) ones.
    """
    n = pos.shape[0]
    d2_cut = _square_cut(r_cut)
    # per image point j = p N + n its rank, 3 (block of source n) + (half
    # of image p): block b owns ranks 3 b, 3 b + 1 (for n > m) and from
    # 3 b + 3 on
    owner = np.empty(n, np.int32)    # the block of each source
    for b, blk in enumerate(blocks):
        owner[blk] = b
    rank = (3 * owner + _image_halves(images)[:, None]).ravel()
    out = np.zeros(n)
    # d^2 (then t, its pad row 0.0), a work array (q_n t, then the pair
    # rows) and the kept pairs' d of a run, reused from run to run: fresh
    # arrays per run cost page faults, as glibc returns them to the system
    # between runs
    buf = np.empty((3, _ROW_ELEMENTS))

    def block_sums():    # per block, what it adds to each image point
        nonlocal buf
        for b, blk in enumerate(blocks):
            cand = _in_box(ycols, pos[blk], reach,
                           (rank >= 3 * b) & (rank != 3 * b + 2))
            if len(blocks) > 1:
                cand = _near_box(ycols, cand, pos[blk], reach)
            src, xs, ps = _candidates(axes, cand)
            # p = 0 in the own block: n > m only
            tri = rank.take(cand) == 3 * b + 1
            span = np.flatnonzero(tri)
            span = slice(span[0], span[-1] + 1) if span.size else None
            qs = q[src]
            if 2 * len(cand) > buf.shape[1]:    # a run of two targets
                buf = np.empty((3, 2 * len(cand)))

            def pair_rows():    # per pair of targets, q_a t_a + q_b t_b
                # runs of pairs of targets, each within _ROW_ELEMENTS
                for part in _blocks(-(-len(blk) // 2), 2 * len(cand)):
                    run = blk[2 * part.start:2 * part.stop]
                    m, g = len(run), part.stop - part.start
                    d, w = (a[:2 * g * len(cand)].reshape(2 * g, -1)
                            for a in buf[:2])
                    _square_distances(pos[run], xs, ps, d[:m], w[:m])
                    if span is not None:
                        # NaN fails the test of d^2 below
                        drop = tri[span] & (src[span] <= run[:, None])
                        d[:m, span][drop] = np.nan
                    keep = np.flatnonzero(d[:m] <= d2_cut)
                    dk = d.ravel().take(keep, out=buf[2, :len(keep)],
                                        mode="clip")
                    np.sqrt(dk, out=dk)
                    if (dk == 0.0).any():
                        raise ValueError("zero distance between a target "
                                         "and a periodic image")
                    t = np.multiply(dk, xi, out=w.ravel()[:len(keep)])
                    sp.erfc(t, out=t)
                    t /= dk
                    # t per (target, candidate), 0.0 where not kept and in
                    # the pad row
                    d.fill(0.0)
                    d.ravel().put(keep, t)
                    out[run] = np.multiply(d[:m], qs, out=w[:m]).sum(axis=1)
                    yield _pair_rows(q[run], d, w[:g])

            grid = np.bincount(cand, _pairwise_rows(pair_rows()),
                               len(ycols[0]))
            yield _fold(grid.reshape(-1, n))

    mirror = _pairwise(block_sums())
    out += mirror
    return out


def _pair_rows(qr, t, out):
    """Into out, (pairs, candidates), per pair of rows a, b of t from an
    even offset qr[a] t[a] + qr[b] t[b]: one np.einsum("gm,gmj->gj",
    optimize=False), whose loop adds each product to 0.0 in m order, each
    rounded on its own on numpy's X86_V2 baseline.  t holds two rows per
    pair and qr one weight per row, but for the last row where qr's
    length is odd: that row of t holds 0.0 and takes the weight 0.0."""
    w = np.zeros(len(t))
    w[:len(qr)] = qr
    return np.einsum("gm,gmj->gj", w.reshape(-1, 2),
                     t.reshape(len(out), 2, -1), out=out, optimize=False)


def _candidates(axes, cand):
    """Of the image points cand, j = p N + n: per point its source n, and
    per axis the (candidates,) source coordinates x_n and image shifts p,
    gathered from axes, the per-axis rows of the N sources and the P
    images."""
    img, src = np.divmod(cand, axes[0].shape[1])
    return (src, [x.take(src) for x in axes[0]],
            [p.take(img) for p in axes[1]])


def _in_box(ycols, tb, reach, owned=None):
    # the image points inside the bounding box of the points tb widened
    # by reach, as indices j; with owned, a mask per image point, of those
    # it holds only
    lo = tb.min(axis=0) - reach
    hi = tb.max(axis=0) + reach
    inbox = (ycols[0] >= lo[0]) & (ycols[0] <= hi[0])
    for a in (1, 2):
        inbox &= (ycols[a] >= lo[a]) & (ycols[a] <= hi[a])
    if owned is not None:
        inbox &= owned
    return np.flatnonzero(inbox)


def _near_box(ycols, cand, tb, reach):
    """Of the image points cand, those whose distance to the bounding box
    of the points tb (each axis's gap to its coordinate range, squared and
    summed) is at most reach."""
    lo = tb.min(axis=0)
    hi = tb.max(axis=0)
    for a in range(3):
        y = ycols[a].take(cand)
        gap = np.maximum(lo[a] - y, y - hi[a])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        if a:
            gap2 += gap
        else:
            gap2 = gap
    return cand[gap2 <= reach * reach]


def _image_halves(images):
    """Per image p: 0 if its first nonzero coordinate is positive (the
    upper half), 1 for p = 0, 2 if it is negative (the lower half)."""
    first = np.argmax(images != 0.0, axis=1)
    lead = images[np.arange(len(images)), first]
    return 1 - np.sign(lead).astype(np.int32)


def _square_distances(tr, xs, ps, d, work, tables=(None,) * 3, part=None):
    """d^2 of the targets tr by the candidates (source coordinates xs and
    image shifts ps per axis) into d, (targets, candidates), in the fixed
    order ((t_x - x_n + p_x)^2 + (t_y - ...)^2) + (t_z - ...)^2, each
    component (t - x_n) + p (_component); work is an array of d's shape.
    Where tables[a] is given, (table, ids), the components of axis a are
    the rows ids[part] of table, the same components formed once per
    distinct t_a (_component_table), so the bytes are those formed here.
    Taking t - (x_n - p) from the image points ycols would save the add,
    but x_n - p is rounded before the difference is formed, which moves
    every image point of p != 0 by up to half an ulp of its coordinate: on
    the bulk3p benchmark (3p, N = 512) it ran the call at 0.945 times the
    time, and against the reference of this order, at seeds 0-5,
    err_digits fell from 15.377 to 15.238 in the mean and by 0.53 at seed
    3.  A reference taken in that other order shares the shift, so its
    own err_digits hides it (15.370)."""
    for a, (table, into) in enumerate(zip(tables, (d, work, work))):
        if table is None:
            _component(tr[:, a], xs[a], ps[a], into)
        else:
            np.take(table[0], table[1][part], axis=0, out=into,
                    mode="clip")
        if a:
            d += work


def _component(t, x, p, out):
    """((t - x) + p)^2 of the coordinates t by the candidates' source
    coordinates x and image shifts p into out, (len(t), candidates)."""
    np.subtract.outer(t, x, out=out)
    out += p
    out *= out


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


def kspace_3p(pos, q, targets, lattice, at_sources):
    """Weighted trig sum sum_k w_k (C_k cos k.t + S_k sin k.t) per target t.

    C_k and S_k are sum_n q_n cos k.x_n and sum_n q_n sin k.x_n, so the sum
    is sum_k w_k sum_n q_n cos(k.(t - x_n)) over the vectors of lattice;
    at_sources says the targets are pos.  lattice is the kernel's form of
    the vectors and weights, (axes, px, py, wsd, slices), for slices of
    _K_ELEMENTS // N pairs (ewald._extended_lattice):

        axes    per axis x, y, z the distinct |u| of the components u
                (ascending) and whether the table takes signed rows (x and
                y: the |u| rows, then, if signed, the rows of -|u|; z: the
                |kz| rows only)
        px, py  per distinct pair (kx, ky) its x and y table rows, by its
                last |kz| row descending, then by px and py
        slices  per slice of pairs its pairs (a slice) and its tiles, each
                (first and end z row, pairs, first and end cell): the rows
                ra .. rb - 1 by the first pairs of the slice (_tiles)
        wsd     per cell ws = w+ + w- and wd = w+ - w-

    It sums entries, not vectors: an entry (P, |kz|), a cell, holds the
    vectors (kx, ky, +|kz|) and (kx, ky, -|kz|) of one distinct pair
    P = (kx, ky), with weights w+ and w-, each the sum of the weights of
    its vectors (0.0 for one the lattice lacks).  With cxy, sxy the cos
    and sin of kx x + ky y and cz, sz those of |kz| z, cos k.x =
    cxy cz -+ sxy sz and sin k.x = sxy cz +- cxy sz for +-|kz|.  So per
    entry four sums over the sources

        X = sum cxy q cz,  Z = sum sxy q cz,  W = sum cxy q sz,
        Y = sum sxy q sz

    give C+- = X -+ Y and S+- = Z +- W, and with a+- = w+- C+- and
    b+- = w+- S+- the potential is sum_P cxy U_P + sxy V_P, where U_P and
    V_P sum over the entries of P

        U_P = (a+ + a-) cz + (b+ - b-) sz,  V_P = (b+ + b-) cz + (a- - a+) sz

    Off the sources each target thus pays per entry, not per vector.  The
    identity takes cz and sz on the |kz| rows only; that is exact on libm's
    values as (-u) z = -(u z) and libm cos is even and sin odd, which the
    x and y tables assume too (_axis_tables).

    The pairs are taken in slices of _K_ELEMENTS // N (one at least), at
    the sources and off them alike, so no array spans (pairs, points);
    per slice the pair tables cxy, sxy (_pair_tables) are formed from the
    per-axis tables, built once per point: once for the sources, and off
    the sources once per column block of targets (_blocks), the outer loop
    there, each block of at most _ROW_ELEMENTS // pairs targets, pairs
    those of the widest slice.  Where a block's distinct (x, y) or
    distinct z number at most half its targets (_block_rows), its x, y
    and pair tables are taken over its distinct (x, y), or its z tables
    and the tiles' U, V sums over its distinct z, and gathered to its
    targets: the pair tables after they are formed, the U, V sums after
    the slice's tiles are added.  A slice's entries are taken in tiles
    (_tiles), each a block of consecutive |kz| rows by the first pairs of
    the slice, those that reach its first row, whose cells, entries and
    padding (weight 0.0), count at most twice its cells of the pairs'
    staircase and at most _K_ELEMENTS // N.  The order of every rounding
    step is fixed:

        xy      per pair, cxy = (cx cy) - (sx sy), sxy = (sx cy) + (cx sy);
                off the sources once per distinct (x, y) of a block that
                repeats them, then gathered
        S(k)    per cell, cxy and sxy times q cz and q sz, X, Z, W and Y,
                summed over blocks of _SOURCE_BLOCK consecutive sources
                (_source_sums): per block two running sums from 0.0,
                lane l adding per group of 8 sources the products at
                offsets 6 + l, 4 + l, 2 + l, l, the rest in pairs, then
                lane 0 + lane 1; the blocks' sums in _fold's tree
        coeff   per cell, with ws = w+ + w- and wd = w+ - w-,
                (X ws) - (Y wd) and (W ws) + (Z wd) for U, (Z ws) + (W wd)
                and (Y ws) - (X wd) for V (_coefficients, per tile)
        U, V    per tile, pair and target, its 2 x rows terms (coefficient
                times cz or sz) added one at a time from 0.0, row by row,
                cz before sz: np.einsum("rjip,rjm->ipm", optimize=False)
                (_tile_sums); per slice the tiles' sums added in tile
                order onto the first tile's, which spans the slice's pairs;
                off the sources once per distinct z of a block that
                repeats them, then gathered
        slice   per target, U cxy and V sxy over the slice's pairs, the
                2 x pairs rows (U rows, then V rows) folded (_fold)
        sum     per target, the sums of the slices added in the fixed
                binary tree of _pairwise

    At the sources each tile's sums are one np.einsum("ipbn,rjbn->brjip",
    optimize=False) over its full blocks, on views of the pair tables and
    q cz, q sz rows (contiguous along the sources, so no copy), and one
    np.einsum("ipn,rjn->rjip") over the last, shorter block; a single
    block is written straight into the tile's cells.  Each sum runs in
    numpy's baseline sum-of-products loop for two contiguous operands and
    a fixed output, which on the two float64 lanes of X86_V2 adds in the
    order above, and no work array of products is formed.  On the target
    side a tile's
    coefficients lie contiguous in (row, z table, U/V, pair) order, as
    _coefficients writes them in coef, and the z tables row-major, (rows,
    2, points) (_axis_tables), so the einsum's inner loop runs along the
    points of one z row with one coefficient, into a preallocated (U, V)
    array, and no tile work array is formed.  Both orders hold on numpy
    builds whose baseline is X86_V2: two float64 lanes and no FMA.  A
    baseline with FMA or wider vectors (X86_V3, aarch64) moves the last
    bits, and the order tests of the suite, which check both einsums byte
    for byte with SIMD dispatch on and off, fail there.

    Every column is formed and summed from its own point alone, and
    gathered columns are those of equal coordinates (by their bits), so
    the bytes depend on neither the column blocks nor the other targets
    nor the gathers, and at the sources they equal those of the general
    path; the slices and
    tiles, and so N, move their last bits.  No BLAS routine is called (the
    einsum runs without optimize) and cos and sin are glibc libm's sincos,
    through C cexp of 0 + iy (_cos_sin), so the result depends on neither
    the BLAS kernel nor numpy's SIMD level.  Work and memory follow the
    lattice: on the lattices of ewald._extended_lattice, cut by |k|, the
    tiles hold fewer cells than vectors, and the builder refuses a grid
    whose staircase exceeds 2K + _K_ELEMENTS // N cells before any array
    beyond O(K) is formed.
    """
    n_src = len(pos)
    axes, px, py, wsd, slices = lattice
    width = max([0] + [len(px[part]) for part, _ in slices])
    # cells in the largest tile, or pairs in the widest slice
    most = max([width] + [c1 - c0 for _, tiles in slices
                          for *_, c0, c1 in tiles])
    # off the sources each (pairs, targets) table of a block within
    # _ROW_ELEMENTS
    blocks = [] if at_sources else _blocks(len(targets), width)
    cols = max([0] + [b.stop - b.start for b in blocks])
    # the pair tables and the (U, V) rows of a slice, 2 * width * m
    # elements each for m points, and a work array behind them, reused
    # from slice to slice: fresh arrays of this size per slice cost page
    # faults, as glibc returns them to the system between slices.  The
    # work array holds the gathers of the pair tables, which start in the
    # (U, V) rows and take width * m of it, then a tile's per-block source
    # sums at the sources or its (U, V) sums where the slices are summed.
    # A block's tables over at most m / 2 distinct values fit in the same:
    # the pair tables and their work, 5 width m / 2 elements, from the
    # (U, V) rows on, and the (U, V) sums, width m, in the work array
    n_blocks = -(-n_src // _SOURCE_BLOCK)
    buf = np.empty(4 * width * max(n_src, cols) + max(
        width * n_src, 4 * most * n_blocks,
        2 * width * (n_src if at_sources else cols)))
    # per tile, its cells' [r, j, i, p]: per row r and pair p the source
    # sums of z table j (cz, sz) and pair table i (cxy, sxy), then its
    # coefficient of z table j in U (i = 0) or V (i = 1)
    coef = np.empty(4 * wsd.shape[1])

    def views(tables, part, m, ids=None):    # the z tables (rows, 2, .),
        # the slice's (2, pairs, m) xy and UV arrays and the work array.
        # With ids, the xy tables' columns are distinct (x, y) and ids
        # gives each point's: the pair tables go to the (U, V) rows, their
        # work behind them, and are gathered to the points' columns
        size, n = 2 * width * m, len(px[part])
        xy, uv = (buf[i * size:i * size + 2 * n * m].reshape(2, n, m)
                  for i in (0, 1))
        work = buf[2 * size:]
        if ids is None:
            _pair_tables(tables, px[part], py[part], xy, buf[size:])
        else:
            end = size + 2 * n * len(tables[0][0])
            pairs = buf[size:end].reshape(2, n, -1)
            _pair_tables(tables, px[part], py[part], pairs, buf[end:])
            np.take(pairs, ids, axis=2, out=xy, mode="clip")
        return tables[4].swapaxes(0, 1), xy, uv, work

    def slice_sums(tiles, zs, xy, uv, work, ids=None):    # per target,
        # its slice sum.  The tiles sum per z table column into the (U, V)
        # rows, the tiles past the first into work; with ids, where the
        # columns are distinct z and ids gives each point's, into work and
        # the (U, V) rows instead, and the sums are gathered to the rows
        n, m = uv.shape[1], zs.shape[-1]
        acc, spare = (uv, work) if ids is None else (
            work[:2 * n * m].reshape(2, n, m), uv.ravel())
        for ra, rb, k, c0, c1 in tiles:
            # the first tile (row 0) spans the slice's pairs
            t = acc if ra == 0 else spare[:2 * k * m].reshape(2, k, m)
            _tile_sums(coef[4 * c0:4 * c1].reshape(rb - ra, 2, 2, k),
                       zs[ra:rb], t)
            if ra:
                acc[:, :k] += t
        if ids is not None:
            np.take(acc, ids, axis=2, out=uv, mode="clip")
        uv *= xy
        return _fold(uv.reshape(2 * n, -1))

    def source_slices():    # per slice, after its cells' coefficients
        tables = _axis_tables(pos, pos[:, 2], axes)
        qz = tables[4].swapaxes(0, 1) * q
        for part, tiles in slices:
            zs, xy, uv, work = views(tables, part, n_src)
            for ra, rb, n, c0, c1 in tiles:
                c = coef[4 * c0:4 * c1].reshape(rb - ra, 2, 2, n)
                _source_sums(xy[:, :n], qz[ra:rb], c, work)
                _coefficients(c, wsd[:, c0:c1])
            yield tiles, zs, xy, uv, work

    out = np.zeros(len(targets))
    if at_sources:
        out[:] = _pairwise(slice_sums(*args) for args in source_slices())
        return out
    for _ in source_slices():    # every cell's coefficients first
        pass
    # the distinct (x, y) and z of each block, for its tables, where they
    # repeat
    repeats = _repeats(targets)
    found = [_block_distinct(targets[:, :2], blocks) if repeats[:2].all()
             else None,
             _block_distinct(targets[:, 2:], blocks) if repeats[2] else None]
    for b, blk in enumerate(blocks):
        m = blk.stop - blk.start
        (rxy, ixy), (rz, iz) = (_block_rows(f, b, blk, m // 2) for f in found)
        tables = _axis_tables(targets[rxy], targets[rz, 2], axes)
        out[blk] = _pairwise(
            slice_sums(tiles, *views(tables, part, m, ixy), iz)
            for part, tiles in slices)
    return out


def _repeats(pts):
    """Per column of pts, whether it repeats a value (bit for bit): one
    sort of their bit patterns."""
    ordered = np.sort(np.ascontiguousarray(pts.T).view(np.int64))
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def _block_distinct(coords, blocks):
    """The distinct rows of coords, (points, axes), within each block of
    blocks (slices or index arrays that partition the points): (local,
    reps, starts), local per point the index of its row among its block's
    distinct rows, reps per block one point of each of these, those of
    block b at reps[starts[b]:starts[b + 1]].  The rows compare by their
    bit patterns, which keep 0.0 and -0.0 apart, whose sines differ.  One
    sort of the points by block and row."""
    labels = np.empty(len(coords), np.intp)
    for b, blk in enumerate(blocks):
        labels[blk] = b
    keys = [*np.ascontiguousarray(coords.T).view(np.int64)[::-1], labels]
    order = np.lexsort(keys)
    new = np.zeros(len(order), bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    labels = labels[order]
    starts = np.searchsorted(labels[new], np.arange(len(blocks) + 1))
    local = np.empty(len(order), np.intp)
    local[order] = np.cumsum(new) - 1 - starts[labels]
    return local, order[new], starts


def _block_rows(found, b, blk, most):
    """(rows, ids) of block b, its points blk, from _block_distinct's
    found: rows the points whose coordinates a block's table takes as its
    columns, and ids per point of blk its column.  Where blk holds at most
    most distinct rows, rows holds one point of each and ids the index of
    each point's; where it holds more, rows is blk and ids None, the
    identity."""
    if found is None:
        return blk, None
    local, reps, starts = found
    if starts[b + 1] - starts[b] > most:
        return blk, None
    return reps[starts[b]:starts[b + 1]], local[blk]


def _coefficients(s, wsd):
    """In place of a tile's source sums s, s[r, j, i] of row r, z table j
    and pair table i (X, Z; W, Y), their coefficients s[r, j, i] of z
    table j in U (i = 0) and V (i = 1), with ws = w+ + w- and wd = w+ - w-
    (wsd, of the tile's cells):

        U cz   (X ws) - (Y wd)      V cz   (Z ws) + (W wd)
        U sz   (W ws) + (Z wd)      V sz   (Y ws) - (X wd)

    which is (a+ + a-), (b+ + b-), (b+ - b-) and (a- - a+) for
    a+- = w+- (X -+ Y) and b+- = w+- (Z +- W)."""
    ws, wd = wsd.reshape(2, len(s), 1, -1)
    s4 = s.reshape(len(s), 4, -1)    # per row X, Z, W, Y
    t = s4[:, ::-1] * wd    # Y wd, W wd, Z wd, X wd
    s4 *= ws
    s4[:, 1:3] += t[:, 1:3]
    s4[:, ::3] -= t[:, ::3]


def _source_sums(xy, qz, out, work):
    """Into out, (rows, 2, 2, pairs), the sums over the sources n of
    xy[i, p, n] qz[r, j, n], xy the pair tables (2, pairs, sources) and qz
    the q cz and q sz rows (rows, 2, sources), both contiguous along the
    sources.  The sources are taken in blocks of _SOURCE_BLOCK consecutive
    ones, the last block the rest: per block np.einsum without optimize
    (the full blocks in one call, on views of the operands), whose loop on
    numpy's X86_V2 baseline keeps two running sums from 0.0, lane l adding
    per group of 8 sources the products at offsets 6 + l, 4 + l, 2 + l and
    l, the rest in pairs (lane 0 the first of a pair), and returns lane 0
    + lane 1.  The blocks' sums are added in the binary tree of _fold, in
    work (blocks x out.size elements); a single block is written straight
    into out."""
    full, tail = divmod(xy.shape[-1], _SOURCE_BLOCK)
    blocks = full + (tail > 0)
    if blocks == 1:
        return np.einsum("ipn,rjn->rjip", xy, qz, out=out, optimize=False)
    sums = work[:blocks * out.size].reshape((blocks,) + out.shape)
    end = full * _SOURCE_BLOCK
    if full:
        np.einsum("ipbn,rjbn->brjip",
                  xy[..., :end].reshape(xy.shape[:2] + (full, -1)),
                  qz[..., :end].reshape(qz.shape[:2] + (full, -1)),
                  out=sums[:full], optimize=False)
    if tail:
        np.einsum("ipn,rjn->rjip", xy[..., end:], qz[..., end:],
                  out=sums[full], optimize=False)
    out[...] = _fold(sums.reshape(blocks, -1)).reshape(out.shape)
    return out


def _tile_sums(c, zs, out):
    """Into out, (2, pairs, points), the sums over a tile's rows r and z
    tables j of c[r, j, i, p] zs[r, j], c (rows, 2, 2, pairs) and zs
    (rows, 2, points): np.einsum without optimize, whose loop adds each
    product to out[i, p], from 0.0, in (r, j) order, each product and sum
    rounded on its own where numpy's baseline has no FMA.  Its iteration
    follows the operands' strides, so zs takes row r outside table j."""
    return np.einsum("rjip,rjm->ipm", c, zs, out=out, optimize=False)


def _fold(rows):
    """The column sums of rows, added in a fixed binary tree: while n > 1
    rows are left, the last h = n // 2 are added onto the first h
    (rows[:h] += rows[n - h:n]) and n becomes n - h.  Overwrites rows and
    returns rows[0], which holds the sums."""
    n = len(rows)
    while n > 1:
        h = n // 2
        rows[:h] += rows[n - h:n]
        n -= h
    return rows[0]


def _pairwise(terms):
    """The sum of the arrays that terms yields, in the fixed binary tree of
    _pairwise_rows, one term per row; 0.0 when terms yields none."""
    return _pairwise_rows(t[None] for t in terms)


def _pairwise_rows(chunks):
    """The sum of the rows of the arrays that chunks yields, in a fixed
    binary tree over the rows that does not depend on the chunks.

    Consecutive runs of 1, 2, 4, ... rows are added as they complete, the
    earlier run on the left, and the runs left at the end from the last
    to the first, so at most log2 of their count partial sums are held.
    A chunk adds its rows in aligned runs at once, a run of 2^j rows as
    ((r0 + r1) + (r2 + r3)) + ..., neighbours level by level in place.
    Overwrites the chunks.  0.0 when chunks yield no row.
    """
    stack = []    # (rows in the run, its sum), the longest run first
    done = 0    # rows taken
    for rows in chunks:
        i = 0
        while i < len(rows):
            # the longest run from row done that is aligned and in the chunk
            size = 1 << (len(rows) - i).bit_length() - 1
            if done:
                size = min(size, done & -done)
            run = rows[i:i + size]
            h = 1
            while h < size:
                run[::2 * h] += run[h::2 * h]
                h *= 2
            t = run[0].copy()
            i += size
            done += size
            while stack and stack[-1][0] == size:
                t += stack.pop()[1]
                size *= 2
            stack.append((size, t))
    total = stack.pop()[1] if stack else 0.0
    while stack:
        total += stack.pop()[1]
    return total


def _tiles(last, step, pair, row):
    """The slices and tiles of kspace_3p for pairs whose last |kz| rows,
    last, descend, in slices of step pairs: (slices, cell, end).

    A slice's tiles come by row: a tile starts at a row with the pairs
    that reach it, and takes the next row while it then spans at most
    step cells, at least half of them in the pairs' staircase.  A tile's
    cells run row by row, pair by pair, numbered from 0 to end over the
    tiles in order.  slices holds per slice its pairs (a slice) and its
    tiles: (first and end z row, pairs, first and end cell); a tile's
    pairs are the first of its slice.  cell holds the cell of each
    (pair, row) given, each row at most the last of its pair.
    """
    # per slice and row the cell of its first pair less its first pair's
    # index p0 (base), so that the cell of (pair, row) is the base of its
    # slice and row plus pair; rows beyond a slice's last hold 0
    slices, base, end = [], [], 0
    for p0 in range(0, len(last), step):
        base.append([0] * (last[0] + 1))
        # per row the pairs that reach it
        reach = np.searchsorted(-last[p0:p0 + step], -np.arange(last[p0] + 1),
                                "right").tolist()
        # per row r the staircase's cells of the rows before it
        cum = list(itertools.accumulate(reach, initial=0))
        tiles, ra = [], 0
        while ra < len(reach):
            n = reach[ra]
            # the tile ends at the first end e whose (e - ra) n cells exceed
            # step or twice the staircase's cum[e] - cum[ra]: row e - 1
            # changes that margin by 2 reach[e - 1] - n, which falls as
            # reach does, so once the test fails it keeps failing
            hi = min(len(reach), ra + step // n)
            rb = hi if hi == ra + 1 else ra + bisect.bisect_left(
                range(ra + 1, hi + 1), True,
                key=lambda e: (e - ra) * n > 2 * (cum[e] - cum[ra]))
            tiles.append((ra, rb, n, end, end + (rb - ra) * n))
            base[-1][ra:rb] = range(end - p0, end - p0 + (rb - ra) * n, n)
            end, ra = end + (rb - ra) * n, rb
        slices.append((slice(p0, p0 + step), tiles))
    cell = np.array(base, np.intp, ndmin=2)[pair // step, row]
    cell += pair
    return slices, cell, end


def _axis_tables(xy, z, axes):
    """cx, sx, cy, sy and zs: libm cos and sin of u x and u y over the rows
    of the x and y axes (the lattice's axes, kspace_3p) by the points xy
    (their first two columns), one column per point (each product rounded
    once), and zs, (2, rows, len(z)), the cos and sin of u z over the rows
    of the z axis by the z coordinates z, one column each.  libm runs on
    the distinct |u| rows only, all axes in one pass of _cos_sin, whose
    one cexp per element gives both: a row of -|u| takes the cos of its
    |u| row and the negated sin.  That is exact as (-u) x = -(u x) and
    libm cos is even and sin odd.  The x and y tables are rows of
    _cos_sin's contiguous result, the negated rows copies; zs is a
    row-major (rows, 2, len(z)) copy, seen as (2, rows, len(z)), so that a
    tile's rows are one contiguous block (kspace_3p swaps its axes back).
    A column depends on its own coordinates alone."""
    coords = (xy[:, 0], xy[:, 1], z)
    sizes = [len(au) * len(c) for (au, _), c in zip(axes, coords)]
    ends = list(itertools.accumulate(sizes))
    arg = np.empty(ends[-1])
    for (au, _), c, end, size in zip(axes, coords, ends, sizes):
        np.multiply.outer(au, c,
                          out=arg[end - size:end].reshape(len(au), len(c)))
    cs = _cos_sin(arg)
    del arg
    tables = []
    for (au, signed), c, end, size in zip(axes[:2], coords, ends, sizes):
        c, s = cs[:, end - size:end].reshape(2, len(au), len(c))
        if signed:
            c, s = np.concatenate((c, c)), np.concatenate((s, -s))
        tables += [c, s]
    zs = cs[:, ends[1]:].reshape(2, len(axes[2][0]), len(z))
    return tables + [
        np.ascontiguousarray(zs.swapaxes(0, 1)).swapaxes(0, 1)]


def _pair_tables(tables, px, py, out, work):
    """cxy and sxy, the cos and sin of kx x + ky y of the pairs with x and
    y table rows px and py by the tables' points, into out[0] and out[1]:

        cxy = (cx cy) - (sx sy),  sxy = (sx cy) + (cx sy)

    each product, difference and sum one np.multiply, np.subtract or
    np.add of float64 arrays, rounded on its own (no complex arithmetic
    and no fused step); np.take along axis 0 gathers whole rows into work,
    which holds 1.5 times out's elements: sx takes the rows of cx once
    cx cy and cx sy are formed.  A column depends on its own point
    alone."""
    cx, sx, cy, sy = tables[:4]
    n = out[0].size

    def take(t, i, k):    # rows i of t into the k-th third of work
        # mode "clip" (the indices are in range) as "raise" buffers out
        return np.take(t, i, axis=0, mode="clip",
                       out=work[k * n:(k + 1) * n].reshape(out[0].shape))

    gx, gcy, gsy = take(cx, px, 0), take(cy, py, 1), take(sy, py, 2)
    np.multiply(gx, gcy, out=out[0])
    np.multiply(gx, gsy, out=out[1])
    gx = take(sx, px, 0)
    gcy *= gx
    gsy *= gx
    out[0] -= gsy
    out[1] += gcy


def _blocks(m, n):
    """Slices of consecutive points, each of at most _ROW_ELEMENTS // n
    points (one at least), that cover m points of n elements each."""
    step = max(1, _ROW_ELEMENTS // max(1, n))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _cos_sin(x):
    """(2, *x.shape): libm cos and sin of x, elementwise, in one call of C
    cexp per element.  numpy's complex exp is cexp, and glibc's
    cexp(0 + iy) is exp(0) cos y + i exp(0) sin y, cos y and sin y from
    sincos (y itself and 1 when |y| <= DBL_MIN) and exp(0) = 1 exactly, so
    the products are exact.  The elements pass through a complex scratch
    of _TRIG_RUN, and the tables are written to contiguous rows."""
    flat = x.ravel()
    out = np.empty((2, flat.size))
    z = np.empty(min(flat.size, _TRIG_RUN), complex)
    for i in range(0, flat.size, _TRIG_RUN):
        run = flat[i:i + _TRIG_RUN]
        zr = z[:len(run)]
        zr.real = 0.0
        zr.imag = run
        np.exp(zr, out=zr)
        out[0, i:i + len(run)] = zr.real
        out[1, i:i + len(run)] = zr.imag
    return out.reshape((2,) + x.shape)


def _exp(x):
    """libm exp of x, elementwise: scipy's inv_boxcox at lambda = 0 calls C
    exp once per element (numpy's float64 exp is its own SIMD loop, which
    differs from libm in the last bit)."""
    return sp.inv_boxcox(x, 0.0)


def _log(x):
    """libm log of x, elementwise: scipy's xlogy(1, x) is 1.0 times C log,
    once per element (numpy's float64 log differs from libm in the last
    bit on some arguments)."""
    return sp.xlogy(1.0, x)


def zero_mode_2p(zpos, q, ztar, xi, area):
    # targets in blocks of rows (_blocks); each row summed on its own
    out = np.empty(len(ztar))
    for part in _blocks(len(ztar), len(zpos)):
        dz = ztar[part, None] - zpos[None, :]
        w = xi * dz
        terms = _exp(-w * w) / xi + SQRT_PI * dz * sp.erf(w)
        out[part] = (q[None, :] * terms).sum(axis=1)
    return (-2.0 * SQRT_PI / area) * out


def _log_e1_bracket_array(x):
    """The bracket -gamma - log x - E1(x) = -Ein(x) of each x >= 0.

    Ein(x) = sum_{k>=1} (-1)^(k+1) x^k / (k k!) is entire (DLMF 6.2.3,
    6.6.4), so on 0 <= x <= _EIN_X0 the bracket is the polynomial of
    _EIN_COEFFS, by Horner from the highest term: p = c_33, then
    p = p x + c_k for k = 32 down to 0, each product and sum one float64
    operation.  Its constant c_0 = +0.0 makes x = 0 give +0.0 (p x there
    is -0.0, as c_1 = -1) and leaves every other p x as it is.  Above
    _EIN_X0 it is -gamma - log x - E1(x), libm log (_log) and scipy's
    exp1.  Each form runs on the elements it serves only, and an
    element's bytes depend on its own x alone, not on the array around
    it.
    """
    out = np.empty_like(x)
    high = x > _EIN_X0
    low = ~high
    xs = x[low]
    p = np.full_like(xs, _EIN_COEFFS[-1])
    for c in _EIN_COEFFS[-2::-1]:
        p *= xs
        p += c
    out[low] = p
    xh = x[high]
    out[high] = -EULER_GAMMA - _log(xh) - sp.exp1(xh)
    return out


def zero_mode_1p(pos, q, targets, xi, length, at_sources):
    # targets in blocks of rows (_blocks); each row summed on its own.  The
    # bracket is +0.0 at rho = 0, so a source whose axis holds the target
    # (at the sources, the n = m term) adds nothing.  At the sources each
    # pair is taken once (_zero_mode_1p_at_sources)
    if at_sources:
        return _zero_mode_1p_at_sources(pos, q, xi) / length
    out = np.empty(len(targets))
    for part in _blocks(len(targets), len(pos)):
        dxy = targets[part, None, :2] - pos[None, :, :2]
        br = _log_e1_bracket_array((dxy ** 2).sum(axis=-1) * xi * xi)
        out[part] = (q[None, :] * br).sum(axis=1)
    return out / length


def _zero_mode_1p_at_sources(pos, q, xi):
    """The sum of zero_mode_1p at the sources, the bracket of each pair
    taken once.

    rho^2 xi^2 of (m, n) and of (n, m) are equal bit for bit (the
    differences are negated, their squares equal), so one bracket serves
    both.  The sources are taken in tiles of _PAIR_TILE consecutive
    sources and each pair of tiles A <= B once: the bracket of A by B (of
    the pairs m < n only when A = B, mirrored, 0.0 on the diagonal), then
    per target of A the row of q_n br over B and, for A < B, per target of
    B the row of q_m br over A, each summed by numpy's pairwise sum of a
    contiguous row.  A target adds its tiles' row sums in ascending tile
    order.  Up to _PAIR_TILE sources that is the one row sum of
    zero_mode_1p off the sources, byte for byte.  Besides (N,) arrays a
    tile pair holds a few (_PAIR_TILE, _PAIR_TILE) ones.
    """
    n = len(pos)
    out = np.zeros(n)
    tiles = [slice(i, min(i + _PAIR_TILE, n)) for i in range(0, n, _PAIR_TILE)]
    for a, ta in enumerate(tiles):
        for tb in tiles[a:]:
            dxy = pos[ta, None, :2] - pos[None, tb, :2]
            x = (dxy ** 2).sum(axis=-1) * xi * xi
            if tb is ta:
                upper = np.triu_indices(len(x), 1)
                br = np.zeros_like(x)
                br[upper] = _log_e1_bracket_array(x[upper])
                br.T[upper] = br[upper]
            else:
                br = _log_e1_bracket_array(x)
            out[ta] += (q[None, tb] * br).sum(axis=1)
            if tb is not ta:
                out[tb] += np.multiply(q[None, ta], br.T, order="C").sum(
                    axis=1)
    return out
