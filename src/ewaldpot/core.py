"""Domain types, validation, and lattice/wave-vector set construction.

Shared by every summation path. All types are immutable after construction
and all operations are pure functions, so everything here is safe to share
across threads.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

#: relative tolerance on |sum q| / sum |q| below which a system counts as neutral
NEUTRALITY_RTOL = 1e-12

#: off-particle targets closer than COINCIDE_RTOL * min(L) to a source are rejected
COINCIDE_RTOL = 1e-10


class Periodicity(enum.Enum):
    """Periodic replication pattern: P3 in x,y,z; P2 in x,y; P1 in z."""

    P1 = "1p"
    P2 = "2p"
    P3 = "3p"

    @property
    def periodic_axes(self):
        """Indices of the periodic coordinate axes."""
        if self is Periodicity.P1:
            return (2,)
        if self is Periodicity.P2:
            return (0, 1)
        return (0, 1, 2)

    @property
    def free_axes(self):
        return tuple(i for i in range(3) if i not in self.periodic_axes)


@dataclass(frozen=True)
class ParticleSystem:
    """N point charges in an orthorhombic box.

    Parameters
    ----------
    positions : (N, 3) array
        Cartesian coordinates (length units).
    charges : (N,) array
        Signed charges.
    box : (3,) array
        Box edge lengths (L1, L2, L3), all positive and finite. The primary
        cell is [-L_i/2, L_i/2] per coordinate.

    Charge neutrality is not enforced at construction.  ewald_potential,
    real_space_sum, zero_mode_2p and zero_mode_1p reject a non-neutral
    system (``require_neutral``); the kspace_sum_* functions are linear in
    the charges and take any.
    """

    positions: np.ndarray
    charges: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=np.float64)))
        q = np.ascontiguousarray(np.asarray(self.charges, dtype=np.float64).ravel())
        box = np.asarray(self.box, dtype=np.float64).ravel()
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if len(q) != len(pos):
            raise ValueError(
                f"positions and charges disagree in length: {len(pos)} vs {len(q)}"
            )
        if len(pos) < 1:
            raise ValueError("need at least one particle")
        if box.shape != (3,):
            raise ValueError("box must contain exactly three lengths")
        if not np.all(np.isfinite(box)) or np.any(box <= 0.0):
            raise ValueError(f"box lengths must be positive and finite, got {box}")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(q)):
            raise ValueError("positions and charges must be finite")
        pos.setflags(write=False)
        q.setflags(write=False)
        box.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)
        object.__setattr__(self, "box", box)

    def __len__(self) -> int:
        return len(self.charges)

    @property
    def net_charge(self) -> float:
        return float(np.sum(self.charges))

    @property
    def is_neutral(self) -> bool:
        return abs(self.net_charge) <= NEUTRALITY_RTOL * float(np.sum(np.abs(self.charges)))

    def wrapped(self, mode: Periodicity) -> "ParticleSystem":
        """Copy with positions wrapped into [-L/2, L/2) along periodic axes.

        Free-direction coordinates are accepted as-is: the doubly/singly
        periodic formulas hold for any z resp. (x, y).
        """
        pos = wrap_positions(self.positions, self.box, mode)
        return ParticleSystem(pos, self.charges, self.box)


def wrap_positions(positions, box, mode: Periodicity) -> np.ndarray:
    """Wrap coordinates modulo L into [-L/2, L/2) along the periodic axes only."""
    pos = np.array(positions, dtype=np.float64, copy=True)
    pos = np.atleast_2d(pos)
    box = np.asarray(box, dtype=np.float64)
    for ax in mode.periodic_axes:
        L = box[ax]
        pos[:, ax] -= L * np.floor(pos[:, ax] / L + 0.5)
    return pos


@dataclass(frozen=True)
class EwaldParams:
    """Decomposition parameter and truncation settings.

    xi : inverse length, > 0. Controls the split between the erfc-screened
        real-space sum and the Gaussian-damped k-space sum; totals are
        xi-independent up to truncation error.
    r_cut : real-space pair-distance cutoff (length), > 0 (inf allowed).
    k_max : k-space cutoff by Euclidean norm (inverse length), > 0.
    real_layers : image shells beyond the minimum image, >= 0.
    """

    xi: float
    r_cut: float
    k_max: float
    real_layers: int

    def __post_init__(self):
        require_positive("xi", self.xi)
        require_positive("r_cut", self.r_cut, finite=False)
        require_positive("k_max", self.k_max)
        require_layers("real_layers", self.real_layers)

    def check(self, tol: float = 1e-12) -> list:
        """Return a list of warning strings for truncation tails above tol.

        Both tails are Gaussian: e^-(xi r_cut)^2 in real space and
        e^-(k_max/2xi)^2 in k space.  Each warns when its argument falls
        short of the cut a = sqrt(ln(1/tol)) of default_params by more than
        the rounding of r_cut = a/xi and k_max = 2 xi a (relative 1e-12).
        """
        a = _gauss_cut(tol) * (1.0 - 1e-12)
        warnings = []
        x = self.xi * self.r_cut
        if x < a:
            warnings.append(
                f"exp(-(xi*r_cut)^2) = {math.exp(-x * x):.3e} > {tol:.1e}; "
                "real-space truncation error may dominate"
            )
        x = 0.5 * self.k_max / self.xi
        if x < a:
            warnings.append(
                f"exp(-k_max^2/4xi^2) = {math.exp(-x * x):.3e} > {tol:.1e}; "
                "k-space truncation error may dominate"
            )
        return warnings


def require_positive(name: str, value, finite: bool = True):
    """Raise ValueError unless value > 0, and finite unless finite is False.

    The one check of xi and k_max (finite) and of r_cut (infinity allowed),
    wherever a function takes them.
    """
    if not (value > 0.0 and (math.isfinite(value) or not finite)):
        rule = "positive and finite" if finite else "positive"
        raise ValueError(f"{name} must be {rule}, got {value}")


def require_layers(name: str, value):
    """Raise ValueError unless value, a count of image shells, is a
    non-negative integer."""
    if not (value >= 0 and float(value).is_integer()):
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


#: the tol of default_params
_DEFAULT_TOL = 1e-14


def _gauss_cut(tol: float) -> float:
    """a = sqrt(ln(1/tol)), the argument at which a Gaussian tail e^-a^2 is tol."""
    return math.sqrt(-math.log(tol))


#: (c, n_fit, e) per mode: default xi = c (n_eff / n_fit)^e / min periodic L
_XI_LAW = {Periodicity.P1: (0.7, 44, 1.0 / 4.0),
           Periodicity.P2: (2.7, 64, 1.0 / 5.0),
           Periodicity.P3: (6.0, 512, 1.0 / 6.0)}


def default_xi(box, mode: Periodicity, n: int | None = None,
               m: int | None = None) -> float:
    """Default decomposition parameter, c (n_eff / n_fit)^e / min periodic L.

    n is the number of sources and m the number of off-source targets
    (None: the targets are the sources), n_eff = n at the sources and
    n m / (n + m) off them.  Without n, n_eff = n_fit and
    xi = c / min periodic L.

    The exponent e balances real space against k space.  Real space costs
    about M N r_cut^3 / V in 3p, or M N / xi^3 at the Gaussian cut of
    default_params.  In 2p the sources lie within one slab, so when r_cut
    exceeds its thickness a target meets about N pi r_cut^2 / (L1 L2)
    image points, and real space costs about M N / xi^2; in 1p, within one
    cross section of the wire, about N r_cut / L3 image points, and real
    space costs about M N / xi.  k space costs about N K at the sources
    or (M + N) K off them, with K, the vectors of the lattice it sums (in
    2p and 1p the grid extended along the free axes, whose length L_eff is
    mostly the fixed margin C/k_min), in proportion to xi^3.  The two
    balance at xi^6 ~ n_eff in 3p, e = 1/6, at xi^5 ~ n_eff in 2p, e = 1/5,
    and at xi^4 ~ n_eff in 1p, e = 1/4.  The zero modes of 2p and 1p, N^2
    / 2 pairs at the sources, cost about the same at any xi (the 1p
    bracket sums the series of -Ein(x) for x = rho^2 xi^2 up to 4), and so
    set no balance of their own.

    The constants come from scans at the benchmark's sizes (README, the
    table after default_params): c = 6 at n_fit = 512 in 3p, c = 2.7 at
    n_fit = 64 in 2p, where the fastest c of whole calls at N = 64, 256,
    1024 and 4096 grew as N^0.22.  In 1p the law is c = 0.6 at n = 24 on
    the ladder of N, and n_fit = 44 puts c = 0.7 without n: below about
    0.68 the calls of N = 256 and 1024 that pass no n ran slower than at
    the former c = 1.  The 1p k grid is empty where
    c < pi / sqrt(ln(1/tol)), 0.553 at tol = 1e-14, so c = 0.7 keeps it
    non-empty without n, while the law empties it for a few sources
    (c = 0.38 at n = 4); the k-space sum is then 0 and each of its terms
    lies below tol.
    """
    if (n is not None and n < 1) or (m is not None and m < 1):
        raise ValueError(f"n and m must be at least 1, got n={n}, m={m}")
    c, n_fit, e = _XI_LAW[mode]
    if n is not None:
        n_eff = n if m is None else n * m / (n + m)
        c *= (n_eff / n_fit) ** e
    box = np.asarray(box, dtype=np.float64)
    return c / float(np.min(box[list(mode.periodic_axes)]))


def default_params(box, mode: Periodicity, xi: float | None = None,
                   tol: float = _DEFAULT_TOL, n: int | None = None,
                   m: int | None = None) -> EwaldParams:
    """Truncation at one Gaussian cut, with both tails equal to tol.

    xi defaults to default_xi(box, mode, n, m).  With a = sqrt(ln(1/tol))
    (about 5.68 at tol = 1e-14), r_cut = a/xi and k_max = 2 a xi, so the
    real-space tail e^-(xi r_cut)^2 and the k-space tail e^-(k_max/2xi)^2
    both equal tol; real_layers = ceil(r_cut / min periodic L).  An
    explicit xi must be positive and finite and tol must lie in (0, 1).
    """
    if xi is not None:
        require_positive("xi", xi)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    box = np.asarray(box, dtype=np.float64)
    if xi is None:
        xi = default_xi(box, mode, n, m)
    a = _gauss_cut(tol)
    r_cut = a / xi
    k_max = 2.0 * xi * a
    return EwaldParams(xi=float(xi), r_cut=r_cut, k_max=k_max,
                       real_layers=_image_layers(box, mode, r_cut))


def _image_layers(box, mode: Periodicity, r_cut: float) -> int:
    """Image shells that reach r_cut: ceil(r_cut / min periodic L)."""
    min_per_l = float(np.min(box[list(mode.periodic_axes)]))
    return int(math.ceil(r_cut / min_per_l))


@dataclass(frozen=True)
class KGrid:
    """Wave-vector set for one periodicity mode, zero mode excluded.

    vectors : (K, 3) array for P3, (K, 2) for P2, (K,) scalars for P1.

    The set is closed under negation and ordered lexicographically by integer
    index, so summation order is deterministic.  Every mode's k-space sum
    runs over one k of each +-k pair with double weight, on the grid
    extended along the free axes (in 3p the grid itself), so the sets of
    all three modes must be closed under negation, each k as often as -k,
    and hold no k = 0: the kspace_sum_* functions reject any other grid.
    build_kgrid's norm ball keeps both in every mode.
    """

    mode: Periodicity
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)


def _index_mesh(nmax):
    """The integer points of [-n_a, n_a] per axis a, one column each: a
    (d, P) int64 array, the points in lexicographic order, one empty
    column when d = 0."""
    nmax = np.asarray(nmax, dtype=np.int64)
    shape = tuple(2 * nmax + 1)
    mesh = np.indices(shape, dtype=np.int64).reshape(len(nmax), math.prod(shape))
    return mesh - nmax[:, None]


def build_kgrid(box, mode: Periodicity, k_max: float) -> KGrid:
    """All nonzero wave vectors 2*pi*(n_i/L_i) with Euclidean norm <= k_max.

    An empty grid is legal (the k-space sum is then zero).  k_max must be
    positive and finite.
    """
    require_positive("k_max", k_max)
    box = np.asarray(box, dtype=np.float64)
    axes = list(mode.periodic_axes)
    base = 2.0 * np.pi / box[axes]
    nmax = np.floor(k_max / base).astype(np.int64)
    # per axis the components n (2 pi / L_a), n = -n_a .. n_a; k^2 =
    # (kx^2 + ky^2) + kz^2 over their product by broadcasting, its points
    # in lexicographic order, the zero vector at the centre
    comps = [np.arange(-n, n + 1) * b for n, b in zip(nmax, base)]
    k2 = comps[0] * comps[0]
    for c in comps[1:]:
        k2 = k2[..., None] + c * c
    keep = np.sqrt(k2) <= k_max
    keep[tuple(nmax)] = False
    idx = np.nonzero(keep)
    vecs = comps[0][idx[0]] if mode is Periodicity.P1 else np.column_stack(
        [c[i] for c, i in zip(comps, idx)])
    vecs = np.ascontiguousarray(vecs)
    vecs.setflags(write=False)
    return KGrid(mode=mode, vectors=vecs)


def build_image_vectors(box, mode: Periodicity, layers: int) -> np.ndarray:
    """Lattice shift vectors p with indices in [-layers, layers] per periodic axis.

    Returns an (P, 3) array ordered by shell (max-norm of the integer index)
    ascending, p = 0 first, lexicographic within a shell, so truncation
    corresponds to whole symmetric shells.  layers must be a non-negative
    integer.
    """
    require_layers("layers", layers)
    box = np.asarray(box, dtype=np.float64)
    axes = list(mode.periodic_axes)
    idx = _index_mesh([layers] * len(axes)).T
    idx = idx[np.argsort(np.max(np.abs(idx), axis=1), kind="stable")]
    out = np.zeros((len(idx), 3), dtype=np.float64)
    for col, ax in enumerate(axes):
        out[:, ax] = idx[:, col] * box[ax]
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    return out


def require_neutral(system: ParticleSystem):
    """Raise ValueError for non-neutral systems (hard error in Ewald paths)."""
    if not system.is_neutral:
        raise ValueError(
            f"net charge {system.net_charge:.1e} exceeds tolerance "
            f"(relative {NEUTRALITY_RTOL:.1e}); Ewald evaluation requires neutrality"
        )


@dataclass(frozen=True)
class PotentialResult:
    """Per-target potential totals with their Ewald breakdown.

    total = real + kspace + zero_mode + self_term, componentwise (the total is
    computed as exactly that sum). zero_mode is identically zero in P3 mode;
    self_term is identically zero for off-particle targets.
    """

    total: np.ndarray
    real: np.ndarray
    kspace: np.ndarray
    zero_mode: np.ndarray
    self_term: np.ndarray

    def __post_init__(self):
        for name in ("total", "real", "kspace", "zero_mode", "self_term"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def components(self) -> dict:
        return {
            "real": self.real,
            "kspace": self.kspace,
            "zero_mode": self.zero_mode,
            "self": self.self_term,
        }

    def __len__(self) -> int:
        return len(self.total)
