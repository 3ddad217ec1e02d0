"""Benchmark of the public ewaldpot API: end-to-end metrics and a traced per-layer run.

One run measures one workload for a fixed time:

    python3 perfbench/run.py --workload bulk3p --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` times whole ``ewald_potential`` calls and prints the
end-to-end metrics.  ``--trace 1`` is a separate run on the same inputs: it
calls each public layer function in turn inside a span, and prints the
per-layer metrics.  Every evaluation is checked against a reference
computed at ``0.75 * xi`` with ``tol = 1e-16`` in a child process, so the
reference neither enters the timings nor sets the peak RSS.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
figure by name and unit, then the run's inputs and environment.  Each run
also writes its record (and, when traced, its spans) to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout this file lives in;
without it the run fails before it prints a result.
"""

import time

_T0 = time.perf_counter()  # set-up clock: starts before numpy or ewaldpot is imported

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread: the machine is shared, and the only BLAS calls (the 3p
# structure-factor products) are a small part of any call.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ewaldpot  # noqa: E402
from ewaldpot import (  # noqa: E402
    EvalTargets,
    ParticleSystem,
    Periodicity,
    build_image_vectors,
    build_kgrid,
    default_params,
    ewald_potential,
    kspace_sum_1p,
    kspace_sum_2p,
    kspace_sum_3p,
    real_space_sum,
    self_term,
    wrap_positions,
    zero_mode_1p,
    zero_mode_2p,
)
from ewaldpot.specfun import incomplete_bessel_k0  # noqa: E402

if not Path(ewaldpot.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"ewaldpot was imported from {ewaldpot.__file__}, not from {ROOT / 'src'}")

BOX = (1.0, 1.1, 0.9)
TOL = 1e-14
REF_XI_FACTOR = 0.75
REF_TOL = 1e-16
#: an evaluation fails when max|total - reference| > ACCURACY * max|reference|
ACCURACY = 1e-12
SETUP_RUNS = 3
K0INC_SAMPLES = 128
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """Seeded neutral charges in BOX; ``grid`` > 0 evaluates on a grid**3
    cell-centred probe map instead of at the sources."""

    name: str
    mode: str
    n: int
    grid: int = 0
    calibration: str = "compute"  # the Calibration kind its calls track


# Sizes keep one call near 1 s, so a 15 s run holds ten or more calls.
WORKLOADS = {
    # real space about a third and 3p k-space about two thirds of a call
    "bulk3p": Workload("bulk3p", "3p", 512, calibration="memory"),
    # the O(M N K) planar k-space sum is over 90% of a call
    "slab2p": Workload("slab2p", "2p", 64),
    # the per-pair incomplete-K0 quadrature is over 90% of a call
    "wire1p": Workload("wire1p", "1p", 24),
    # M >> N off-particle map: target-side 3p phases dominate; the
    # coincidence check and target wrapping run, the self term does not
    "map3p": Workload("map3p", "3p", 64, grid=10, calibration="memory"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "eval_cal_p50": "cal",
    "targets_per_cal": "1/cal",
    "peak_rss_mb": "MB",
    "err_digits": "digits",
}

PER_LAYER_UNITS = {
    "real.s": "s", "real.share": "frac", "real.pair_terms": "count",
    "real.pairs_in_rcut": "count", "real.useful_frac": "frac",
    "real.ns_per_term": "ns", "real.peak_alloc_mb": "MB",
    "kspace.s": "s", "kspace.share": "frac", "kspace.terms": "count",
    "kspace.ns_per_term": "ns", "kspace.peak_alloc_mb": "MB",
    "specfun.k0inc_calls": "count", "specfun.k0inc_us": "us",
    "specfun.k0inc_share": "frac",
    "zero.s": "s", "zero.peak_alloc_mb": "MB",
    "core.params_s": "s", "core.wrap_s": "s", "core.kgrid_s": "s",
    "core.images_s": "s", "core.kvectors": "count", "core.images": "count",
    "ewald.assemble_s": "s",
    "trace.overhead_frac": "frac",
}

# Layers that ewald_potential itself runs; the rest of its time is assembly.
EWALD_LAYERS = ("core.wrap", "real", "core.kgrid", "kspace", "zero")


@dataclass
class Inputs:
    workload: Workload
    seed: int
    mode: Periodicity
    system: ParticleSystem
    targets: EvalTargets

    @property
    def m(self) -> int:
        return len(self.system) if self.targets.is_sources else len(self.targets.points)

    def params(self, xi=None, tol=TOL):
        return default_params(self.system.box, self.mode, xi=xi, tol=tol)

    def evaluate(self, params):
        return ewald_potential(self.system, self.mode, params, self.targets).total


def make_inputs(workload: Workload, seed: int) -> Inputs:
    box = np.array(BOX)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.5, 0.5, (workload.n, 3)) * box
    q = rng.normal(size=workload.n)
    q -= q.mean()
    targets = EvalTargets.at_sources()
    if workload.grid:
        c = (np.arange(workload.grid) + 0.5) / workload.grid - 0.5
        grid = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
        targets = EvalTargets.at_points(grid.reshape(-1, 3) * box)
    return Inputs(workload, seed, Periodicity(workload.mode),
                  ParticleSystem(pos, q, box), targets)


# ---------------------------------------------------------------- children

def _child(workload: Workload, seed: int, reference: bool):
    """Measure set-up in a fresh process: (setup_s, first total[, reference])."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "reference" if reference else "setup",
           "--spec", json.dumps(asdict(workload)), "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    arrays = np.load(io.BytesIO(out))
    return float(arrays["setup_s"]), arrays["total"], arrays.get("reference")


def child_main(kind: str, workload: Workload, seed: int):
    # set-up is import (timed from _T0), default parameters and the first call;
    # the reference is computed after set-up is timed
    inp = make_inputs(workload, seed)
    p = inp.params()
    total = inp.evaluate(p)
    out = {"setup_s": time.perf_counter() - _T0, "total": total}
    if kind == "reference":
        out["reference"] = inp.evaluate(inp.params(xi=REF_XI_FACTOR * p.xi, tol=REF_TOL))
    buf = io.BytesIO()
    np.savez(buf, **out)
    sys.stdout.buffer.write(buf.getvalue())


# ------------------------------------------------------------ correctness

@dataclass
class Checker:
    """Counts every evaluation and fails the ones that raise or miss ACCURACY."""

    reference: np.ndarray
    attempted: int = 0
    failed: int = 0
    max_abs_err: float = 0.0

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.reference)))

    def check(self, total) -> bool:
        """O(M) comparison of one result with the reference; None means it raised."""
        self.attempted += 1
        if total is None:
            self.failed += 1
            return False
        err = float(np.max(np.abs(np.asarray(total) - self.reference)))
        self.max_abs_err = max(self.max_abs_err, err)
        if not err <= ACCURACY * self.scale:
            self.failed += 1
            return False
        return True

    def attempt(self, fn):
        """Time fn() and check its result; a raise is logged and counted.
        Returns (total, seconds), total None when the call failed."""
        t0 = time.perf_counter()
        try:
            total = fn()
        except Exception:  # the benchmark keeps running and counts the failure
            traceback.print_exc()
            total = None
        seconds = time.perf_counter() - t0
        return (total if self.check(total) else None), seconds

    @property
    def err_digits(self) -> float:
        # digits of max|total| resolved; capped at a double's resolution
        rel = max(self.max_abs_err / self.scale, np.finfo(np.float64).eps)
        return -math.log10(rel)


# ------------------------------------------------------------ end to end

class Calibration:
    """Fixed work whose time tracks the machine's speed at that moment.

    On a shared machine that speed drifts by tens of percent over minutes,
    so each call is also timed in units of the calibrations around it.
    ``compute`` is a scalar Python loop plus numpy on cache-sized arrays,
    the work of the 1p and 2p kernels; ``memory`` streams freshly
    allocated 32 MB arrays, as the 3p k-space sum does."""

    def __init__(self, kind: str):
        self.kind = kind
        self.x = np.linspace(0.0, 1.0, 4096)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "compute":
            acc = 0.0
            for i in range(40000):
                acc += math.exp(-1e-4 * i) / (1.0 + i)
            for i in range(300):
                acc += float((np.exp(-self.x * i) * np.cos(self.x)).sum())
        else:
            for _ in range(2):
                y = np.cos(np.full(1 << 22, 0.5))
                y = np.exp(y) * y
        return time.perf_counter() - t0


def timed_phase(evaluate, checker: Checker, seconds: float, m: int,
                calibrate) -> dict:
    """Closed loop: the next call starts when the previous one returned.
    A calibration runs between calls and is not part of the timed work."""
    samples, ratios, busy, busy_cal = [], [], 0.0, 0.0
    cal = [calibrate()]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        total, dt = checker.attempt(evaluate)
        step = time.perf_counter() - t0  # the call and its O(M) check
        cal.append(calibrate())
        unit = 0.5 * (cal[-2] + cal[-1])
        busy += step
        busy_cal += step / unit
        if total is not None:
            samples.append(dt)
            ratios.append(dt / unit)
        if time.perf_counter() - start >= seconds:
            break
    if not samples:
        raise RuntimeError("no evaluation in the timed phase succeeded")
    return {
        "eval_s_p50": statistics.median(samples),
        "eval_cal_p50": statistics.median(ratios),
        "eval_n": len(samples),
        "targets_per_s": m * len(samples) / busy,
        "targets_per_cal": m * len(samples) / busy_cal,
        "cal_s": statistics.median(cal),
    }


def run_end_to_end(inp: Inputs, checker: Checker, first_setup_s: float, seconds: float,
                   setup_runs: int = SETUP_RUNS):
    setups = [first_setup_s]
    for _ in range(setup_runs - 1):
        setup_s, total, _ = _child(inp.workload, inp.seed, reference=False)
        setups.append(setup_s)
        checker.check(total)
    params = inp.params()
    checker.attempt(lambda: inp.evaluate(params))  # warm-up, untimed
    timed = timed_phase(lambda: inp.evaluate(params), checker, seconds, inp.m,
                        Calibration(inp.workload.calibration))
    metrics = {
        "setup_s": statistics.median(setups),
        "eval_cal_p50": timed.pop("eval_cal_p50"),
        "targets_per_cal": timed.pop("targets_per_cal"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_digits": checker.err_digits,
    }
    return metrics, {**timed, "setup_s_runs": setups}


# ----------------------------------------------------------------- tracing

class Tracer:
    """Spans kept in memory: name, start, end, parent span and evaluation id,
    plus the counts recorded at the same boundary."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, eval_id, **counts):
        rec = {"id": len(self.spans), "name": name, "eval": eval_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name) -> dict:
        """Span duration of `name` per timed evaluation id."""
        return {s["eval"]: s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["eval"] >= 0}


def _kspace(inp, xi, kgrid, targets, system):
    if inp.mode is Periodicity.P3:
        return kspace_sum_3p(system, xi, kgrid, targets)
    if inp.mode is Periodicity.P2:
        return kspace_sum_2p(system, xi, kgrid, targets)
    return kspace_sum_1p(system, xi, kgrid, targets)


def _zero(inp, xi, targets, system):
    if inp.mode is Periodicity.P2:
        return zero_mode_2p(system, xi, targets)
    if inp.mode is Periodicity.P1:
        return zero_mode_1p(system, xi, targets)
    return np.zeros(inp.m)  # 3p: ewald_potential fills the gauged-away mode with zeros


def traced_evaluation(inp: Inputs, tracer: Tracer, eval_id: int, counts: dict,
                      alloc: bool = False):
    """The steps of ewald_potential, each through its public layer function
    and inside a span; returns real + kspace + zero + self.

    With ``alloc`` each layer span also records its tracemalloc peak."""

    @contextlib.contextmanager
    def layer(name, **cnt):
        if alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        with tracer.span(name, eval_id, **cnt) as rec:
            yield rec
        if alloc:
            rec["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1] - base

    sysm, mode = inp.system, inp.mode
    with tracer.span("evaluation", eval_id):
        with layer("core.params"):
            p = inp.params()
        with layer("core.wrap"):
            wrapped = sysm.wrapped(mode)
            targets = inp.targets
            if not targets.is_sources:
                targets = EvalTargets.at_points(
                    wrap_positions(targets.points, sysm.box, mode))
        with layer("core.images", images=counts["core.images"]):
            build_image_vectors(sysm.box, mode, p.real_layers)
        with layer("real", pair_terms=counts["real.pair_terms"],
                   pairs_in_rcut=counts["real.pairs_in_rcut"]):
            real = real_space_sum(wrapped, mode, p.xi, p.r_cut, p.real_layers, targets)
        with layer("core.kgrid", kvectors=counts["core.kvectors"]):
            kgrid = build_kgrid(sysm.box, mode, p.k_max)
        with layer("kspace", terms=counts["kspace.terms"],
                   k0inc_calls=counts["specfun.k0inc_calls"]):
            kspace = _kspace(inp, p.xi, kgrid, targets, wrapped)
        with layer("zero"):
            zero = _zero(inp, p.xi, targets, wrapped)
        with layer("self"):
            selfv = (self_term(wrapped.charges, p.xi) if targets.is_sources
                     else np.zeros(inp.m))
    return real + kspace + zero + selfv


def work_counts(inp: Inputs) -> dict:
    """Work each layer does at the workload's parameters, counted by the harness."""
    p = inp.params()
    mode, box = inp.mode, inp.system.box
    wrapped = inp.system.wrapped(mode)
    images = build_image_vectors(box, mode, p.real_layers)
    k = len(build_kgrid(box, mode, p.k_max))
    if inp.targets.is_sources:
        tpos = wrapped.positions
    else:
        tpos = wrap_positions(inp.targets.points, box, mode)
    m, n = len(tpos), len(wrapped)
    delta = tpos[:, None, :] - wrapped.positions[None, :, :]
    in_rcut = 0
    for pvec in images:  # same distance and cut as the real-space kernel
        keep = np.sqrt(((delta + pvec) ** 2).sum(axis=-1)) <= p.r_cut
        if inp.targets.is_sources and not pvec.any():
            keep[np.arange(n), np.arange(n)] = False
        in_rcut += int(keep.sum())
    kterms = {"3p": (m + n) * k, "2p": m * n * k, "1p": m * n * k // 2}[mode.value]
    return {
        "real.pair_terms": m * n * len(images),
        "real.pairs_in_rcut": in_rcut,
        "kspace.terms": kterms,
        "specfun.k0inc_calls": m * n * k // 2 if mode is Periodicity.P1 else 0,
        "core.kvectors": k,
        "core.images": len(images),
    }


def k0inc_arguments(seed: int) -> list:
    """A fixed sample of the (u, v) arguments that wire1p's k-space sum
    passes to incomplete_bessel_k0 at this seed."""
    inp = make_inputs(WORKLOADS["wire1p"], seed)
    p = inp.params()
    pos = inp.system.wrapped(inp.mode).positions
    k3 = build_kgrid(inp.system.box, inp.mode, p.k_max).vectors
    u = 0.25 * (k3[k3 > 0] / p.xi) ** 2
    v = ((pos[:, None, :2] - pos[None, :, :2]) ** 2).sum(axis=-1).ravel() * p.xi ** 2
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pick = np.linspace(0, uu.size - 1, K0INC_SAMPLES).astype(np.int64)
    return [(float(a), float(b)) for a, b in zip(uu.ravel()[pick], vv.ravel()[pick])]


def k0inc_call_us(args: list) -> float:
    """Median time in microseconds of one incomplete_bessel_k0 call over args."""
    times = []
    for u, v in args:
        t0 = time.perf_counter()
        incomplete_bessel_k0(u, v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def run_traced(inp: Inputs, checker: Checker, seconds: float):
    counts = work_counts(inp)
    params = inp.params()
    k0_args = k0inc_arguments(inp.seed)
    tracer = Tracer()
    layer_sum_ok = True

    def library(eval_id):
        with tracer.span("ewald_potential", eval_id):
            return checker.attempt(lambda: inp.evaluate(params))[0]

    def one(eval_id):
        # alternate which of the pair runs first, so neither gets a warmer cache
        nonlocal layer_sum_ok
        if eval_id % 2:
            total = library(eval_id)
        layered = traced_evaluation(inp, tracer, eval_id, counts)
        if not eval_id % 2:
            total = library(eval_id)
        if total is not None and not (np.max(np.abs(layered - total))
                                      <= ACCURACY * checker.scale):
            layer_sum_ok = False
        # sampled once per evaluation, so it sees the same machine as kspace.s
        with tracer.span("specfun.k0inc", eval_id, calls=len(k0_args)) as rec:
            rec["median_us"] = k0inc_call_us(k0_args)

    one(-1)  # warm-up, untimed
    start, eval_id = time.perf_counter(), 0
    while eval_id == 0 or time.perf_counter() - start < seconds:
        one(eval_id)
        eval_id += 1
    tracemalloc.start()
    try:
        traced_evaluation(inp, tracer, -2, counts, alloc=True)
    finally:
        tracemalloc.stop()

    med = {name: statistics.median(tracer.durations(name).values())
           for name in ("evaluation", "ewald_potential", "core.params",
                        "core.images", *EWALD_LAYERS)}
    full = tracer.durations("ewald_potential")
    parts = [tracer.durations(name) for name in EWALD_LAYERS]
    assemble = statistics.median(full[i] - sum(d[i] for d in parts) for i in full)
    alloc = {s["name"]: s["peak_alloc_bytes"] / 2**20 for s in tracer.spans
             if s["eval"] == -2 and "peak_alloc_bytes" in s}
    k0_us = statistics.median(s["median_us"] for s in tracer.spans
                              if s["name"] == "specfun.k0inc" and s["eval"] >= 0)
    metrics = {
        "real.s": med["real"],
        "real.share": med["real"] / med["ewald_potential"],
        "real.pair_terms": counts["real.pair_terms"],
        "real.pairs_in_rcut": counts["real.pairs_in_rcut"],
        "real.useful_frac": counts["real.pairs_in_rcut"] / counts["real.pair_terms"],
        "real.ns_per_term": med["real"] / counts["real.pair_terms"] * 1e9,
        "real.peak_alloc_mb": alloc["real"],
        "kspace.s": med["kspace"],
        "kspace.share": med["kspace"] / med["ewald_potential"],
        "kspace.terms": counts["kspace.terms"],
        "kspace.ns_per_term": med["kspace"] / counts["kspace.terms"] * 1e9,
        "kspace.peak_alloc_mb": alloc["kspace"],
        "specfun.k0inc_calls": counts["specfun.k0inc_calls"],
        "specfun.k0inc_us": k0_us,
        "specfun.k0inc_share": counts["specfun.k0inc_calls"] * k0_us * 1e-6 / med["kspace"],
        "zero.s": med["zero"],
        "zero.peak_alloc_mb": alloc["zero"],
        "core.params_s": med["core.params"],
        "core.wrap_s": med["core.wrap"],
        "core.kgrid_s": med["core.kgrid"],
        "core.images_s": med["core.images"],
        "core.kvectors": counts["core.kvectors"],
        "core.images": counts["core.images"],
        # estimate: ewald_potential minus its layers, from separate calls
        "ewald.assemble_s": assemble,
        # layered evaluation in spans versus the library call in the same run
        "trace.overhead_frac": med["evaluation"] / med["ewald_potential"] - 1.0,
    }
    extra = {"traced_evals": len(full), "layer_sum_ok": layer_sum_ok}
    return metrics, extra, tracer.spans, layer_sum_ok


# ------------------------------------------------------------------ record

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import numba  # noqa: F401  (recorded: the library's default lane follows it)
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "numba_imports": numba_imports,
    }


def inputs_record(inp: Inputs) -> dict:
    p = inp.params()
    return {
        "workload": inp.workload.name, "seed": inp.seed, "mode": inp.mode.value,
        "n": len(inp.system), "m": inp.m, "box": list(BOX), "tol": TOL,
        "xi": p.xi, "r_cut": p.r_cut, "k_max": p.k_max,
        "real_layers": p.real_layers,
        "k": len(build_kgrid(inp.system.box, inp.mode, p.k_max)),
        "images": len(build_image_vectors(inp.system.box, inp.mode, p.real_layers)),
        "accuracy": ACCURACY,
        "reference": {"xi": REF_XI_FACTOR * p.xi, "tol": REF_TOL},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS):
    """Measure one workload; returns (result line, full record)."""
    inp = make_inputs(workload, seed)
    setup_s, total, reference = _child(workload, seed, reference=True)
    checker = Checker(reference)
    checker.check(total)
    spans, ok = [], True
    if trace:
        metrics, extra, spans, ok = run_traced(inp, checker, seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, extra = run_end_to_end(inp, checker, setup_s, seconds, setup_runs)
        units = END_TO_END_UNITS
    extra.update(max_abs_err=checker.max_abs_err,
                 failed_frac=checker.failed / checker.attempted)
    result = {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"inputs": inputs_record(inp), "environment": environment(),
              "extra": extra, "result": result, "spans": spans}
    return result, record


# Figures printed beside the metrics; wall-clock times are here, in seconds.
EXTRA_UNITS = {"eval_s_p50": "s", "eval_n": "count", "targets_per_s": "1/s",
               "cal_s": "s", "max_abs_err": "charge/length", "failed_frac": "frac"}


def report_lines(result: dict, record: dict) -> list:
    inputs, extra = record["inputs"], record["extra"]
    lines = [f"# {inputs['workload']} seed={inputs['seed']} "
             f"N={inputs['n']} M={inputs['m']} mode={inputs['mode']}"]
    for name, m in result["metrics"].items():
        lines.append(f"{name:24s} {m['value']:.6g} {m['unit']}")
    for name, unit in EXTRA_UNITS.items():
        if name in extra:
            lines.append(f"{name:24s} {extra[name]:.6g} {unit}")
    lines.append(f"# {result['failed']} of {result['attempted']} evaluations failed")
    lines.append("# inputs " + json.dumps(inputs))
    lines.append("# environment " + json.dumps(record["environment"]))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("reference", "setup"), help=argparse.SUPPRESS)
    ap.add_argument("--spec", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child_main(args.child, Workload(**json.loads(args.spec)), args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    result, record = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report_lines(result, record)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
