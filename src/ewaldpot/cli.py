"""Batch front-end: evaluate periodic Coulomb potentials from particle files.

    ewaldpot particles.txt --mode 3p --out table.csv
    ewaldpot particles.txt --mode 2p --xi 0.5,1.0,2.0 --sweep xi --out sweep.csv
    ewaldpot random:8 --seed 7 --mode 1p --sweep kmax --kmax 20,40,80 --out conv.csv

Input is either a particle file (line 1: "box L1 L2 L3"; then "x y z q" rows,
"#" comments) or "random:<N>" for a seeded random neutral test system.
Without --sweep one potential table is written; --sweep xi repeats it per xi
value; --sweep rcut / --sweep kmax emits an error-vs-truncation table against
the tightest setting.  Output (csv or json) is written to a temporary file
and atomically renamed, so a failing run never leaves partial output.
Potentials are in Gaussian units (charge/length).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ParticleSystem,
    Periodicity,
    _image_layers,
    default_params,
    default_xi,
)
from .ewald import EvalTargets, ewald_potential

UNITS_NOTE = "potentials in Gaussian units (charge/length)"

POTENTIAL_COLUMNS = ("index", "x", "y", "z", "total", "real", "kspace",
                     "zero_mode", "self")
CONVERGENCE_COLUMNS = ("value", "max_abs_error", "wall_time_s")


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, resolved and validated."""

    system: ParticleSystem
    mode: Periodicity
    xi_values: tuple
    r_cut_values: tuple
    k_max_values: tuple
    targets: EvalTargets
    sweep: str | None
    out_path: str
    fmt: str


def _fmt_net_charge(value: float) -> str:
    """1e-3 -> '1.0e-3' (exponent without leading zeros)."""
    s = f"{value:.1e}"
    mant, _, exp = s.partition("e")
    sign = "-" if exp.startswith("-") else "+"
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{sign}{digits}" if sign == "-" else f"{mant}e{digits}"


def _read_rows(path: str, names: str, header: str | None = None):
    """The header and the rows of a text file of numbers.

    names spells the fields of a row ("x y z q"); header, if given, spells
    the first line with content instead, a keyword and then its fields
    ("box L1 L2 L3").  '#' starts a comment; blank lines are skipped.  A
    line with the wrong number of fields, or a field that is not a finite
    number (nan and inf are not), is reported with the path and its line
    number.  Returns (where, numbers) of the header line, None without a
    header, and the rows as lists of floats.
    """
    width, keyword = len(names.split()), header and header.split()
    head, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            where = f"{path}: line {lineno}"
            if keyword and head is None:
                if fields[0] != keyword[0] or len(fields) != len(keyword):
                    raise ValueError(
                        f"{where}: expected header {header!r}, got {text!r}")
                head = where, _finite(fields[1:], where, text)
            elif len(fields) != width:
                raise ValueError(
                    f"{where}: expected {width} fields {names!r}, "
                    f"got {len(fields)}")
            else:
                rows.append(_finite(fields, where, text))
    if keyword and head is None:
        raise ValueError(f"{path}: missing {header!r} header line")
    return head, rows


def _finite(fields, where, text):
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(
            f"{where}: fields must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{where}: fields must be finite, got {text!r}")
    return values


def ingest_particles(path: str, mode: Periodicity | None = None) -> ParticleSystem:
    """Parse a particle file: "box L1 L2 L3" then "x y z q" rows.

    '#' starts a comment; blank lines are skipped.  Malformed content (a
    missing header, a wrong field count, a field that is not a finite
    number, a box length that is not positive) is reported with its line
    number; a non-neutral total charge is a hard error naming the net
    charge.  Positions are wrapped along the periodic axes of `mode` when
    given.
    """
    (where, box), rows = _read_rows(path, "x y z q", header="box L1 L2 L3")
    if not all(v > 0.0 for v in box):
        raise ValueError(f"{where}: box lengths must be positive")
    if not rows:
        raise ValueError(f"{path}: no particle rows")
    data = np.asarray(rows)
    system = ParticleSystem(positions=data[:, :3], charges=data[:, 3],
                            box=np.asarray(box))
    if not system.is_neutral:
        raise ValueError(
            f"{path}: net charge {_fmt_net_charge(system.net_charge)} "
            "exceeds tolerance")
    if mode is not None:
        system = system.wrapped(mode)
    return system


def random_system(n: int, seed: int, box=(1.0, 1.0, 1.0)) -> ParticleSystem:
    """Seeded random neutral test system (positions uniform, charges centered)."""
    if n < 2:
        raise ValueError("random system needs at least 2 particles")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.05, 0.95, (n, 3)) * np.asarray(box)
    q = rng.normal(size=n)
    q -= q.mean()
    return ParticleSystem(positions=pos, charges=q, box=np.asarray(box, float))


def read_target_points(path: str) -> np.ndarray:
    """Parse an 'x y z' per line points file ('#' comments), reporting
    malformed or non-finite content with its line number."""
    _, pts = _read_rows(path, "x y z")
    if not pts:
        raise ValueError(f"{path}: no target points")
    return np.asarray(pts)


def _params_for(config: RunConfig, xi: float, r_cut: float | None = None,
                k_max: float | None = None):
    # default_params with r_cut and k_max overridden; the image shells
    # follow the r_cut in use by default_params' rule, _image_layers
    base = default_params(config.system.box, config.mode, xi=xi)
    r_cut = base.r_cut if r_cut is None else float(r_cut)
    return replace(
        base, r_cut=r_cut, k_max=base.k_max if k_max is None else float(k_max),
        real_layers=_image_layers(config.system.box, config.mode, r_cut))


def run_potential(config: RunConfig):
    """Rows of the potential table: one per target (per xi when sweeping)."""
    sweeping = config.sweep == "xi"
    targets = config.targets
    coords = config.system.positions if targets.is_sources else targets.points
    rows = []
    for xi in config.xi_values:
        params = _params_for(config, xi,
                             r_cut=config.r_cut_values[0] if config.r_cut_values else None,
                             k_max=config.k_max_values[0] if config.k_max_values else None)
        res = ewald_potential(config.system, config.mode, params, targets)
        for i in range(len(res.total)):
            row = [float(i), coords[i, 0], coords[i, 1], coords[i, 2],
                   res.total[i], res.real[i], res.kspace[i],
                   res.zero_mode[i], res.self_term[i]]
            if sweeping:
                row.insert(0, xi)
            rows.append(row)
    columns = (("xi",) + POTENTIAL_COLUMNS) if sweeping else POTENTIAL_COLUMNS
    return columns, rows


def run_convergence(config: RunConfig):
    """Error-vs-truncation rows; the tightest setting is the zero-error reference."""
    xi = config.xi_values[0]
    values = sorted(config.r_cut_values if config.sweep == "rcut"
                    else config.k_max_values)
    totals, times = [], []
    for v in values:
        kwargs = {"r_cut": v} if config.sweep == "rcut" else {"k_max": v}
        params = _params_for(config, xi, **kwargs)
        t0 = time.perf_counter()
        res = ewald_potential(config.system, config.mode, params, config.targets)
        times.append(time.perf_counter() - t0)
        totals.append(res.total)
    reference = totals[-1]
    rows = []
    for v, tot, dt in zip(values, totals, times):
        rows.append([float(v), float(np.abs(tot - reference).max()), dt])
    return CONVERGENCE_COLUMNS, rows


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    # mkstemp creates the file 0600; give it the mode open() would.  The
    # umask can only be read by setting it, so it is set restrictive briefly
    umask = os.umask(0o077)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_csv(columns, rows, header_note: str) -> str:
    lines = [f"# {header_note}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def format_json(columns, rows, header_note: str) -> str:
    records = [dict(zip(columns, (float(v) for v in row))) for row in rows]
    return json.dumps({"units": header_note, "columns": list(columns),
                       "rows": records}, indent=1, sort_keys=False) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ewaldpot",
        description="Periodic Coulomb potentials via Ewald summation "
                    "(Gaussian units).")
    p.add_argument("input",
                   help="particle file, or random:<N> for a seeded test system")
    p.add_argument("--mode", choices=[m.value for m in Periodicity],
                   required=True,
                   help="periodicity: 1p (z), 2p (x,y) or 3p")
    p.add_argument("--xi", default=None,
                   help="decomposition parameter (default: default_xi of the box, "
                        "N and M), or comma list with --sweep xi")
    p.add_argument("--rcut", default=None,
                   help="real-space cutoff, or comma list with --sweep rcut")
    p.add_argument("--kmax", default=None,
                   help="k-space cutoff, or comma list with --sweep kmax")
    p.add_argument("--targets", default="sources",
                   help="'sources' or a points file with 'x y z' rows")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--sweep", choices=("xi", "rcut", "kmax"), default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random:<N> input")
    return p


def _parse_values(text: str | None, flag: str, sweep_here: bool):
    if text is None:
        return ()
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects a number or comma list, got {text!r}") from None
    if len(vals) == 0 or any(not np.isfinite(v) or v <= 0 for v in vals):
        raise ValueError(f"{flag} values must be positive and finite")
    if len(vals) > 1 and not sweep_here:
        raise ValueError(f"{flag} got a list but --sweep does not select it")
    return vals


def build_config(args) -> RunConfig:
    mode = Periodicity(args.mode)
    if args.input.startswith("random:"):
        n = int(args.input.split(":", 1)[1])
        system = random_system(n, args.seed)
    else:
        system = ingest_particles(args.input, mode)
    xi_values = _parse_values(args.xi, "--xi", args.sweep == "xi")
    rc_values = _parse_values(args.rcut, "--rcut", args.sweep == "rcut")
    km_values = _parse_values(args.kmax, "--kmax", args.sweep == "kmax")
    if args.sweep == "xi" and len(xi_values) < 2:
        raise ValueError("--sweep xi needs a comma list in --xi")
    if args.sweep == "rcut" and len(rc_values) < 2:
        raise ValueError("--sweep rcut needs a comma list in --rcut")
    if args.sweep == "kmax" and len(km_values) < 2:
        raise ValueError("--sweep kmax needs a comma list in --kmax")
    if args.targets == "sources":
        targets = EvalTargets.at_sources()
    else:
        targets = EvalTargets.at_points(read_target_points(args.targets))
    if not xi_values:
        m = None if targets.is_sources else len(targets.points)
        xi_values = (default_xi(system.box, mode, n=len(system), m=m),)
    return RunConfig(system=system, mode=mode, xi_values=xi_values,
                     r_cut_values=rc_values, k_max_values=km_values,
                     targets=targets, sweep=args.sweep,
                     out_path=args.out, fmt=args.format)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if config.sweep in ("rcut", "kmax"):
            columns, rows = run_convergence(config)
            note = (f"{UNITS_NOTE}; max abs error vs tightest "
                    f"{config.sweep} setting")
        else:
            columns, rows = run_potential(config)
            note = UNITS_NOTE
        text = (format_csv if config.fmt == "csv" else format_json)(
            columns, rows, note)
        _atomic_write(config.out_path, text)
    except (ValueError, OSError) as exc:
        print(f"ewaldpot: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
