"""CLI parsing, file formats, determinism and golden outputs."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ewaldpot import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "ewaldpot.cli", *args],
                          capture_output=True, text=True)


def read_table(path):
    return np.genfromtxt(path, delimiter=",", skip_header=2)


# ------------------------------------------------------------------ ingestion

def test_ingest_two_particle_file(tmp_path):
    p = write(tmp_path, "two.txt",
              "box 1 1 1\n0.25 0 0 1\n-0.25 0 0 -1\n")
    s = cli.ingest_particles(p)
    assert len(s) == 2
    assert s.is_neutral
    assert np.allclose(s.box, 1.0)


def test_ingest_comments_and_blank_lines(tmp_path):
    p = write(tmp_path, "c.txt",
              "# heading\n\nbox 2 1 1\n0.5 0.1 0.2 1.0 # pos\n"
              "1.5 0.1 0.2 -1.0\n")
    s = cli.ingest_particles(p)
    assert len(s) == 2


def test_ingest_malformed_row_reports_line(tmp_path):
    p = write(tmp_path, "bad.txt", "box 1 1 1\n0.1 0.2 0.3\n")
    with pytest.raises(ValueError, match="line 2"):
        cli.ingest_particles(p)


def test_ingest_net_charge_message(tmp_path):
    p = write(tmp_path, "nn.txt",
              "box 1 1 1\n0.25 0 0 1\n0.75 0 0 -0.999\n")
    with pytest.raises(ValueError,
                       match=r"net charge 1\.0e-3 exceeds tolerance"):
        cli.ingest_particles(p)


def test_ingest_header_required(tmp_path):
    p = write(tmp_path, "h.txt", "0.25 0 0 1\n")
    with pytest.raises(ValueError, match="box"):
        cli.ingest_particles(p)
    p2 = write(tmp_path, "h2.txt", "box 1 -1 1\n0.25 0 0 1\n")
    with pytest.raises(ValueError, match="positive"):
        cli.ingest_particles(p2)


def test_ingest_non_finite_field_reports_line(tmp_path):
    # nan or inf in a row or in the box header is named with its line, not
    # left to fail later in ParticleSystem without one
    p = write(tmp_path, "nf.txt",
              "box 1 1 1\n0.25 0 0 1\n# c\n0.75 nan 0 -1\n")
    with pytest.raises(ValueError, match=r"line 4: fields must be finite"):
        cli.ingest_particles(p)
    p2 = write(tmp_path, "nfb.txt", "box 1 1 inf\n0.25 0 0 1\n0.75 0 0 -1\n")
    with pytest.raises(ValueError, match=r"line 1: fields must be finite"):
        cli.ingest_particles(p2)


def test_read_target_points(tmp_path):
    p = write(tmp_path, "t.txt", "# targets\n0.1 0.2 0.3\n0.4 0.5 0.6\n")
    pts = cli.read_target_points(p)
    assert pts.shape == (2, 3)
    bad = write(tmp_path, "tb.txt", "0.1 0.2\n")
    with pytest.raises(ValueError, match="line 1"):
        cli.read_target_points(bad)
    inf = write(tmp_path, "ti.txt", "0.1 0.2 0.3\n\n0.4 -inf 0.6\n")
    with pytest.raises(ValueError, match=r"line 3: fields must be finite"):
        cli.read_target_points(inf)


def test_random_system_is_seed_deterministic():
    a = cli.random_system(8, 7)
    b = cli.random_system(8, 7)
    c = cli.random_system(8, 8)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.charges, b.charges)
    assert not np.array_equal(a.positions, c.positions)
    assert a.is_neutral


# -------------------------------------------------------------------- running

def test_potential_rows_and_row_swap(tmp_path):
    # swapping the particle order permutes rows but not the values.  The
    # source order sets the order of each target's real-space terms
    # (README, "Determinism"), so the bits hold under a swap only where
    # the rounding allows: at xi = 8 (27 images) they do; at the N = 2
    # default, about 2.38 (343 images), row 1's real and total move by
    # 1 ulp (1.6e-16 relative), so there the rows agree within 4e-16
    f1 = write(tmp_path, "a.txt", "box 1 1 1\n0.25 0.5 0.5 1\n0.75 0.5 0.5 -1\n")
    f2 = write(tmp_path, "b.txt", "box 1 1 1\n0.75 0.5 0.5 -1\n0.25 0.5 0.5 1\n")
    for xi_args, rtol in ((["--xi", "8"], 0.0), ([], 4e-16)):
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main([f1, "--mode", "3p", *xi_args, "--out", o1]) == 0
        assert cli.main([f2, "--mode", "3p", *xi_args, "--out", o2]) == 0
        t1, t2 = read_table(o1), read_table(o2)
        assert t1.shape == (2, 9)
        assert np.allclose(t1[0, 4:], t2[1, 4:], rtol=rtol, atol=0)
        assert np.allclose(t1[1, 4:], t2[0, 4:], rtol=rtol, atol=0)


def test_byte_identical_reruns(tmp_path):
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    for out in (out1, out2):
        r = run_cli([str(DATA / "demo.txt"), "--mode", "2p", "--out", out])
        assert r.returncode == 0, r.stderr
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_byte_identical_json_reruns(tmp_path):
    outs = []
    for name in ("j1.json", "j2.json"):
        out = str(tmp_path / name)
        r = run_cli([str(DATA / "demo.txt"), "--mode", "1p",
                     "--format", "json", "--out", out])
        assert r.returncode == 0, r.stderr
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]


# (golden name, input file, extra CLI arguments): the demo at its sources,
# and at the points of demo_points.txt, off the sources and out along the
# free axes; then larger charge sets whose k-space sums take several
# slices of (kx, ky) pairs, so their goldens pin the order of the slices
# and of the tiles within them (3p at xi = 10: 3 slices of 256 pairs;
# 2p at xi = 6: 2 slices of 128 pairs in tiles of up to 5 |kz| rows, off
# the sources 7; 1p at xi = 1.5: 2 slices in 3 tiles, off the sources 4
# in 6)
POINTS = ["--targets", str(DATA / "demo_points.txt")]
GOLDEN_CASES = [
    (f"{stem}_{mode}{suffix}", DATA / f"{stem}.txt",
     ["--mode", mode, *extra, *targets])
    for stem, mode, extra in (
        ("demo", "1p", []), ("demo", "2p", []), ("demo", "3p", []),
        ("cloud128", "3p", ["--xi", "10"]),
        ("cloud256", "2p", ["--xi", "6"]),
        ("cloud128", "1p", ["--xi", "1.5"]))
    for suffix, targets in (("", []), ("_points", POINTS))
]


def test_golden_files_numpy_lane(tmp_path):
    # the 3p k-space sum runs in a fixed order with no BLAS call and libm
    # exp, so its bytes depend on neither the BLAS kernel nor numpy's SIMD
    # level
    for name, source, extra in GOLDEN_CASES:
        out = tmp_path / f"{name}.csv"
        r = run_cli([str(source), *extra, "--out", str(out)])
        assert r.returncode == 0, r.stderr
        got = out.read_bytes()
        want = (GOLDEN / f"{name}.csv").read_bytes()
        assert got == want, f"golden mismatch for {name}"


def test_golden_files_with_simd_dispatch_disabled(tmp_path):
    # the determinism contract: the goldens keep their bytes with every
    # dispatch target above numpy's baseline disabled.  numpy refuses to
    # disable a baseline feature, so only dispatch targets present here
    # are listed; with none, this is the plain golden run.
    from numpy._core._multiarray_umath import (
        __cpu_dispatch__,
        __cpu_features__,
    )
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(present))
    for name, source, extra in GOLDEN_CASES:
        out = tmp_path / f"{name}.csv"
        r = subprocess.run([sys.executable, "-m", "ewaldpot.cli",
                            str(source), *extra,
                            "--out", str(out)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        want = (GOLDEN / f"{name}.csv").read_bytes()
        assert out.read_bytes() == want, (name, present)


def test_sweep_xi_totals_agree(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert cli.main([str(DATA / "demo.txt"), "--mode", "1p",
                     "--xi", "0.5,1.0,2.0", "--sweep", "xi",
                     "--out", out]) == 0
    rows = read_table(out)
    assert rows.shape == (12, 10)   # 3 xi values x 4 targets, xi column first
    by_xi = {xi: rows[rows[:, 0] == xi][:, 5] for xi in (0.5, 1.0, 2.0)}
    for a in by_xi.values():
        for b in by_xi.values():
            assert np.abs(a - b).max() <= 1e-8


def test_kmax_ladder_monotone(tmp_path):
    # the free-axis constant C takes the smaller of k_max/2 xi and
    # xi r_cut, so past k_max = 2 xi sqrt(C) a larger k_max neither adds a
    # vector (the cut) nor lengthens L_eff: k_max 40 and 80 give the same
    # bytes.  1p runs at xi = 3, where the cut leaves vectors at k_max 10;
    # at the default xi of 8 charges it leaves none.
    for mode, extra in (("3p", []), ("2p", []), ("1p", ["--xi", "3"])):
        out = str(tmp_path / f"conv_{mode}.csv")
        assert cli.main(["random:8", "--seed", "7", "--mode", mode, *extra,
                         "--sweep", "kmax", "--kmax", "10,20,40,80",
                         "--out", out]) == 0
        rows = read_table(out)
        err = rows[:, 1]
        assert err[-1] == 0.0 and err[-2] == 0.0    # reference row, cut
        assert np.all(np.diff(err) <= 1e-14)        # non-increasing within noise
        assert err[0] > 1e-8


def test_rcut_ladder_decays(tmp_path):
    out = str(tmp_path / "rc.csv")
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p", "--xi", "1.2",
                     "--sweep", "rcut", "--rcut", "1,1.5,2,3,5",
                     "--out", out]) == 0
    rows = read_table(out)
    err = rows[:-1, 1]                          # drop the zero reference
    assert np.all(err > 0)
    slope = np.polyfit(rows[:-1, 0], np.log(err), 1)[0]
    assert slope < -1.0


def test_targets_file_run(tmp_path):
    tf = write(tmp_path, "pts.txt", "0.1 0.2 0.3\n0.6 0.4 0.8\n")
    out = str(tmp_path / "pts.csv")
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                     "--targets", tf, "--out", out]) == 0
    rows = read_table(out)
    assert rows.shape == (2, 9)
    assert np.all(rows[:, 8] == 0.0)            # no self term off-particle
    assert np.allclose(rows[:, 1:4], [[0.1, 0.2, 0.3], [0.6, 0.4, 0.8]])


def test_json_structure(tmp_path):
    out = str(tmp_path / "o.json")
    assert cli.main([str(DATA / "demo.txt"), "--mode", "2p",
                     "--format", "json", "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert "Gaussian units" in doc["units"]
    assert doc["columns"] == list(cli.POTENTIAL_COLUMNS)
    assert len(doc["rows"]) == 4
    assert set(doc["rows"][0]) == set(cli.POTENTIAL_COLUMNS)


def test_output_file_mode_follows_umask(tmp_path):
    # written through a temporary file, the output still gets the mode a
    # plain open() would give it
    for umask in (0o022, 0o027):
        old = os.umask(umask)
        try:
            for fmt in ("csv", "json"):
                out = tmp_path / f"m{umask:o}.{fmt}"
                assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                                 "--format", fmt, "--out", str(out)]) == 0
                mode = stat.S_IMODE(out.stat().st_mode)
                assert mode == 0o666 & ~umask, (fmt, oct(mode))
        finally:
            os.umask(old)


# --------------------------------------------------------------------- errors

def test_error_exit_codes(tmp_path):
    out = str(tmp_path / "x.csv")
    assert cli.main(["/nonexistent/particles.txt", "--mode", "3p",
                     "--out", out]) == 1
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                     "--xi", "1.0", "--sweep", "xi", "--out", out]) == 1
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                     "--sweep", "rcut", "--out", out]) == 1
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                     "--xi", "-2", "--out", out]) == 1
    assert cli.main([str(DATA / "demo.txt"), "--mode", "3p",
                     "--xi", "1.0,2.0", "--out", out]) == 1  # list, no sweep
    assert not os.path.exists(out)              # never partial output
    with pytest.raises(SystemExit):
        cli.main([str(DATA / "demo.txt"), "--mode", "4p", "--out", out])


def test_failed_run_leaves_no_output(tmp_path):
    bad = write(tmp_path, "nn.txt",
                "box 1 1 1\n0.25 0 0 1\n0.75 0 0 -0.9\n")
    out = str(tmp_path / "y.csv")
    r = run_cli([bad, "--mode", "3p", "--out", out])
    assert r.returncode == 1
    assert "net charge" in r.stderr
    assert not os.path.exists(out)
