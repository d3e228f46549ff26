"""Command surface end to end: exit codes, outputs, provenance, reruns.

Almost everything runs in-process through ``main(argv)`` so exit codes
and stderr are observable without spawning interpreters. The checks on
what a command imports and on BLAS thread counts need a fresh one.
"""

import dataclasses
import gzip
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specdens
from specdens import decomp
from specdens.cli import main
from specdens.decomp import validate_report
from specdens.errors import InputFormatError, UsageError
from specdens.net import (
    Checkpoint,
    MlpSpec,
    hessian_operator,
    init_params,
    linearize,
    load_checkpoint,
    save_checkpoint,
)
from specdens.operators import SymmetricOperator
from specdens.pipeline import GmmSpec, gaussian_mixture
from specdens.rmt import EnsembleSpec, sample
from specdens.storage import (
    MATRIX_MAGIC,
    build_manifest,
    csv_text,
    read_matrix,
    write_matrix,
)

from oracles import op_to_dense


def read_csv(path):
    """Return (manifest_id, schema, columns, float rows) of an output CSV."""
    lines = path.read_text().splitlines()
    head = dict(part.split("=") for part in lines[0][2:].split(" "))
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[2:]]
    return head["manifest"], head["schema"], lines[1].split(","), np.array(rows)


def manifest_of(out_dir, command):
    return json.loads((out_dir / f"{command}.manifest.json").read_text())


def run_python(script, *args, **env):
    """Run ``script`` in a fresh interpreter that imports this checkout of
    specdens, with ``env`` added to the environment; return its stdout."""
    src = Path(specdens.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImports:
    MODULES = ("cli", "data", "decomp", "deflation", "errors", "lanczos",
               "linalg", "net", "operators", "pipeline", "rmt", "storage")

    @pytest.mark.parametrize("module", MODULES)
    def test_each_module_imports_alone(self, module):
        run_python(f"import specdens.{module}")

    def test_package_import_loads_no_module(self):
        script = (
            "import sys\n"
            "import specdens\n"
            "print(sorted(m for m in sys.modules if m.startswith('specdens')),\n"
            "      specdens.__version__)\n"
        )
        assert run_python(script).split() == ["['specdens']", "0.1.0"]

    def test_module_list_is_complete(self):
        src = Path(specdens.__file__).resolve().parent
        assert sorted(p.stem for p in src.glob("*.py")
                      if p.stem != "__init__") == list(self.MODULES)


class TestMatrixFile:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 7))
        A = A + A.T
        path = tmp_path / "a.spdm"
        write_matrix(path, A)
        assert np.array_equal(read_matrix(path), A)

    def test_rejects_nonsquare(self, tmp_path):
        with pytest.raises(UsageError, match="square"):
            write_matrix(tmp_path / "a.spdm", np.zeros((2, 3)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.spdm"
        path.write_bytes(b"NOPE" + bytes(12 + 8))
        with pytest.raises(InputFormatError, match="bad magic"):
            read_matrix(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "a.spdm"
        path.write_bytes(MATRIX_MAGIC + struct.pack("<IQ", 9, 1) + bytes(8))
        with pytest.raises(InputFormatError, match="version"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.spdm"
        write_matrix(path, np.eye(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputFormatError, match="truncated"):
            read_matrix(path)

    @pytest.mark.parametrize("layout", ["C", "F", ">f8"])
    def test_bytes_are_header_then_row_major_payload(self, tmp_path, layout):
        A = np.random.default_rng(3).standard_normal((5, 5))
        given = {"C": A, "F": np.asfortranarray(A), ">f8": A.astype(">f8")}
        path = tmp_path / "a.spdm"
        write_matrix(path, given[layout])
        assert path.read_bytes() == \
            MATRIX_MAGIC + struct.pack("<IQ", 1, 5) + A.astype("<f8").tobytes()

    def test_read_holds_one_copy_of_the_matrix(self, tmp_path):
        p = 500
        path = tmp_path / "a.spdm"
        write_matrix(path, np.random.default_rng(4).standard_normal((p, p)))
        read_matrix(path)
        tracemalloc.start()
        try:
            A = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (p, p) and A.dtype == np.float64
        assert peak <= 1.1 * 8 * p * p

    def test_oversized_header_is_rejected_before_allocating(self, tmp_path,
                                                            capsys):
        path = tmp_path / "huge.spdm"
        path.write_bytes(MATRIX_MAGIC + struct.pack("<IQ", 1, 2 ** 32))
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError, match="truncated or padded"):
                read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        rc = main(["spectrum", "--matrix", str(path), "--steps", "4",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "huge.spdm" in capsys.readouterr().err


class TestManifestAndCsv:
    def test_id_ignores_key_order_but_not_values(self):
        a = build_manifest("synth", {"p": 10, "seed": 1})
        b = build_manifest("synth", {"seed": 1, "p": 10})
        c = build_manifest("synth", {"p": 10, "seed": 2})
        assert a["id"] == b["id"]
        assert a["id"] != c["id"]

    def test_csv_floats_survive_a_round_trip(self):
        value = 0.1 + 0.2  # repr-level precision, not %g rounding
        text = csv_text(("x",), [(value,)], "abc", "s/v1")
        assert text.splitlines()[0] == "# manifest=abc schema=s/v1"
        assert float(text.splitlines()[2]) == value


class TestExitCodes:
    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_ensemble_kind(self, tmp_path, capsys):
        rc = main(["synth", "--kind", "wigner", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spikes(self, tmp_path, capsys):
        rc = main(["synth", "--kind", "spiked_wishart", "--spikes", "a,b",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["synth", "spectrum", "decompose"])
    def test_negative_seed_flag_is_usage(self, tmp_path, capsys, command):
        required = {"synth": ["--kind", "goe"],
                    "spectrum": ["--matrix", "m.spdm"],
                    "decompose": ["--checkpoint", "c.npz", "--data", "d.json"]}
        rc = main([command, *required[command], "--seed", "-1",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_missing_matrix_file(self, tmp_path, capsys):
        rc = main(["spectrum", "--matrix", str(tmp_path / "none.spdm"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_out_dir_on_a_file_is_usage(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        for out in (afile, afile / "sub"):
            rc = main(["synth", "--kind", "goe", "--p", "8",
                       "--out-dir", str(out)])
            assert rc == 2
            assert f"--out-dir {out} cannot be created" in \
                capsys.readouterr().err
        assert afile.read_text() == "kept\n"

    def test_corrupt_matrix_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spdm"
        bad.write_bytes(b"GARBAGE DATA PADDED OUT")
        rc = main(["spectrum", "--matrix", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "input error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def goe_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("goe")
    assert main(["synth", "--kind", "goe", "--p", "60", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def spiked_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spiked")
    assert main(["synth", "--kind", "spiked_wishart", "--p", "80", "--n", "80",
                 "--spikes", "6,5", "--seed", "2", "--out-dir", str(out)]) == 0
    return out


class TestSynth:
    def test_outputs_and_oracle(self, goe_dir):
        names = {p.name for p in goe_dir.iterdir()}
        assert names == {"matrix.spdm", "oracle_spectrum.csv",
                         "synth.manifest.json"}
        A = read_matrix(goe_dir / "matrix.spdm")
        assert A.shape == (60, 60)
        assert np.array_equal(A, A.T)
        mid, schema, cols, rows = read_csv(goe_dir / "oracle_spectrum.csv")
        assert schema == "oracle-spectrum-csv/v1"
        assert cols == ["index", "eigenvalue"]
        assert rows.shape == (60, 2)
        assert np.abs(rows[:, 1]).max() <= 2.2  # semicircle support + slack

    def test_manifest_id_links_sidecar_to_csv(self, goe_dir):
        doc = manifest_of(goe_dir, "synth")
        mid, _, _, _ = read_csv(goe_dir / "oracle_spectrum.csv")
        assert doc["id"] == mid
        assert doc["command"] == "synth"
        assert doc["params"]["p"] == 60
        assert any(out.endswith("matrix.spdm") for out in doc["outputs"])
        assert "wall_time_s" in doc

    def test_rerun_is_byte_identical(self, goe_dir, tmp_path):
        assert main(["synth", "--kind", "goe", "--p", "60", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        for name in ("matrix.spdm", "oracle_spectrum.csv"):
            assert (tmp_path / name).read_bytes() == \
                (goe_dir / name).read_bytes()
        # manifests agree on everything reproducible; wall time and
        # output paths are the only run-local fields
        a = manifest_of(goe_dir, "synth")
        b = manifest_of(tmp_path, "synth")
        for doc in (a, b):
            doc.pop("wall_time_s")
            doc.pop("outputs")
        assert a == b

    def test_planted_spikes_clear_the_bulk(self, spiked_dir):
        _, _, _, rows = read_csv(spiked_dir / "oracle_spectrum.csv")
        top = np.sort(rows[:, 1])[-2:]
        assert (top > 4.5).all()  # gamma=1 bulk ends near 4

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the high-water mark in /proc")
    @pytest.mark.parametrize("kind", ["goe", "spiked_wishart",
                                      "pareto_wishart"])
    def test_peak_memory_is_about_two_matrices(self, tmp_path, kind):
        # the sample and the oracle's working copy share pages only when
        # the p x p output is allocated before the sample it is built from;
        # the other way round synth peaks at 3.2-3.5 matrices. VmHWM, not
        # ru_maxrss: a child's ru_maxrss starts at its parent's RSS at the
        # fork, which would hide the growth under the test runner's own
        p = 1500
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "def high_water():\n"
            "    with open('/proc/self/status') as status:\n"
            "        line = next(row for row in status\n"
            "                    if row.startswith('VmHWM:'))\n"
            "    return int(line.split()[1]) * 1024\n"
            "p, kind, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]\n"
            "args = ['synth', '--kind', kind, '--p', str(p), '--out-dir', out]\n"
            "if kind != 'goe':\n"
            "    args += ['--n', str(p)]\n"
            "before = high_water()\n"
            "assert main(args) == 0\n"
            "print(high_water() - before)\n"
        )
        grown = int(run_python(script, p, kind, tmp_path))
        assert grown <= 2.75 * 8 * p * p


class TestSpectrum:
    def test_density_outputs_agree(self, goe_dir, tmp_path):
        rc = main(["spectrum", "--matrix", str(goe_dir / "matrix.spdm"),
                   "--steps", "32", "--n-vec", "2", "--grid-points", "128",
                   "--seed", "0", "--out-dir", str(tmp_path)])
        assert rc == 0
        mid, schema, cols, rows = read_csv(tmp_path / "density.csv")
        assert schema == "density-csv/v1"
        report = json.loads((tmp_path / "density.json").read_text())
        assert report["schema"] == "density-report/v1"
        assert report["manifest"] == mid == manifest_of(tmp_path, "spectrum")["id"]
        assert report["operator"] == "matrix:matrix.spdm"
        assert report["mass"] == pytest.approx(1.0, abs=0.01)
        # the CSV and the JSON carry the same density
        np.testing.assert_allclose(rows[:, 1], report["density"]["values"])
        assert rows[:, 0].min() >= -2.6 and rows[:, 0].max() <= 2.6

    def test_deflate_extracts_the_spikes(self, spiked_dir, tmp_path):
        rc = main(["spectrum", "--matrix", str(spiked_dir / "matrix.spdm"),
                   "--deflate", "2", "--steps", "48", "--n-vec", "2",
                   "--grid-points", "128", "--seed", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        top = json.loads((tmp_path / "top_spectrum.json").read_text())
        assert top["schema"] == "top-spectrum/v2"
        assert top["count"] == 2
        assert top["matvecs"] >= 2
        assert max(top["residuals"]) <= 1e-10 * max(top["values"])
        _, _, _, oracle = read_csv(spiked_dir / "oracle_spectrum.csv")
        expected = np.sort(oracle[:, 1])[::-1][:2]
        np.testing.assert_allclose(top["values"], expected, rtol=1e-6)
        # what remains is the bulk: support stops well below the spikes
        report = json.loads((tmp_path / "density.json").read_text())
        assert report["mass"] == pytest.approx(1.0, abs=0.01)
        assert max(report["density"]["grid"]) < min(top["values"]) - 1.0

    def test_deflate_rerun_is_byte_identical(self, spiked_dir, tmp_path):
        args = ["spectrum", "--matrix", str(spiked_dir / "matrix.spdm"),
                "--deflate", "2", "--steps", "24", "--grid-points", "64",
                "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("top_spectrum.json", "density.csv", "density.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_deflation_imports_neither_scipy_sparse_nor_scipy_linalg(
            self, goe_dir, tmp_path):
        # thick-restart Lanczos needs numpy and the operator only
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "assert main(['spectrum', '--matrix', sys.argv[1], '--steps', '16',\n"
            "             '--grid-points', '32', '--deflate', '1',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
            "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        )
        out = run_python(script, goe_dir / "matrix.spdm", tmp_path)
        assert out.split() == ["False", "False"]

    def test_lapack_load_is_shared_with_a_later_scipy_linalg(self, goe_dir,
                                                             tmp_path):
        # the Ritz solver loads scipy's cython_lapack extension alone, with
        # or without deflation; a later scipy.linalg import must reuse it
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "matrix, out, order = sys.argv[1:]\n"
            "runs = {'log': ['--log', '--steps', '64'],\n"
            "        'deflate': ['--deflate', '1', '--steps', '16']}\n"
            "for name in order.split(','):\n"
            "    assert main(['spectrum', '--matrix', matrix, *runs[name],\n"
            "                 '--out-dir', f'{out}/{name}']) == 0\n"
            "    print(name, 'scipy.linalg' in sys.modules)\n"
            "from scipy.linalg import cython_lapack, eigh\n"
            "assert cython_lapack is sys.modules['scipy.linalg.cython_lapack']\n"
            "print(eigh([[2.0, 0.0], [0.0, 1.0]], eigvals_only=True).tolist())\n"
        )
        matrix = goe_dir / "matrix.spdm"
        out = run_python(script, matrix, tmp_path / "a", "log,deflate")
        assert out.splitlines() == ["log False", "deflate False", "[1.0, 2.0]"]
        out = run_python(script, matrix, tmp_path / "b", "deflate,log")
        assert out.splitlines() == ["deflate False", "log False", "[1.0, 2.0]"]
        for name in ("log", "deflate"):
            assert (tmp_path / "a" / name / "density.json").read_bytes() == \
                (tmp_path / "b" / name / "density.json").read_bytes()

    def test_lapack_loads_once_under_concurrent_first_use(self):
        # four threads reach the first tridiagonal solve together; without
        # a lock around the load most of them see the extension half
        # initialised, so a few fresh interpreters catch it almost surely
        script = (
            "import threading\n"
            "import numpy as np\n"
            "from specdens.linalg import TridiagonalMatrix, eig_tridiagonal\n"
            "T = TridiagonalMatrix(np.arange(1.0, 9.0), np.full(7, 0.5))\n"
            "barrier, errors = threading.Barrier(4), []\n"
            "def solve():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        eig_tridiagonal(T)\n"
            "    except Exception as err:\n"
            "        errors.append(repr(err))\n"
            "threads = [threading.Thread(target=solve) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join()\n"
            "print(errors)\n"
        )
        for _ in range(3):
            assert run_python(script) == "[]\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_log_density_bytes_do_not_depend_on_usable_cpus(self, goe_dir,
                                                            tmp_path):
        # the Ritz solves of the three runs fan out over the usable CPUs;
        # pinned to one, the same tasks run one after another
        script = (
            "import os, sys\n"
            "if sys.argv[3] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from specdens import linalg\n"
            "from specdens.cli import main\n"
            "assert main(['spectrum', '--matrix', sys.argv[1], '--log',\n"
            "             '--steps', '512', '--n-vec', '3',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
            "print(linalg._usable_cpus() == 1)\n"
        )
        matrix = goe_dir / "matrix.spdm"
        assert run_python(script, matrix, tmp_path / "pin", "pin") == "True\n"
        run_python(script, matrix, tmp_path / "free", "free")
        pinned = (tmp_path / "pin" / "density.json").read_bytes()
        assert pinned == (tmp_path / "free" / "density.json").read_bytes()
        assert len(json.loads(pinned)["density"]["ritz"]) == 3

    def test_log_density_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # p = 2000 is large enough for OpenBLAS to split a matvec between
        # threads, and 2048 steps run far past the loss of orthogonality
        path = tmp_path / "goe.spdm"
        write_matrix(path, sample(EnsembleSpec(kind="goe", p=2000, seed=5)))
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "assert main(['spectrum', '--matrix', sys.argv[1], '--log',\n"
            "             '--steps', '2048', '--n-vec', '1',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
        )
        for threads in ("1", "2"):
            run_python(script, path, tmp_path / threads,
                       OPENBLAS_NUM_THREADS=threads)
        one = (tmp_path / "1" / "density.json").read_bytes()
        assert one == (tmp_path / "2" / "density.json").read_bytes()
        assert json.loads(one)["density"]["scale"] == "log"

        # with n_vec > 1 the runs share 32-row panel block products of the
        # deflated matrix, and the deflation projects blocks with small GEMMs
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "assert main(['spectrum', '--matrix', sys.argv[1], '--n-vec', '4',\n"
            "             '--deflate', '2', '--steps', '128',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
        )
        for threads in ("1", "2"):
            run_python(script, path, tmp_path / f"block{threads}",
                       OPENBLAS_NUM_THREADS=threads)
        for name in ("density.json", "top_spectrum.json"):
            assert (tmp_path / "block1" / name).read_bytes() == \
                (tmp_path / "block2" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_split_product_bytes_do_not_depend_on_threads(self, tmp_path):
        # p = 1101 is above operators._SPLIT_ROWS, so with two usable CPUs
        # every dense product is cut over the worker threads, and pinned to
        # one it runs inline; an odd p also leaves a short last panel, and
        # one GEMV over the whole matrix differs between 1 and 2 OpenBLAS
        # threads at such a p
        path = tmp_path / "spiked.spdm"
        write_matrix(path, sample(EnsembleSpec(
            kind="spiked_wishart", p=1101, n=1101, spikes=(6.0, 5.0, 4.0),
            seed=3)))
        script = (
            "import os, sys, threading, time\n"
            "if sys.argv[3] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from specdens import linalg\n"
            "from specdens.cli import main\n"
            "assert main(['spectrum', '--matrix', sys.argv[1],\n"
            "             '--deflate', '3', '--n-vec', '10', '--steps', '64',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
            "helpers = [t for t in threading.enumerate()\n"
            "           if t is not threading.main_thread()]\n"
            "print(linalg._usable_cpus() - 1 - len(helpers),\n"
            "      all(t.daemon for t in helpers), time.time())\n"
        )
        runs = {"1": {"OPENBLAS_NUM_THREADS": "1"},
                "2": {"OPENBLAS_NUM_THREADS": "2"}, "pin": {}}
        for name, env in runs.items():
            spare, daemons, ended = run_python(
                script, path, tmp_path / name, name, **env).split()
            # the workers are started no more than needed, and as daemons
            # they hold up no exit: the interpreter ends right after main
            assert (spare, daemons) == ("0", "True")
            assert time.time() - float(ended) < 20.0
        for name in ("density.json", "density.csv", "top_spectrum.json"):
            outputs = {(tmp_path / run / name).read_bytes() for run in runs}
            assert len(outputs) == 1, name

    def test_coefficient_bytes_do_not_depend_on_blas_threads(self):
        # p = 200,000 is far past where OpenBLAS splits a dot product or a
        # norm between threads; a diagonal operator's products are
        # elementwise, so only the recurrence's reductions could differ
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from specdens import lanczos\n"
            "from specdens.operators import SymmetricOperator\n"
            "p = 200_000\n"
            "d = np.random.default_rng(3).uniform(-1.0, 1.0, p)\n"
            "op = SymmetricOperator(p, lambda v: d * v, label='diag',\n"
            "                       matmat=lambda V: d[:, None] * V)\n"
            "for k in (1, 3):\n"
            "    V1 = np.asfortranarray(np.column_stack(\n"
            "        [lanczos._start_vector(p, np.random.default_rng([5, j]))\n"
            "         for j in range(k)]))\n"
            "    for T, res, _ in lanczos._three_term(op, V1, 40):\n"
            "        run = T.alpha.tobytes() + T.beta.tobytes()\n"
            "        run += np.float64(res).tobytes()\n"
            "        print(k, hashlib.sha256(run).hexdigest())\n"
        )
        outputs = [run_python(script, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]
        runs = [line.split() for line in outputs[0].splitlines()]
        assert [k for k, _ in runs] == ["1", "3", "3", "3"]
        assert runs[0][1] == runs[1][1]     # the lone run is column 0
        assert len({digest for _, digest in runs[1:]}) == 3

    @pytest.mark.parametrize("deflate", [[], ["--deflate", "2"]],
                             ids=["plain", "deflated"])
    def test_non_finite_operator_is_numerical_failure(self, tmp_path, capsys,
                                                      deflate):
        # every entry is finite, but a matvec sums 20 of them and overflows
        path = tmp_path / "big.spdm"
        write_matrix(path, np.full((20, 20), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["spectrum", "--matrix", str(path), *deflate,
                       "--steps", "16", "--out-dir", str(tmp_path / "out")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "matrix:big.spdm" in err and "non-finite" in err

    def test_overflowing_lanczos_coefficient_is_caught_at_its_step(
            self, tmp_path, capsys):
        # the matvec is finite, but its norm overflows at step 1
        A = np.random.default_rng(3).standard_normal((20, 20))
        path = tmp_path / "huge.spdm"
        write_matrix(path, (A + A.T) * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["spectrum", "--matrix", str(path), "--steps", "16",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "matrix:huge.spdm" in err and "non-finite" in err
        assert re.search(r"step 1\b", err)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_file_is_input_error(self, tmp_path, capsys,
                                                   bad):
        A = np.eye(20)
        A[3, 5] = A[5, 3] = bad
        path = tmp_path / "nan.spdm"
        write_matrix(path, A)
        rc = main(["spectrum", "--matrix", str(path), "--steps", "16",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_tiny_scaled_matrix_has_unit_mass(self, tmp_path):
        # every Lanczos beta of a 2^-40-scaled GOE is below 1e-12; breakdown
        # is judged against the run's own coefficients, not that constant
        path = tmp_path / "tiny.spdm"
        write_matrix(path, 2.0 ** -40 * sample(EnsembleSpec(kind="goe", p=200,
                                                            seed=5)))
        rc = main(["spectrum", "--matrix", str(path), "--steps", "32",
                   "--n-vec", "2", "--grid-points", "128",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "density.json").read_text())
        assert report["mass"] == pytest.approx(1.0, abs=0.01)

    def test_deflate_must_be_positive(self, spiked_dir, tmp_path, capsys):
        rc = main(["spectrum", "--matrix", str(spiked_dir / "matrix.spdm"),
                   "--deflate", "0", "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_deflate_must_leave_a_remainder(self, goe_dir, tmp_path, capsys):
        matrix = goe_dir / "matrix.spdm"
        p = read_matrix(matrix).shape[0]
        out = tmp_path / "out"
        rc = main(["spectrum", "--matrix", str(matrix), "--deflate", str(p),
                   "--out-dir", str(out)])
        assert rc == 2
        assert f"1 to p - 1 = {p - 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_log_axis_route(self, spiked_dir, tmp_path):
        rc = main(["spectrum", "--matrix", str(spiked_dir / "matrix.spdm"),
                   "--log", "--steps", "64", "--n-vec", "2",
                   "--grid-points", "128", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "density.json").read_text())
        assert report["density"]["scale"] == "log"
        assert report["mass"] == pytest.approx(1.0, abs=0.05)

    def test_matrix_and_checkpoint_are_exclusive(self, goe_dir, tmp_path,
                                                 capsys):
        rc = main(["spectrum", "--matrix", str(goe_dir / "matrix.spdm"),
                   "--checkpoint", "x.npz", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not both" in capsys.readouterr().err


GMM_DATA = {"kind": "gmm", "classes": 3, "n_per_class": 20, "dim": 4,
            "separation": 3.0, "std": 1.0, "seed": 5}


# checkpoint members by the dtype save_checkpoint writes
CHECKPOINT_COUNTS = ("format_version", "layer_dims", "epoch", "seed")
CHECKPOINT_FLOATS = ("theta", "lr", "velocity")
CHECKPOINT_STRINGS = ("activation", "meta_json")
# (member, fault): every member missing (but velocity may be), with one
# axis too many, and with each wrong dtype kind that fits it; every float
# non-finite and every count negative; then faults of single members
CHECKPOINT_FAULTS = [
    *[(field, fault) for field in CHECKPOINT_COUNTS
      for fault in ("missing", "stacked", "fractional", "bool", "str",
                    "negative")],
    *[(field, fault) for field in CHECKPOINT_FLOATS
      for fault in ("missing", "stacked", "complex", "bool", "int", "str",
                    "nan")
      if (field, fault) != ("velocity", "missing")],
    *[(field, fault) for field in CHECKPOINT_STRINGS
      for fault in ("missing", "stacked", "int", "bytes")],
    ("seed", "uint64"), ("velocity", "shape"), ("layer_dims", "zero"),
    ("activation", "unknown"), ("meta_json", "list"), ("meta_json", "nested"),
]


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    config = {
        "data": GMM_DATA,
        "model": {"layer_dims": [4, 8, 3], "activation": "tanh"},
        "train": {"epochs": 4, "lr": 0.1, "momentum": 0.9,
                  "weight_decay": 1e-4, "batch_size": 16, "seed": 7},
    }
    cfg = root / "train.json"
    cfg.write_text(json.dumps(config))
    data = root / "data.json"
    data.write_text(json.dumps(GMM_DATA))
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return {"root": root, "config": cfg, "data": data, "out": out,
            "final": out / "checkpoint_epoch0004.npz"}


class TestTrain:
    def test_checkpoints_and_metrics_on_disk(self, train_run):
        names = sorted(p.name for p in train_run["out"].iterdir())
        assert names == ["checkpoint_epoch0000.npz", "checkpoint_epoch0001.npz",
                         "checkpoint_epoch0002.npz", "checkpoint_epoch0004.npz",
                         "metrics.csv", "train.manifest.json"]
        mid, schema, cols, rows = read_csv(train_run["out"] / "metrics.csv")
        assert schema == "metrics-csv/v1"
        assert cols == ["epoch", "lr", "train_loss", "train_error",
                        "test_loss", "test_error"]
        np.testing.assert_array_equal(rows[:, 0], [0, 1, 2, 3, 4])
        assert rows[-1, 3] < rows[0, 3]  # train error fell
        assert mid == manifest_of(train_run["out"], "train")["id"]

    def test_resume_reaches_the_same_weights(self, train_run, tmp_path):
        rc = main(["train", "--config", str(train_run["config"]),
                   "--resume", str(train_run["out"] / "checkpoint_epoch0002.npz"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        a = load_checkpoint(train_run["final"])
        b = load_checkpoint(tmp_path / "checkpoint_epoch0004.npz")
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.velocity, b.velocity)

    def test_unknown_train_key_is_reported(self, train_run, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(train_run["config"].read_text())
        doc["train"]["turbo"] = True
        bad.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown train config key(s): turbo" in capsys.readouterr().err

    def test_unknown_section_is_reported(self, train_run, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(train_run["config"].read_text())
        doc["extras"] = {}
        bad.write_text(json.dumps(doc))
        assert main(["train", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 2
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize("split", [5, "weird", None])
    def test_gmm_split_outside_the_rule_is_usage(self, train_run, tmp_path,
                                                 capsys, split):
        doc = json.loads(train_run["config"].read_text())
        doc["data"] = {**doc["data"], "split": split}
        cfg = write_json(tmp_path / "train.json", doc)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "gmm split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["anneal_at", "checkpoint_epochs"])
    @pytest.mark.parametrize("epoch", [-1, 5])
    def test_schedule_epoch_outside_the_run_is_usage(self, train_run, tmp_path,
                                                     capsys, key, epoch):
        doc = json.loads(train_run["config"].read_text())
        doc["train"][key] = [epoch]
        cfg = write_json(tmp_path / "train.json", doc)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"got [{epoch}]" in capsys.readouterr().err
        assert not out.exists()

    def test_gmm_is_drawn_once(self, train_run, tmp_path, monkeypatch):
        calls = []

        def spy(spec):
            calls.append(spec)
            return gaussian_mixture(spec)

        monkeypatch.setattr("specdens.cli.gaussian_mixture", spy)
        assert main(["train", "--config", str(train_run["config"]),
                     "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_divergence_exits_4_and_keeps_last_good(self, train_run, tmp_path,
                                                    capsys):
        doc = json.loads(train_run["config"].read_text())
        doc["train"]["lr"] = 1e200
        doc["train"]["epochs"] = 2
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 4
        assert "diverged" in capsys.readouterr().err
        ck = load_checkpoint(tmp_path / "checkpoint_epoch0000.npz")
        assert ck.epoch == 0 and np.isfinite(ck.theta).all()

    def test_start_up_loads_no_scipy(self, train_run, tmp_path):
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "assert main(['train', '--config', sys.argv[1],\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        out = run_python(script, train_run["config"], tmp_path)
        assert out.split("\n")[:2] == ["[]", "False"]

    def test_no_thread_pool_or_logging_is_loaded(self, goe_dir, tmp_path):
        # the Ritz solves fan out on bare threads; concurrent.futures and
        # logging would add about 8 ms and 0.25 MB to every start-up
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "unwanted = ('concurrent', 'logging')\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in unwanted)\n"
            "print(loaded())\n"
            "assert main(['spectrum', '--matrix', sys.argv[1], '--log',\n"
            "             '--steps', '64', '--n-vec', '2',\n"
            "             '--out-dir', sys.argv[2]]) == 0\n"
            "print(loaded())\n"
        )
        out = run_python(script, goe_dir / "matrix.spdm", tmp_path)
        assert out.splitlines() == ["[]", "[]"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "none.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()


    def test_non_utf8_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_bytes(b'{"data": "\xff"}')
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "not valid JSON" in capsys.readouterr().err


def decompose_args(checkpoint, data, out_dir, *extra):
    return ["decompose", "--checkpoint", str(checkpoint), "--data", str(data),
            *extra, "--out-dir", str(out_dir)]


class TestCheckpointAnalysis:
    def test_spectrum_from_checkpoint(self, train_run, tmp_path):
        rc = main(["spectrum", "--checkpoint", str(train_run["final"]),
                   "--data", str(train_run["data"]), "--which", "hess",
                   "--steps", "32", "--n-vec", "1", "--grid-points", "128",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "density.json").read_text())
        assert report["operator"] == "hess[train]"
        assert report["mass"] == pytest.approx(1.0, abs=0.01)

    def test_deflated_spectrum_from_checkpoint(self, train_run, tmp_path):
        argv = ["spectrum", "--checkpoint", str(train_run["final"]),
                "--data", str(train_run["data"]), "--which", "hess",
                "--deflate", "2", "--steps", "32", "--n-vec", "1",
                "--grid-points", "128", "--seed", "3"]
        for run in ("a", "b"):
            assert main([*argv, "--out-dir", str(tmp_path / run)]) == 0
        ck = load_checkpoint(train_run["final"])
        gmm = {k: v for k, v in GMM_DATA.items() if k != "kind"}
        train, _ = gaussian_mixture(GmmSpec.from_dict(gmm))
        dense = op_to_dense(hessian_operator(linearize(ck.spec, ck.theta,
                                                       train)))
        values = np.linalg.eigvalsh(dense)
        expected = values[np.argsort(-np.abs(values), kind="stable")][:2]
        top = json.loads((tmp_path / "a" / "top_spectrum.json").read_text())
        np.testing.assert_allclose(top["values"], expected, rtol=1e-8)
        names = sorted(f.name for f in (tmp_path / "a").iterdir()
                       if not f.name.endswith(".manifest.json"))
        assert "top_spectrum.json" in names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_decompose_report_validates(self, train_run, tmp_path):
        rc = main(["decompose", "--checkpoint", str(train_run["final"]),
                   "--data", str(train_run["data"]), "--steps", "48",
                   "--n-vec", "1", "--grid-points", "128", "--seed", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "attribution.json").read_text())
        validate_report(report)
        assert report["class_count"] == 3
        assert report["param_count"] == 67
        assert report["manifest"] == manifest_of(tmp_path, "decompose")["id"]

    def test_decompose_does_not_import_scipy_linalg(self, train_run,
                                                    tmp_path):
        script = (
            "import sys\n"
            "from specdens.cli import main\n"
            "assert main(['decompose', '--checkpoint', sys.argv[1],\n"
            "             '--data', sys.argv[2], '--steps', '48',\n"
            "             '--n-vec', '1', '--grid-points', '128',\n"
            "             '--out-dir', sys.argv[3]]) == 0\n"
            "print('scipy.linalg' in sys.modules,\n"
            "      'scipy.linalg.cython_lapack' in sys.modules)\n"
        )
        out = run_python(script, train_run["final"], train_run["data"],
                         tmp_path)
        assert out.split() == ["False", "True"]

    def test_data_dimension_mismatch_is_input_error(self, train_run, tmp_path,
                                                    capsys):
        wrong = tmp_path / "data5.json"
        wrong.write_text(json.dumps({**GMM_DATA, "dim": 5}))
        rc = main(["spectrum", "--checkpoint", str(train_run["final"]),
                   "--data", str(wrong), "--steps", "16",
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"dim": 5}, {"classes": 2}])
    def test_decompose_data_mismatch_is_input_error(self, train_run, tmp_path,
                                                    capsys, change):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({**GMM_DATA, **change}))
        rc = main(decompose_args(train_run["final"], wrong, tmp_path,
                                 "--steps", "16"))
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "decompose"])
    def test_data_mismatch_makes_no_out_dir(self, train_run, tmp_path, capsys,
                                            command):
        wrong = write_json(tmp_path / "data6.json", {**GMM_DATA, "dim": 6})
        out = tmp_path / "out"
        assert main([command, "--checkpoint", str(train_run["final"]),
                     "--data", str(wrong), "--steps", "16",
                     "--out-dir", str(out)]) == 3
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,fault", CHECKPOINT_FAULTS)
    @pytest.mark.parametrize("command", ["spectrum", "decompose", "train"])
    def test_bad_checkpoint_arrays_are_input_errors(self, train_run, tmp_path,
                                                    capsys, command, field,
                                                    fault):
        # every member x every fault class, caught at load, before a
        # product, the decomposition or --out-dir; written by hand, since
        # save_checkpoint writes none of these
        with np.load(train_run["final"]) as z:
            payload = dict(z)
        values = payload[field].copy()
        if fault == "missing":
            del payload[field]
            message = f"checkpoint lacks {field}"
        elif fault == "stacked":
            values = np.stack([values, values])
            message = f"{field} has shape {values.shape}, want a"
        elif fault == "nan":
            values.flat[0] = np.nan
            message = f"{field} has non-finite entries"
        elif fault == "negative":
            values = -1 - values
            message = f"{field} is {values.tolist()}, want >= 0"
        elif fault == "shape":
            values = values[:5]
            message = f"{field} has (5,)"
        elif fault == "zero":
            # a readable archive whose spec is refused: the spec's message
            values[1] = 0
            message = "all layer widths must be >= 1"
        elif fault == "unknown":
            values = np.str_("relu6")
            message = "unknown activation 'relu6'"
        elif fault in ("list", "nested"):
            # valid JSON that is no object, and JSON too deep to parse
            depth = 1 if fault == "list" else 100_000
            values = np.str_("[" * depth + "]" * depth)
            message = "meta_json is not a JSON object"
        else:
            # a wrong dtype: int() would truncate a fractional count or
            # take a bool, a float cast would drop an imaginary part
            values = {"fractional": lambda v: v + 0.5,
                      "bool": lambda v: v > 0,
                      "str": lambda v: v.astype(str),
                      "bytes": lambda v: v.astype(bytes),
                      "complex": lambda v: v + 1j,
                      "int": lambda v: np.ones(v.shape, dtype=np.int64),
                      "uint64": lambda v: v.astype(np.uint64)}[fault](values)
            written = ("int64" if field in CHECKPOINT_COUNTS else
                       "float64" if field in CHECKPOINT_FLOATS else "str")
            message = f"{field} has dtype {values.dtype}, want {written}"
        if fault != "missing":
            payload[field] = values
        bad = tmp_path / "bad.npz"
        np.savez(bad, **payload)
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--config", str(train_run["config"]),
                    "--resume", str(bad), "--out-dir", str(out)]
        else:
            argv = [command, "--checkpoint", str(bad),
                    "--data", str(train_run["data"]), "--steps", "16",
                    "--out-dir", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert message in err and "unreadable" not in err
        # the spec's own message speaks of layer widths
        assert field in err or fault == "zero"
        assert not out.exists()

    def test_decompose_rerun_is_byte_identical(self, train_run, tmp_path):
        for name in ("a", "b"):
            assert main(decompose_args(
                train_run["final"], train_run["data"], tmp_path / name,
                "--steps", "32", "--grid-points", "64", "--seed", "3")) == 0
        assert ((tmp_path / "a" / "attribution.json").read_bytes()
                == (tmp_path / "b" / "attribution.json").read_bytes())

    def test_unsupported_zip_feature_is_input_error(self, train_run, tmp_path,
                                                    capsys):
        # general-purpose flag bit 5 ("compressed patched data") in the
        # first central-directory entry; zipfile refuses such members
        blob = bytearray(train_run["final"].read_bytes())
        flags = blob.index(b"PK\x01\x02") + 8
        blob[flags] |= 0x20
        patched = tmp_path / "patched.npz"
        patched.write_bytes(bytes(blob))
        rc = main(decompose_args(patched, train_run["data"], tmp_path))
        assert rc == 3
        assert "unreadable checkpoint" in capsys.readouterr().err

    def test_truncated_checkpoint_is_input_error(self, train_run, tmp_path,
                                                 capsys):
        half = tmp_path / "half.npz"
        blob = train_run["final"].read_bytes()
        half.write_bytes(blob[:len(blob) // 2])
        rc = main(["spectrum", "--checkpoint", str(half),
                   "--data", str(train_run["data"]),
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    def test_truncated_gzip_idx_is_input_error(self, train_run, tmp_path,
                                               capsys):
        images = struct.pack(">IIII", 0x803, 6, 2, 2) + bytes(range(24))
        labels = struct.pack(">II", 0x801, 6) + bytes([0, 1, 2, 0, 1, 2])
        packed = gzip.compress(images)
        (tmp_path / "images.gz").write_bytes(packed[:len(packed) // 2])
        (tmp_path / "labels").write_bytes(labels)
        data = tmp_path / "idx.json"
        data.write_text(json.dumps({"kind": "idx",
                                    "images": str(tmp_path / "images.gz"),
                                    "labels": str(tmp_path / "labels")}))
        rc = main(["spectrum", "--checkpoint", str(train_run["final"]),
                   "--data", str(data), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "gzip" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_decompose_g_is_the_spectrum_of_g(self, train_run, tmp_path,
                                               split):
        data = write_json(tmp_path / "data.json", {
            **GMM_DATA, "n_test_per_class": 7, "split": split})
        flags = ["--steps", "48", "--n-vec", "2", "--grid-points", "128",
                 "--seed", "11"]
        assert main(["spectrum", "--checkpoint", str(train_run["final"]),
                     "--data", str(data), "--which", "g", "--log", *flags,
                     "--out-dir", str(tmp_path / "s")]) == 0
        assert main(decompose_args(train_run["final"], data, tmp_path / "d",
                                   *flags)) == 0
        density = json.loads((tmp_path / "s" / "density.json").read_text())
        report = json.loads((tmp_path / "d" / "attribution.json").read_text())
        g = report["densities"]["g"]
        assert g.pop("method") == "slq"
        assert g == density["density"]
        assert [r["steps"] for r in g["ritz"]] == [48, 48]
        assert report["n_examples"] == {"train": 60, "test": 21}[split]

    @pytest.mark.parametrize("command", ["train", "spectrum", "decompose"])
    def test_idx_takes_no_split(self, train_run, tmp_path, capsys, command):
        images, labels = idx_pair(range(24), [0, 1, 2, 0, 1, 2])
        (tmp_path / "images").write_bytes(images)
        (tmp_path / "labels").write_bytes(labels)
        idx = {"kind": "idx", "images": str(tmp_path / "images"),
               "labels": str(tmp_path / "labels")}

        def run(data, out):
            if command == "train":
                doc = json.loads(train_run["config"].read_text())
                cfg = write_json(tmp_path / "train.json", {**doc, "data": data})
                argv = ["train", "--config", str(cfg)]
            else:
                argv = [command, "--checkpoint", str(train_run["final"]),
                        "--data", str(write_json(tmp_path / "data.json", data)),
                        "--steps", "8"]
            return main([*argv, "--out-dir", str(out)])

        assert run(idx, tmp_path / "ok") == 0
        out = tmp_path / "out"
        assert run({**idx, "split": "train"}, out) == 2
        assert "unknown idx data config key(s): split" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_decompose_non_finite_part_is_numerical_failure(
            self, train_run, tmp_path, capsys, monkeypatch):
        # a NaN B2 product would read as a zero identity residual if NaN
        # dropped out of the max; G - B1 and the other densities never
        # apply B2, so nothing else would stop the report
        build = decomp.build_decomposition

        def nan_b2(lin):
            parts = build(lin)
            nan = SymmetricOperator(parts.b2.dim,
                                    lambda v: np.full(v.shape, np.nan),
                                    label="b2")
            return dataclasses.replace(parts, b2=nan)

        monkeypatch.setattr(decomp, "build_decomposition", nan_b2)
        out = tmp_path / "d"
        assert main(decompose_args(train_run["final"], train_run["data"],
                                   out, "--steps", "16")) == 4
        # the part that made the NaN is named, not the sum around it
        assert ("numerical failure: operator b2 returned a non-finite "
                "vector\n") in capsys.readouterr().err
        assert not (out / "attribution.json").exists()

    def test_decompose_with_a_class_that_has_no_examples(self, train_run,
                                                          tmp_path):
        # labels 0 and 2 only: class 1 has no examples, no cluster means and
        # no factor rows of its own, yet the report holds and validates
        images, labels = idx_pair(range(24), [0, 2, 0, 2, 2, 0])
        (tmp_path / "images").write_bytes(images)
        (tmp_path / "labels").write_bytes(labels)
        data = write_json(tmp_path / "data.json", {
            "kind": "idx", "images": str(tmp_path / "images"),
            "labels": str(tmp_path / "labels")})
        assert main(decompose_args(train_run["final"], data, tmp_path / "d",
                                   "--steps", "16", "--grid-points", "64")) == 0
        report = json.loads((tmp_path / "d" / "attribution.json").read_text())
        validate_report(report)
        assert report["class_count"] == 3 and report["n_examples"] == 6
        assert report["identity"]["relative_residual"] <= 1e-10
        assert report["b2c_traces"][1] == 0.0

    def test_bad_split_value(self, train_run, tmp_path, capsys):
        wrong = tmp_path / "weird.json"
        wrong.write_text(json.dumps({**GMM_DATA, "split": "weird"}))
        rc = main(["spectrum", "--checkpoint", str(train_run["final"]),
                   "--data", str(wrong), "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()


NON_FINITE_FLAGS = [
    ("synth", ["--kind", "pareto_wishart", "--alpha", "nan"]),
    ("synth", ["--kind", "pareto_wishart", "--alpha", "inf"]),
    ("synth", ["--kind", "spiked_wishart", "--spikes", "nan"]),
    ("synth", ["--kind", "spiked_wishart", "--spikes", "5,inf"]),
    ("spectrum", ["--kappa", "nan"]),
    ("spectrum", ["--kappa", "inf"]),
    ("spectrum", ["--log", "--epsilon", "nan"]),
    ("spectrum", ["--log", "--epsilon", "inf"]),
    ("decompose", ["--kappa", "nan"]),
    ("decompose", ["--kappa", "inf"]),
    ("decompose", ["--epsilon", "nan"]),
    ("decompose", ["--epsilon", "inf"]),
]


@pytest.mark.parametrize("command,flags", NON_FINITE_FLAGS,
                         ids=[f"{c}-{f[-2].lstrip('-')}-{f[-1]}"
                              for c, f in NON_FINITE_FLAGS])
def test_non_finite_flag_is_usage_before_any_output(request, tmp_path, capsys,
                                                    command, flags):
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--p", "20", "--n", "20", *flags,
                "--out-dir", str(out)]
    elif command == "spectrum":
        matrix = request.getfixturevalue("goe_dir") / "matrix.spdm"
        argv = ["spectrum", "--matrix", str(matrix), "--steps", "16", *flags,
                "--out-dir", str(out)]
    else:
        run = request.getfixturevalue("train_run")
        argv = decompose_args(run["final"], run["data"], out, "--steps", "16",
                              *flags)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


BAD_ESTIMATOR_SETTINGS = [
    ("spectrum", ["--kappa", "nan"]),
    ("spectrum", ["--kappa", "1"]),
    ("spectrum", ["--deflate", "0"]),
    ("spectrum", ["--n-vec", "0"]),
    ("spectrum", ["--steps", "1"]),
    ("spectrum", ["--grid-points", "-1"]),
    ("spectrum", ["--log", "--epsilon", "0"]),
    # checked on the linear axis too, where it is recorded as null
    ("spectrum", ["--epsilon", "nan"]),
    ("spectrum", ["--epsilon", "inf"]),
    ("spectrum", ["--epsilon", "-1"]),
    ("decompose", ["--kappa", "nan"]),
    ("decompose", ["--n-vec", "0"]),
    ("decompose", ["--steps", "1"]),
    ("decompose", ["--grid-points", "1"]),
    ("decompose", ["--epsilon", "-1"]),
]


@pytest.mark.parametrize("command,flags", BAD_ESTIMATOR_SETTINGS,
                         ids=[f"{c}-{f[-2].lstrip('-')}-{f[-1]}"
                              for c, f in BAD_ESTIMATOR_SETTINGS])
def test_bad_estimator_setting_exits_before_anything_is_built(
        request, tmp_path, capsys, monkeypatch, command, flags):
    out = tmp_path / "od" / "x"

    def not_reached(*args, **kwargs):
        raise AssertionError("input read before the settings were checked")

    if command == "spectrum":
        monkeypatch.setattr("specdens.cli.read_matrix", not_reached)
        matrix = request.getfixturevalue("goe_dir") / "matrix.spdm"
        argv = ["spectrum", "--matrix", str(matrix), *flags,
                "--out-dir", str(out)]
    else:
        monkeypatch.setattr("specdens.cli.load_checkpoint", not_reached)
        run = request.getfixturevalue("train_run")
        argv = decompose_args(run["final"], run["data"], out, *flags)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _mutants(blob: bytes):
    """Strategy over every proper prefix and every single-bit flip of blob."""
    prefixes = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])

    def flip(bit):
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return st.one_of(prefixes, st.integers(0, 8 * len(blob) - 1).map(flip))


class TestDecomposeFuzz:
    """A damaged checkpoint or data config maps to an exit code (0, 2 or
    3), never to a traceback: the exit-code table is a contract."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_prefixes_and_bit_flips_never_raise(self, train_run, data):
        work = train_run["root"] / "fuzz"
        work.mkdir(exist_ok=True)
        inputs = {"checkpoint": train_run["final"], "data": train_run["data"]}
        target = data.draw(st.sampled_from(sorted(inputs)))
        mutant = work / inputs[target].name
        mutant.write_bytes(data.draw(_mutants(inputs[target].read_bytes())))
        inputs[target] = mutant
        rc = main(decompose_args(inputs["checkpoint"], inputs["data"],
                                 work / "out", "--steps", "4",
                                 "--grid-points", "16"))
        assert rc in (0, 2, 3)


class TestMatrixFuzz:
    """A damaged .spdm file maps to an exit code, never to a traceback: a
    bad header, a truncation, a non-finite entry or a broken symmetry is
    malformed input (3); a flip that keeps the file valid estimates (0) or
    fails numerically (4)."""

    @pytest.fixture(scope="class")
    def matrix_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz_spdm") / "m.spdm"
        write_matrix(path, sample(EnsembleSpec(kind="goe", p=8, seed=1)))
        return path

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_prefixes_and_bit_flips_never_raise(self, matrix_file, data):
        work = matrix_file.parent / "fuzz"
        work.mkdir(exist_ok=True)
        mutant = work / "m.spdm"
        mutant.write_bytes(data.draw(_mutants(matrix_file.read_bytes())))
        # a flipped exponent can overflow a matvec: exit 4, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["spectrum", "--matrix", str(mutant), "--steps", "4",
                       "--grid-points", "16", "--out-dir", str(work / "out")])
        assert rc in (0, 3, 4)

    def test_asymmetric_matrix_file_is_input_error(self, tmp_path, capsys):
        A = np.eye(4)
        A[0, 1] = 0.5
        path = tmp_path / "asym.spdm"
        write_matrix(path, A)
        rc = main(["spectrum", "--matrix", str(path), "--steps", "4",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "asym.spdm" in capsys.readouterr().err


def idx_pair(pixels, labels) -> tuple[bytes, bytes]:
    """IDX image and label files for uint8 ``pixels`` of shape (n, 2, 2)."""
    n = len(labels)
    images = struct.pack(">IIII", 0x803, n, 2, 2) + bytes(pixels)
    return images, struct.pack(">II", 0x801, n) + bytes(labels)


def write_json(path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


class TestEmptyData:
    """An IDX pair with no images is a usage error (2) wherever the data is
    used, not a division by zero."""

    @pytest.mark.parametrize("command", ["train", "spectrum", "decompose"])
    def test_empty_idx_pair_is_usage_error(self, tmp_path, capsys, command):
        images, labels = idx_pair(b"", [])
        (tmp_path / "images").write_bytes(images)
        (tmp_path / "labels").write_bytes(labels)
        data = {"kind": "idx", "images": str(tmp_path / "images"),
                "labels": str(tmp_path / "labels")}
        # an empty label file has one class, so a one-class net fits it
        model = {"layer_dims": [4, 3, 1], "activation": "tanh"}
        spec = MlpSpec(layer_dims=tuple(model["layer_dims"]))
        out = str(tmp_path / "out")
        if command == "train":
            cfg = write_json(tmp_path / "train.json", {
                "data": data, "model": model,
                "train": {"epochs": 1, "lr": 0.1}})
            argv = ["train", "--config", str(cfg), "--out-dir", out]
        else:
            ck = tmp_path / "ck.npz"
            save_checkpoint(ck, Checkpoint(spec=spec, theta=init_params(spec),
                                           epoch=0, seed=0, lr=0.1))
            argv = [command, "--checkpoint", str(ck), "--data",
                    str(write_json(tmp_path / "data.json", data)),
                    "--steps", "4", "--out-dir", out]
        assert main(argv) == 2
        assert "at least one example" in capsys.readouterr().err


# each of these raised out of main before the config sections were typed
WRONG_TYPES = [
    ("model", "layer_dims", "abc"),
    ("model", "layer_dims", 5),
    ("model", "layer_dims", [[4], 3, 3]),
    ("model", "layer_dims", [4.5, 3, 3]),
    ("train", "anneal_at", 5),
    ("train", "checkpoint_epochs", 3),
    ("train", "batch_size", 2.5),
    ("train", "seed", "s"),
    ("train", "seed", -1),
    ("train", "anneal_factor", -0.5),
    ("train", "weight_decay", -1e-4),
    ("data", "seed", "s"),
    ("data", "seed", -1),
    ("data", "n_per_class", 2.5),
]

FUZZ_GMM = {"kind": "gmm", "classes": 3, "n_per_class": 4, "dim": 4,
            "separation": 3.0, "seed": 5}
FUZZ_MODEL = {"layer_dims": [4, 3, 3], "activation": "tanh"}
FUZZ_TRAIN = {"epochs": 2, "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
              "batch_size": 4, "seed": 7, "anneal_factor": 0.1,
              "anneal_at": [1], "checkpoint_epochs": [0, 2]}

_DELETE = object()

# (base config, section, key) for every key a train config can hold
_MUTABLE = [
    *[("gmm", "data", k) for k in (*FUZZ_GMM, "std", "n_test_per_class")],
    *[("idx", "data", k) for k in ("kind", "images", "labels",
                                   "limit_per_class")],
    *[("gmm", "model", k) for k in FUZZ_MODEL],
    *[("gmm", "train", k) for k in FUZZ_TRAIN],
]

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                          st.floats(), st.text(max_size=3))
_JSON_VALUES = st.one_of(
    _JSON_SCALARS, st.just(_DELETE),
    st.lists(st.one_of(st.integers(-1, 5), st.floats(-5, 5),
                       st.lists(st.integers(0, 4), max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2))


def _seeded_with_wrong_types(test):
    for section, key, value in WRONG_TYPES:
        test = example(target=("gmm", section, key), value=value)(test)
    return test


class TestTrainInputFuzz:
    """Damaged IDX files and train configs map to an exit code, never to a
    traceback."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("train_fuzz")
        images, labels = idx_pair(range(24), [0, 1, 2, 0, 1, 2])
        files = {"images": images, "labels": labels,
                 "images.gz": gzip.compress(images, mtime=0),
                 "labels.gz": gzip.compress(labels, mtime=0)}
        for name, blob in files.items():
            (root / name).write_bytes(blob)
        idx = {"kind": "idx", "images": str(root / "images"),
               "labels": str(root / "labels")}
        return {"root": root, "files": files, "idx": idx}

    def run_train(self, inputs, config) -> int:
        root = inputs["root"]
        cfg = write_json(root / "train.json", config)
        # non-finite or huge values can overflow training: exit 4
        with np.errstate(all="ignore"):
            return main(["train", "--config", str(cfg),
                         "--out-dir", str(root / "out")])

    @pytest.mark.parametrize("section,key,value", WRONG_TYPES)
    def test_wrong_type_is_usage_error(self, inputs, capsys, section, key,
                                       value):
        config = {"data": dict(FUZZ_GMM), "model": dict(FUZZ_MODEL),
                  "train": dict(FUZZ_TRAIN)}
        config[section][key] = value
        assert self.run_train(inputs, config) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, pytest.param(10 ** 400, id="10**400")])
    @pytest.mark.parametrize("section,key", [
        ("data", "separation"), ("data", "std"), ("train", "lr"),
        ("train", "momentum"), ("train", "weight_decay"),
        ("train", "anneal_factor")])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, section,
                                              key, value):
        # json writes and reads NaN, Infinity and -Infinity, and integers of
        # any length; a float key rejects them with the config, before
        # training could diverge or overflow or any output is written
        config = {"data": dict(FUZZ_GMM), "model": dict(FUZZ_MODEL),
                  "train": dict(FUZZ_TRAIN)}
        config[section][key] = value
        cfg = write_json(tmp_path / "train.json", config)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 2
        assert f"{key}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @_seeded_with_wrong_types
    @given(target=st.sampled_from(_MUTABLE), value=_JSON_VALUES)
    def test_config_type_mutations_never_raise(self, inputs, target, value):
        base, section, key = target
        config = {"data": dict(FUZZ_GMM if base == "gmm" else inputs["idx"]),
                  "model": dict(FUZZ_MODEL), "train": dict(FUZZ_TRAIN)}
        if value is _DELETE:
            config[section].pop(key, None)
        else:
            config[section][key] = value
        assert self.run_train(inputs, config) in (0, 2, 3, 4)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_idx_prefixes_and_bit_flips_never_raise(self, inputs, data):
        root = inputs["root"] / "mutant"
        root.mkdir(exist_ok=True)
        files = inputs["files"]
        target = data.draw(st.sampled_from(sorted(files)))
        gz = ".gz" if target.endswith(".gz") else ""
        for name in ("images", "labels"):
            blob = files[name + gz]
            if name + gz == target:
                blob = data.draw(_mutants(blob))
            (root / name).write_bytes(blob)
        config = {"data": {"kind": "idx", "images": str(root / "images"),
                           "labels": str(root / "labels")},
                  "model": dict(FUZZ_MODEL), "train": dict(FUZZ_TRAIN)}
        assert self.run_train(inputs, config) in (0, 2, 3)
