import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polyrad
from polyrad import MatrixFamily, RunConfig
from polyrad.cli import (
    CSV_HEADER,
    FamilyFileError,
    _build_parser,
    dump_family,
    load_family,
    main,
)


def write_family(path, matrices, labels=None):
    fam = MatrixFamily(matrices, labels)
    with open(path, "w", encoding="utf-8") as handle:
        dump_family(fam, handle)
    return str(path)


@pytest.fixture()
def jsr_file(tmp_path):
    return write_family(tmp_path / "jsr.json",
                        [np.array([[1.0, 1.0], [0.0, 1.0]]),
                         0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])])


@pytest.fixture()
def lsr_file(tmp_path):
    return write_family(tmp_path / "lsr.json",
                        [np.array([[7.0, 0.0], [2.0, 3.0]]),
                         np.array([[2.0, 4.0], [0.0, 8.0]])])


@pytest.fixture()
def slow_file(tmp_path):
    return write_family(tmp_path / "slow.json",
                        [np.array([[1.0, 1.0], [0.0, 1.0]]),
                         0.8 * np.array([[1.0, 0.0], [1.0, 1.0]])])


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        path = write_family(tmp_path / "f.json",
                            [np.eye(2), np.ones((2, 2))], labels=["I", "J"])
        fam = load_family(path)
        assert fam.dim == 2 and fam.size == 2
        assert fam.labels == ("I", "J")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(FamilyFileError):
            load_family(str(bad))

    def test_missing_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "dim": 2}))
        with pytest.raises(FamilyFileError, match="matrices"):
            load_family(str(bad))

    def test_dim_mismatch(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "dim": 3,
                                   "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}))
        with pytest.raises(FamilyFileError, match="dim"):
            load_family(str(bad))


class TestCompute:
    def test_jsr_exact_exit_zero(self, jsr_file, capsys):
        code = main(["compute", "--input", jsr_file, "--mode", "jsr"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: terminated" in out
        assert "1.53500182" in out

    def test_lsr_exact_exit_zero(self, lsr_file, capsys):
        code = main(["compute", "--input", lsr_file, "--mode", "lsr",
                     "--max-length", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "6.00931349" in out

    def test_slow_family_bounds_exit_two(self, slow_file, capsys):
        code = main(["compute", "--input", slow_file])
        out = capsys.readouterr().out
        assert code == 2
        assert "in [" in out

    def test_remove_boundary_makes_it_exact(self, slow_file, capsys):
        code = main(["compute", "--input", slow_file, "--remove-boundary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.4472136" in out

    def test_json_output_schema(self, jsr_file, capsys):
        code = main(["compute", "--input", jsr_file, "--output", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "terminated"
        assert payload["value"] == pytest.approx(1.535001822, abs=1e-8)
        assert payload["word"] == [2, 1]
        assert payload["vertex_count"] == 3

    def test_csv_output(self, jsr_file, capsys):
        code = main(["compute", "--input", jsr_file, "--output", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[3] == "terminated"
        assert float(fields[4]) == pytest.approx(1.535001822, abs=1e-8)

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["compute", "--input", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_lsr_rejects_signed_family(self, tmp_path, capsys):
        path = write_family(tmp_path / "s.json", [-np.eye(2)])
        code = main(["compute", "--input", path, "--mode", "lsr"])
        assert code == 1
        assert "nonnegative" in capsys.readouterr().err


class TestVerify:
    def test_round_trip_valid(self, jsr_file, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        assert main(["compute", "--input", jsr_file,
                     "--certificate", cert]) == 0
        capsys.readouterr()
        code = main(["verify", "--input", jsr_file, "--certificate", cert])
        assert code == 0
        assert "certificate valid" in capsys.readouterr().out

    def test_tampered_certificate_fails(self, jsr_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", jsr_file,
                     "--certificate", str(cert)]) == 0
        raw = json.loads(cert.read_text())
        raw["rho_per_step"] *= 1.01
        cert.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(["verify", "--input", jsr_file, "--certificate", str(cert)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_wrong_family_fails(self, jsr_file, lsr_file, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        assert main(["compute", "--input", jsr_file,
                     "--certificate", cert]) == 0
        capsys.readouterr()
        code = main(["verify", "--input", lsr_file, "--certificate", cert])
        out = capsys.readouterr().out
        assert code == 1
        assert "fingerprint" in out


class TestDataset:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = str(tmp_path / "fam.json")
        code = main(["dataset", "euler-binary", "--r", "7", "--out", out])
        assert code == 0
        fam = load_family(out)
        assert fam.dim == 6 and fam.size == 2

    def test_stdout_dump(self, capsys):
        code = main(["dataset", "pascal-rhombus"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["dim"] == 5

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["dataset", "random", "--kind", "binary", "--d", "4",
                         "--m", "2", "--seed", "11", "--out", out]) == 0
        fa, fb = load_family(a), load_family(b)
        for i in (1, 2):
            assert np.array_equal(fa.matrix(i), fb.matrix(i))

    def test_missing_parameters(self, capsys):
        code = main(["dataset", "euler-binary"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestBench:
    def test_csv_rows(self, capsys):
        code = main(["bench", "--kind", "nonneg-uniform", "--d", "2",
                     "--m", "2", "--seeds", "0:3", "--max-length", "4",
                     "--max-iters", "20"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code in (0, 2, 3)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        for seed, line in zip(range(3), lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(seed)
            assert fields[1] == "2"
            assert float(fields[4]) <= float(fields[5]) + 1e-12

    def test_comma_seed_list(self, capsys):
        code = main(["bench", "--kind", "nonneg-uniform", "--d", "2",
                     "--m", "2", "--seeds", "5,9", "--max-length", "3",
                     "--max-iters", "10"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code in (0, 2, 3)
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "9"]

    def test_empty_seeds(self, capsys):
        code = main(["bench", "--kind", "binary", "--d", "2", "--m", "2",
                     "--seeds", ""])
        assert code == 1


class TestDefaults:
    def test_parsed_defaults_equal_run_config(self):
        config = RunConfig()
        parser = _build_parser()
        compute = parser.parse_args(["compute", "--input", "family.json"])
        assert (compute.max_iters, compute.tol, compute.cone_delta,
                compute.cone_epsilon, compute.cone_probe_iters) == (
            config.max_iterations, config.boundary_tol, config.cone_delta,
            config.cone_epsilon, config.cone_probe_iters)
        bench = parser.parse_args(["bench", "--kind", "binary", "--d", "2",
                                   "--m", "2"])
        assert (bench.max_iters, bench.tol) == (config.max_iterations,
                                                config.boundary_tol)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


class TestStartup:
    def test_import_leaves_out_scipy(self):
        # Every CLI call pays for what `import polyrad` loads; the package
        # needs only numpy, and scipy is a test oracle.
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyrad.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, polyrad; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
