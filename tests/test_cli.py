import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polyrad
from polyrad import MatrixFamily, RunConfig, datasets, family_fingerprint
from polyrad.cli import (
    CSV_HEADER,
    FamilyFileError,
    _build_parser,
    dump_family,
    load_family,
    main,
)


def write_family(path, matrices):
    fam = MatrixFamily(matrices)
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
        path = write_family(tmp_path / "f.json", [np.eye(2), np.ones((2, 2))])
        fam = load_family(path)
        assert fam.dim == 2 and fam.size == 2

    def test_indented_file_with_labels_loads(self, tmp_path):
        # The layout written before family files became canonical text.
        old = tmp_path / "old.json"
        old.write_text(json.dumps(
            {"version": 1, "dim": 2,
             "matrices": [[[1.0, 1.0], [0.0, 1.0]], [[0.9, 0.0], [0.9, 0.9]]],
             "labels": ["A1", "A2"]}, indent=2) + "\n")
        fam = load_family(str(old))
        assert fam.size == 2
        assert np.array_equal(fam.matrix(2), 0.9 * np.array([[1, 0], [1, 1]]))
        assert main(["compute", "--input", str(old), "--max-length", "4"]) == 0

    def test_negative_zero_keeps_the_fingerprint(self, tmp_path):
        fam = MatrixFamily([np.array([[1.0, -0.0], [0.5, 1.0]])])
        path = str(tmp_path / "f.json")
        with open(path, "w", encoding="utf-8") as handle:
            dump_family(fam, handle)
        assert family_fingerprint(load_family(path)) == family_fingerprint(fam)

    @pytest.mark.parametrize("literal", ['"1"', "true", "NaN", "Infinity",
                                         "-Infinity", "1e999", "null", "[1]"])
    def test_entry_that_is_not_a_finite_number(self, tmp_path, capsys, literal):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version":1,"dim":2,"matrices":[[[1,0],[%s,1]]]}'
                       % literal)
        with pytest.raises(FamilyFileError) as exc:
            load_family(str(bad))
        reason = str(exc.value).replace(str(bad), "")
        assert ("must be lists of numbers" in reason
                or "non-finite number" in reason)
        assert main(["compute", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("matrices", [[], [[]], [[[1, 0]]], [[[1, 0], [1]]],
                                          [[[1, 0], [0, 1]], [[1]]], [5]])
    def test_matrices_that_are_not_square(self, tmp_path, capsys, matrices):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "dim": 2,
                                   "matrices": matrices}))
        with pytest.raises(FamilyFileError):
            load_family(str(bad))
        assert main(["compute", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_text_that_is_not_utf8(self, jsr_file, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "wb") as handle:
            handle.write(b"\xff\xfe{")
        with pytest.raises(FamilyFileError):
            load_family(bad)
        for argv in (["compute", "--input", bad],
                     ["verify", "--input", jsr_file, "--certificate", bad]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("field, value", [
        ("version", "one"), ("version", True), ("version", 1.0),
        ("version", [1]), ("dim", "2"), ("dim", True), ("dim", None),
    ])
    def test_wrong_typed_integer_field(self, tmp_path, capsys, field, value):
        raw = {"version": 1, "dim": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}
        raw[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(FamilyFileError, match=field):
            load_family(str(bad))
        assert main(["compute", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
        assert payload["root_words"] == [[2, 1]]
        assert payload["vertex_count"] == 3

    def test_json_lists_twin_root_chains(self, tmp_path, capsys):
        path = str(tmp_path / "eb7.json")
        assert main(["dataset", "euler-binary", "--r", "7", "--out", path]) == 0
        capsys.readouterr()
        code = main(["compute", "--input", path, "--output", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "terminated"
        assert payload["root_words"] == [[1], [2]]

    def test_json_counts_solved_and_skipped_lps(self, tmp_path, capsys):
        path = str(tmp_path / "eb9.json")
        assert main(["dataset", "euler-binary", "--r", "9", "--out", path]) == 0
        capsys.readouterr()
        code = main(["compute", "--input", path, "--mode", "lsr",
                     "--output", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert type(payload["lps_solved"]) is int and payload["lps_solved"] > 0
        assert type(payload["lps_skipped"]) is int and payload["lps_skipped"] > 0

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

    @pytest.mark.parametrize("target", ["missing/cert.json", "."])
    def test_unwritable_certificate_path(self, jsr_file, tmp_path, capsys,
                                         target):
        code = main(["compute", "--input", jsr_file,
                     "--certificate", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cannot write ")
        assert "Traceback" not in captured.err

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
        out = capsys.readouterr().out
        assert "certificate valid" in out
        # One vertex settles 5 of the pair's 6 images (test_certificates).
        assert "membership LPs: 1 solved, 5 skipped" in out

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

    @pytest.mark.parametrize("field, value", [("word", [1.5]), ("mode", [])])
    def test_wrong_typed_certificate_exit_one(self, jsr_file, tmp_path, capsys,
                                              field, value):
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", jsr_file,
                     "--certificate", str(cert)]) == 0
        raw = json.loads(cert.read_text())
        raw[field] = value
        cert.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(["verify", "--input", jsr_file, "--certificate", str(cert)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("name, family", [
        (["euler-binary", "--r", "9"], lambda: datasets.euler_binary(9)),
        (["pascal-rhombus"], datasets.pascal_rhombus),
        (["overlap-free"], datasets.overlap_free),
        (["euler-ternary-14"], datasets.euler_ternary_14),
        (["random", "--kind", "gaussian-equal-norm", "--d", "5", "--m", "3",
          "--seed", "2"],
         lambda: datasets.random_family("gaussian-equal-norm", 5, 3, 2)),
        (["random", "--kind", "nonneg-uniform", "--d", "4", "--m", "2",
          "--seed", "0"],
         lambda: datasets.random_family("nonneg-uniform", 4, 2, 0)),
        (["random", "--kind", "binary", "--d", "6", "--m", "2", "--seed", "3",
          "--density", "0.4"],
         lambda: datasets.random_family("binary", 6, 2, 3, 0.4)),
    ])
    def test_file_text_is_what_the_fingerprint_hashes(self, tmp_path, capsys,
                                                      name, family):
        out = str(tmp_path / "fam.json")
        assert main(["dataset"] + name + ["--out", out]) == 0
        with open(out, "rb") as handle:
            text = handle.read()
        assert text.endswith(b"\n")
        loaded = load_family(out)
        assert (hashlib.sha256(text[:-1]).hexdigest()
                == family_fingerprint(loaded) == family_fingerprint(family()))
        assert all(np.array_equal(a, b) for a, b in
                   zip(loaded.matrices, family().matrices, strict=True))

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

    @pytest.mark.parametrize("target", ["missing/fam.json", "."])
    def test_unwritable_out_path(self, tmp_path, capsys, target):
        code = main(["dataset", "pascal-rhombus", "--out",
                     str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cannot write ")
        assert captured.out == ""


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

    @pytest.mark.parametrize("seeds", ["a", "1:x"])
    def test_malformed_seeds(self, capsys, seeds):
        code = main(["bench", "--kind", "binary", "--d", "2", "--m", "2",
                     "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: bad --seeds %r" % seeds)
        assert captured.out == ""


class TestDefaults:
    def test_parsed_defaults_equal_run_config(self):
        config = RunConfig()
        parser = _build_parser()
        compute = parser.parse_args(["compute", "--input", "family.json"])
        assert (compute.max_iters, compute.remove_boundary) == (
            config.max_iterations, config.remove_boundary)
        bench = parser.parse_args(["bench", "--kind", "binary", "--d", "2",
                                   "--m", "2"])
        assert bench.max_iters == config.max_iterations

    @pytest.mark.parametrize("argv", [
        ["compute", "--input", "f.json", "--tol", "1e-9"],
        ["compute", "--input", "f.json", "--no-stopping"],
        ["compute", "--input", "f.json", "--cone-delta", "0.01"],
        ["compute", "--input", "f.json", "--cone-epsilon", "0.5"],
        ["compute", "--input", "f.json", "--cone-probe-iters", "5"],
        ["bench", "--kind", "binary", "--d", "2", "--m", "2", "--tol", "1e-9"],
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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
