import dataclasses
import json

import numpy as np
import pytest

from polyrad import (
    Certificate,
    CertificateFormatError,
    MODE_L,
    MODE_P,
    MODE_R,
    MatrixFamily,
    RunConfig,
    deserialize,
    family_fingerprint,
    run,
    serialize,
    spans_check,
    verify,
)


@pytest.fixture(scope="module")
def jsr_outcome():
    A1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A2 = 0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])
    fam = MatrixFamily((A1, A2))
    return fam, run(fam, RunConfig(mode=MODE_P, max_candidate_length=4))


@pytest.fixture(scope="module")
def lsr_outcome():
    B1 = np.array([[7.0, 0.0], [2.0, 3.0]])
    B2 = np.array([[2.0, 4.0], [0.0, 8.0]])
    fam = MatrixFamily((B1, B2))
    return fam, run(fam, RunConfig(mode=MODE_L, max_candidate_length=8))


class TestSerialization:
    def test_round_trip_identity(self, lsr_outcome):
        _, out = lsr_outcome
        text = serialize(out.certificate)
        again = serialize(deserialize(text))
        assert text == again

    def test_round_trip_preserves_fields(self, jsr_outcome):
        _, out = jsr_outcome
        cert = deserialize(serialize(out.certificate))
        assert cert.mode == out.certificate.mode
        assert cert.word == out.certificate.word
        assert cert.rho_per_step == out.certificate.rho_per_step
        assert len(cert.vertices) == len(out.certificate.vertices)
        for a, b in zip(cert.vertices, out.certificate.vertices):
            assert np.array_equal(a, b)

    def test_missing_field_named(self, jsr_outcome):
        _, out = jsr_outcome
        import json
        raw = json.loads(serialize(out.certificate))
        del raw["rho_per_step"]
        with pytest.raises(CertificateFormatError, match="rho_per_step"):
            deserialize(json.dumps(raw))

    def test_malformed_json(self):
        with pytest.raises(CertificateFormatError):
            deserialize("{not json")

    def test_bad_mode_rejected(self, jsr_outcome):
        _, out = jsr_outcome
        import json
        raw = json.loads(serialize(out.certificate))
        raw["mode"] = "Q"
        with pytest.raises(CertificateFormatError):
            deserialize(json.dumps(raw))


class TestFingerprint:
    def test_deterministic(self, jsr_outcome):
        fam, _ = jsr_outcome
        assert family_fingerprint(fam) == family_fingerprint(fam)

    def test_sensitive_to_entries(self, jsr_outcome):
        fam, _ = jsr_outcome
        M = fam.matrix(1).copy()
        M[0, 0] += 1e-6
        other = MatrixFamily([M, fam.matrix(2)])
        assert family_fingerprint(fam) != family_fingerprint(other)


class TestVerification:
    def test_valid_round_trip(self, jsr_outcome, lsr_outcome):
        for fam, out in (jsr_outcome, lsr_outcome):
            report = verify(fam, out.certificate)
            assert report.verdict, report.failures
            assert report.span_ok
            assert np.isfinite(report.worst_slack)

    def test_perturbed_vertex_invalid(self, jsr_outcome):
        fam, out = jsr_outcome
        cert = out.certificate
        vertices = list(cert.vertices)
        vertices[0] = vertices[0] * 1.1
        bad = Certificate(cert.version, cert.mode, cert.family_fingerprint,
                          cert.word, cert.rho_per_step, tuple(vertices),
                          cert.cone_H, cert.iterations, cert.tolerance)
        report = verify(fam, bad)
        assert not report.verdict
        assert report.failures

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_perturbed_vertex_invalid_antinorm(self, lsr_outcome, factor):
        # Mode L verification decides some images without an LP; moving a
        # vertex inwards or outwards must still be caught.
        fam, out = lsr_outcome
        cert = out.certificate
        vertices = list(cert.vertices)
        vertices[0] = vertices[0] * factor
        bad = Certificate(cert.version, cert.mode, cert.family_fingerprint,
                          cert.word, cert.rho_per_step, tuple(vertices),
                          cert.cone_H, cert.iterations, cert.tolerance)
        report = verify(fam, bad)
        assert not report.verdict
        assert report.failures

    def test_wrong_family_fingerprint_mismatch(self, jsr_outcome, lsr_outcome):
        fam_jsr, out = jsr_outcome
        fam_lsr, _ = lsr_outcome
        report = verify(fam_lsr, out.certificate)
        assert not report.verdict
        assert any("fingerprint" in f for f in report.failures)

    def test_wrong_rho_detected(self, jsr_outcome):
        fam, out = jsr_outcome
        cert = out.certificate
        bad = Certificate(cert.version, cert.mode, cert.family_fingerprint,
                          cert.word, cert.rho_per_step * 1.01, cert.vertices,
                          cert.cone_H, cert.iterations, cert.tolerance)
        report = verify(fam, bad)
        assert not report.verdict

    def test_single_matrix_eigenvector_certificate(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        fam = MatrixFamily([M])
        out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=1))
        assert out.status == "terminated"
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures

    def test_engine_independence(self, jsr_outcome):
        # Verification uses only the certificate text and the family.
        fam, out = jsr_outcome
        cert = deserialize(serialize(out.certificate))
        assert verify(fam, cert).verdict


class TestSpansCheck:
    def test_standard_basis(self):
        basis = list(np.eye(3))
        assert spans_check(basis, "linear")
        assert spans_check(basis, "positive")

    def test_positive_fails_on_zero_coordinate(self):
        vertices = [np.array([1.0, 2.0, 0.0]), np.array([3.0, 1.0, 0.0])]
        assert not spans_check(vertices, "positive")

    def test_linear_fails_on_rank_deficiency(self):
        v = np.array([1.0, 2.0, 3.0])
        assert not spans_check([v, 2 * v, -v], "linear")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            spans_check([np.ones(2)], "affine")


class TestSoundness:
    def test_signed_family_rejected_in_mode_P(self):
        # rho(A2) = 4, so no polytope can certify 2.0; mode P's order
        # ideal only holds under a nonnegative family.
        fam = MatrixFamily([np.diag([1.0, 2.0]),
                            np.array([[1.0, -3.0], [-3.0, 1.0]])])
        cert = Certificate(1, MODE_P, family_fingerprint(fam), (2,), 2.0,
                           (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                           None, 1, 1e-10)
        report = verify(fam, cert)
        assert not report.verdict
        assert any("nonnegative" in f for f in report.failures)

    @pytest.mark.parametrize("mode, second, vertices", [
        # JSR 3: under I each vertex is its own image, and under the second
        # matrix the images (-3, 0) and (0, -3) have no positive coordinate.
        (MODE_P, [[1.0, 2.0], [2.0, 1.0]], ([1.0, -2.0], [-2.0, 1.0])),
        # JSR 2: every image under the second matrix is exactly zero.
        (MODE_P, [[1.0, 1.0], [1.0, 1.0]], ([1.0, -1.0], [-1.0, 1.0])),
        (MODE_L, [[1.0, 1.0], [1.0, 1.0]], ([1.0, -1.0], [-1.0, 1.0])),
    ])
    def test_negative_vertices_rejected(self, mode, second, vertices):
        # Modes P and L live in the nonnegative orthant; a forged
        # certificate with signed vertices claims radius 1 and must be
        # refused without raising.
        fam = MatrixFamily([np.eye(2), np.array(second)])
        cert = Certificate(1, mode, family_fingerprint(fam), (1,), 1.0,
                           tuple(np.array(v) for v in vertices), None, 1, 1e-10)
        report = verify(fam, cert)
        assert not report.verdict
        assert any("nonnegative vertices" in f for f in report.failures)

    def test_large_tolerance_rejected(self, jsr_outcome):
        # With a tolerance of 1.0 the unit box would pass as invariant
        # under a family whose joint spectral radius is 1.535.
        fam, out = jsr_outcome
        bad = dataclasses.replace(
            out.certificate, word=(1,), rho_per_step=1.0,
            vertices=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            tolerance=1.0)
        report = verify(fam, bad)
        assert not report.verdict
        assert any("tolerance" in f for f in report.failures)

    @pytest.mark.parametrize("field, literal", [
        ("tolerance", "NaN"),
        ("tolerance", "Infinity"),
        ("tolerance", "-Infinity"),
        ("tolerance", "1e999"),
        ("tolerance", '"nan"'),
        ("rho_per_step", "1e999"),
        ("iterations", "1e999"),
        ("vertex", "-1e999"),
        ("vertex", '"inf"'),
    ])
    def test_non_finite_number_rejected(self, jsr_outcome, field, literal):
        _, out = jsr_outcome
        raw = json.loads(serialize(out.certificate))
        if field == "vertex":
            raw["vertices"][0][0] = "@"
        else:
            raw[field] = "@"
        text = json.dumps(raw).replace('"@"', literal)
        with pytest.raises(CertificateFormatError):
            deserialize(text)

    def test_tiny_vertices_rejected(self, jsr_outcome):
        # Every image of 1e-20 e1 and 1e-20 e2 is tiny but nonzero; it must
        # face its membership LP rather than pass as a zero image.  The
        # claim (word (1,), radius 1) lies below the JSR of 1.535.
        fam, out = jsr_outcome
        forged = dataclasses.replace(
            out.certificate, mode=MODE_R, word=(1,), rho_per_step=1.0,
            vertices=(np.array([1e-20, 0.0]), np.array([0.0, 1e-20])))
        report = verify(fam, forged)
        assert not report.verdict
        assert any("membership value" in f for f in report.failures)
