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
from polyrad.membership import MODES, one_vertex_bound


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

    @pytest.mark.parametrize("gap", [5e-7, 1e-9])
    def test_close_distinct_top_eigenvalues(self, gap):
        # The word (1,) has two distinct, well-conditioned top eigenvalues 1
        # and 1 - gap.  The run records rho = 1 and verify recomputes it by
        # the same rule, so the certificate is accepted.
        Q = np.array([[0.6, -0.8], [0.8, 0.6]])
        A = Q @ np.diag([1.0, 1.0 - gap]) @ Q.T
        B = Q @ np.array([[0.0, 0.5], [0.5, 0.0]]) @ Q.T
        fam = MatrixFamily((A, B))
        out = run(fam, RunConfig(mode=MODE_R, max_candidate_length=4))
        assert out.status == "terminated"
        assert out.candidate.rho_per_step == pytest.approx(1.0, rel=1e-14)
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures
        assert report.rho_recomputed == out.candidate.rho_per_step

    def test_single_matrix_eigenvector_certificate(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        fam = MatrixFamily([M])
        out = run(fam, RunConfig(mode=MODE_P, max_candidate_length=1))
        assert out.status == "terminated"
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures

    def test_mode_P_lp_only_for_images_no_vertex_covers(self, jsr_outcome,
                                                         monkeypatch):
        # An image that one vertex covers up to the tolerance passes without
        # an LP; here 5 of the 6 images are covered, and one needs its LP.
        import polyrad.certificates as certificates
        solve = certificates.norm_membership_P
        calls = []
        monkeypatch.setattr(certificates, "norm_membership_P",
                            lambda z, V: calls.append(z) or solve(z, V))
        fam, out = jsr_outcome
        report = verify(fam, out.certificate)
        assert report.verdict, report.failures
        assert len(out.certificate.vertices) * fam.size == 6
        assert len(calls) == 1

    def test_engine_independence(self, jsr_outcome):
        # Verification uses only the certificate text and the family.
        fam, out = jsr_outcome
        cert = deserialize(serialize(out.certificate))
        assert verify(fam, cert).verdict


def doubly_stochastic_certificate(mode, vertices):
    """A certificate for the one-matrix family ``[[0.6, 0.4], [0.4, 0.6]]``
    (radius 1, eigenvalues 1 and 0.2) and the given vertices."""
    fam = MatrixFamily([np.array([[0.6, 0.4], [0.4, 0.6]])])
    cert = Certificate(1, mode, family_fingerprint(fam), (1,), 1.0,
                       tuple(np.array(v) for v in vertices), None, 1, 1e-10)
    return fam, cert


# Per mode, two vertices whose images need their LPs and a third vertex that
# dominates the first in the body's direction (below it in P, above it in
# L); its image lies inside the first vertex's image scaled by its LP
# value, and no vertex settles it alone.
ONE_RULE = {
    MODE_P: ([1.0, 0.25], [0.25, 1.0], [0.9, 0.1]),
    MODE_L: ([1.0, 0.0], [0.0, 1.0], [1.2, 0.1]),
}


class TestOneRule:
    """Modes P and L settle an image without an LP when one point already
    known to lie in the body does: a vertex, or an earlier image scaled by
    its LP value."""

    @pytest.mark.parametrize("mode", [MODE_P, MODE_L])
    def test_earlier_image_settles_a_later_one(self, mode):
        fam, cert = doubly_stochastic_certificate(mode, ONE_RULE[mode])
        Vm = np.array(cert.vertices)
        z = fam.matrix(1) @ Vm[2]
        t, _ = one_vertex_bound(MODES[mode], z, Vm)
        assert MODES[mode].sign * (1.0 - t) > 1e-3
        report = verify(fam, cert)
        assert report.verdict, report.failures
        assert (report.lps_solved, report.lps_skipped) == (2, 1)

    @pytest.mark.parametrize("mode", [MODE_P, MODE_L])
    def test_dominating_vertex_needs_no_lp(self, mode, monkeypatch):
        # Listed first, the dominating vertex is still visited last; in
        # list order its image would take an LP and leave the other two
        # images unsettled by the point it adds, three LPs in all.
        import polyrad.certificates as certificates
        calls = []
        for name in ("norm_membership_P", "antinorm_membership_ext"):
            solve = getattr(certificates, name)
            monkeypatch.setattr(
                certificates, name,
                lambda z, *args, solve=solve: calls.append(z) or solve(z, *args))
        first, second, dominating = ONE_RULE[mode]
        fam, cert = doubly_stochastic_certificate(mode, (dominating, first, second))
        report = verify(fam, cert)
        assert report.verdict, report.failures
        assert (report.lps_solved, report.lps_skipped) == (2, 1)
        A = fam.matrix(1)
        assert np.array_equal(calls, [A @ first, A @ second])

    @pytest.mark.parametrize("mode, factor", [(MODE_P, 1.3), (MODE_L, 0.7)])
    def test_failure_names_the_vertex_by_its_place(self, mode, factor):
        # Moved out of the body, the first vertex is visited first, and its
        # image fails under its own number.
        first, second, dominating = ONE_RULE[mode]
        fam, cert = doubly_stochastic_certificate(
            mode, (factor * np.array(dominating), first, second))
        report = verify(fam, cert)
        assert not report.verdict
        assert report.failures[0].startswith("vertex 1, matrix 1:")

    def test_zero_images_and_mode_R_counts(self, jsr_outcome):
        # Mode R settles an image without an LP when a support of an earlier
        # LP puts it inside; a zero image counts as neither kind.
        fam, out = jsr_outcome
        cert = dataclasses.replace(out.certificate, mode=MODE_R)
        report = verify(fam, cert)
        assert (report.lps_solved, report.lps_skipped) == (4, 2)
        # N maps the first vertex to zero: 3 of the 4 images count.
        N = MatrixFamily([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        nil = Certificate(1, MODE_P, family_fingerprint(N), (2,), 1.0,
                          (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                          None, 1, 1e-10)
        report = verify(N, nil)
        assert report.verdict, report.failures
        assert report.lps_solved + report.lps_skipped == 3

    def test_mode_R_vertex_halved_is_rejected(self, jsr_outcome):
        # The genuine mode-R certificate passes with some images settled by
        # a cached support; halving any one vertex moves an image outside,
        # and no support may settle it.
        fam, _ = jsr_outcome
        cert = run(fam, RunConfig(mode=MODE_R, max_candidate_length=4)).certificate
        report = verify(fam, cert)
        assert report.verdict, report.failures
        assert report.lps_skipped > 0
        for i in range(len(cert.vertices)):
            vertices = list(cert.vertices)
            vertices[i] = 0.5 * vertices[i]
            forged = dataclasses.replace(cert, vertices=tuple(vertices))
            report = verify(fam, forged)
            assert not report.verdict
            assert any("membership value" in f for f in report.failures)


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


def _refusal(case, jsr_outcome, lsr_outcome):
    """A family and a valid certificate changed so that ``verify`` refuses
    it for the reason ``case`` names."""
    fam, out = jsr_outcome
    cert = out.certificate
    if case == "version":
        return fam, dataclasses.replace(cert, version=cert.version + 1)
    if case == "mode":
        return fam, dataclasses.replace(cert, mode="Q")
    if case == "dimension":
        return fam, dataclasses.replace(
            cert, vertices=cert.vertices + (np.ones(3),))
    if case == "index":
        return fam, dataclasses.replace(cert, word=cert.word + (3,))
    if case == "primitive":
        return fam, dataclasses.replace(cert, word=cert.word * 2)
    if case == "zero radius":
        # The word (1,) names the nilpotent generator.
        nilpotent = MatrixFamily([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        return nilpotent, dataclasses.replace(
            cert, family_fingerprint=family_fingerprint(nilpotent), word=(1,))
    if case == "cone":
        # The ray (1, -1) is not kept strictly inside by either generator.
        fam, out = lsr_outcome
        return fam, dataclasses.replace(out.certificate,
                                        cone_H=(np.array([1.0, -1.0]),))
    if case == "cone dimension":
        # A 1-entry ray on the 2-dimensional pair.
        fam, out = lsr_outcome
        return fam, dataclasses.replace(out.certificate, cone_H=(np.array([1.0]),))
    # case == "span": diag(1, 0.5) keeps (1, 0) invariant, but no vertex is
    # positive in the second coordinate.
    diagonal = MatrixFamily([np.diag([1.0, 0.5])])
    return diagonal, dataclasses.replace(
        cert, family_fingerprint=family_fingerprint(diagonal), word=(1,),
        rho_per_step=1.0, vertices=(np.array([1.0, 0.0]),))


class TestRefusals:
    @pytest.mark.parametrize("case, reason", [
        ("version", "unsupported certificate version"),
        ("mode", "unknown mode"),
        ("dimension", "vertex dimension mismatch"),
        ("index", "word index out of range"),
        ("primitive", "word is not primitive"),
        ("zero radius", "candidate product has zero spectral radius"),
        ("cone", "cone ray 1 not strictly invariant"),
        ("cone dimension", "cone ray dimension mismatch"),
        ("span", "vertices fail the positive span requirement"),
    ])
    def test_refusal_names_its_reason(self, jsr_outcome, lsr_outcome, case,
                                      reason):
        fam, cert = _refusal(case, jsr_outcome, lsr_outcome)
        report = verify(fam, cert)
        assert not report.verdict
        assert any(f.startswith(reason) for f in report.failures), report.failures


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

    @pytest.mark.parametrize("field, value", [
        ("word", 3),
        ("word", ["a"]),
        ("word", [1.5]),
        ("word", [True]),
        ("vertices", [["x", 1]]),
        ("vertices", 5),
        ("vertices", [[True, 1.0]]),
        ("version", "v"),
        ("version", True),
        ("iterations", "many"),
        ("cone_H", 7),
        ("cone_H", [[None, 1.0]]),
        ("mode", []),
        ("rho_per_step", "1.5"),
        ("tolerance", [1e-10]),
        ("family_fingerprint", 5),
    ])
    def test_wrong_typed_field_rejected(self, jsr_outcome, field, value):
        _, out = jsr_outcome
        raw = json.loads(serialize(out.certificate))
        raw[field] = value
        with pytest.raises(CertificateFormatError):
            deserialize(json.dumps(raw))

    @pytest.mark.parametrize("field", ["vertex", "iterations", "rho_per_step"])
    def test_integer_too_large_for_a_float_rejected(self, jsr_outcome, field):
        _, out = jsr_outcome
        raw = json.loads(serialize(out.certificate))
        if field == "vertex":
            raw["vertices"][0][0] = "@"
        else:
            raw[field] = "@"
        text = json.dumps(raw).replace('"@"', "1" + "0" * 400)
        with pytest.raises(CertificateFormatError, match="non-finite"):
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
