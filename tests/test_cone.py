import numpy as np
import pytest

from polyrad import (
    MODE_L,
    RunConfig,
    detect_near_boundary,
    enumerate_candidates,
    normalize_family,
    rays_from_index_sets,
    validate_cone,
)
from polyrad.cone import ConeExtension, negotiate_cone
from polyrad.datasets import overlap_free


@pytest.fixture(scope="module")
def scaled_overlap():
    fam = overlap_free()
    cand = enumerate_candidates(fam, 11, "min")
    return normalize_family(fam, cand.rho_per_step)


class TestDetection:
    def test_balanced_vertices_detect_nothing(self):
        V = [np.array([1.0, 2.0, 1.5]), np.array([0.5, 0.4, 0.6])]
        assert detect_near_boundary(V, 0.01) == []

    def test_single_collapsing_coordinate(self):
        V = [np.array([1.0, 1e-9, 1.0])]
        assert detect_near_boundary(V, 0.01) == [(2,)]

    def test_duplicate_sets_merged(self):
        V = [np.array([1.0, 1e-9, 1.0]), np.array([2.0, 1e-9, 2.0])]
        assert detect_near_boundary(V, 0.01) == [(2,)]

    def test_full_dimension_sets_skipped(self):
        # A zero vector collapses everywhere, which leaves no room for a ray.
        V = [np.array([0.0, 0.0])]
        assert detect_near_boundary(V, 0.01) == []


class TestRays:
    def test_ray_shape(self):
        ext = rays_from_index_sets([(2, 4)], 4, 0.25)
        assert np.allclose(ext.rays[0], [1.0, -0.25, 1.0, -0.25])
        assert ext.index_sets == ((2, 4),)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rays_from_index_sets([(0,)], 3, 0.25)
        with pytest.raises(ValueError):
            rays_from_index_sets([(4,)], 3, 0.25)


class TestValidation:
    def test_empty_extension_vacuously_ok(self, scaled_overlap):
        ext = ConeExtension((), ())
        ok, failure = validate_cone(scaled_overlap, ext)
        assert ok and failure is None

    def test_gross_epsilon_fails(self, scaled_overlap):
        ext = rays_from_index_sets([(5, 10, 17, 18), (7, 8, 15, 20)], 20,
                                   10.0)
        ok, failure = validate_cone(scaled_overlap, ext)
        assert not ok
        assert failure is not None

    def test_workable_sets_validate(self, scaled_overlap):
        # Dropping coordinate 8 from the second detected set yields a cone
        # every generator maps strictly into itself.
        ext = rays_from_index_sets([(5, 10, 17, 18), (7, 15, 20)], 20,
                                   0.25)
        ok, failure = validate_cone(scaled_overlap, ext)
        assert ok, failure


class TestNegotiation:
    def test_negotiated_cone_validates(self, scaled_overlap):
        # The full detected collection: negotiation must drop the ray the
        # generators cannot cover and keep a validating subset.
        sets = [(5, 10, 17, 18), (7, 8, 15, 20), (7, 15, 20), (5, 10, 17)]
        ext = negotiate_cone(scaled_overlap, sets)
        assert ext is not None
        ok, failure = validate_cone(scaled_overlap, ext)
        assert ok, failure
        # The negotiated rays come from the detected sets.
        for s in ext.index_sets:
            assert s in [tuple(sorted(x)) for x in sets]

    def test_unworkable_sets_give_none(self):
        # A coordinate swap maps every candidate ray's negative entry onto
        # a coordinate where the cone demands a positive margin, at any
        # epsilon, so negotiation must give up.
        from polyrad import MatrixFamily
        fam = MatrixFamily([np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert negotiate_cone(fam, [(2,)]) is None


class TestEngineActivation:
    def test_overlap_lsr_records_detected_sets(self):
        from polyrad import run
        out = run(overlap_free(),
                  RunConfig(mode=MODE_L, max_candidate_length=11,
                            max_iterations=14))
        assert out.cone_index_sets is not None
        # The two collapsing-vertex signatures show up in detection.
        sets = set(out.cone_index_sets)
        assert (5, 10, 17, 18) in sets or (5, 10, 17) in sets
