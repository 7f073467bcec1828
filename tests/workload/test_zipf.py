"""Tests for the bounded Zipf laws."""

import numpy as np
import pytest

from repro.workload.generator import WorkloadSpec, generate_jobs
from repro.workload.zipf import zipf_probabilities


class TestProbabilities:
    def test_sums_to_one(self):
        for theta in (0.0, 0.7, 1.5, 3.0):
            assert zipf_probabilities(10, theta).sum() == pytest.approx(1.0)

    def test_theta_zero_is_uniform(self):
        p = zipf_probabilities(5, 0.0)
        assert np.allclose(p, 0.2)

    def test_monotone_decreasing(self):
        p = zipf_probabilities(8, 1.2)
        assert (np.diff(p) < 0).all()

    def test_higher_theta_more_concentrated(self):
        p1 = zipf_probabilities(10, 0.5)
        p2 = zipf_probabilities(10, 2.0)
        assert p2[0] > p1[0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(5, -0.1)

    def test_single_rank(self):
        assert zipf_probabilities(1, 2.0).tolist() == [1.0]


class TestSampling:
    """The generator draws each job's sites from the law (one site a job here)."""

    @staticmethod
    def _sites(n_sites: int, theta: float, n_jobs: int) -> np.ndarray:
        spec = WorkloadSpec(n_jobs=n_jobs, n_sites=n_sites, theta=theta, site_spread=1)
        jobs = generate_jobs(spec, np.random.default_rng(0))
        return np.array([int(site[1:]) for job in jobs for site in job.workload])

    def test_sample_range(self):
        s = self._sites(6, 1.0, 500)
        assert s.min() >= 0 and s.max() < 6

    def test_sample_skew_matches_law(self):
        counts = np.bincount(self._sites(5, 2.0, 5000), minlength=5)
        assert counts[0] > counts[4] * 3
