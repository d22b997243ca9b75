"""Bit-identity tests for the vectorized prediction kernel.

The batch path (:mod:`repro.core.kernel`) promises results that are
*bit-identical* to the scalar reference, not merely close — so every
comparison here is ``==``, never ``pytest.approx``.  Rows go straight
to :meth:`PredictionKernel.predict_vectors`, the one vectorized entry
that placements, admission waves and the degraded override share.
"""

import random

import numpy as np
import pytest

from repro.core.curves import PropagationMatrix
from repro.core.kernel import SMALL_GROUP
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")

#: The paper's EC2 study samples node counts sparsely (Section 5.2).
EC2_COUNTS = [0, 1, 2, 4, 8, 16, 24, 32]


def random_model(rng, num_workloads=5, *, ec2=False):
    profiles = {}
    for i in range(num_workloads):
        name = f"w{i}"
        counts = EC2_COUNTS if ec2 else list(range(rng.randint(3, 6)))
        pressures = sorted(
            rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 5))
        )
        values = np.array(
            [
                [1.0 + rng.random() * p * (c + 1) / 8.0 for c in counts]
                for p in pressures
            ]
        )
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=PropagationMatrix(pressures, counts, values),
            policy_name=POLICIES[i % len(POLICIES)],
            bubble_score=rng.uniform(0.0, 9.0),
        )
    return InterferenceModel(profiles)


def random_vector(rng):
    length = rng.randint(1, 5)
    if rng.random() < 0.15:
        return [0.0] * length  # idle vector
    vector = [rng.uniform(0.0, 9.0) for _ in range(length)]
    if rng.random() < 0.2:
        vector = [p * 0.37 for p in vector]  # exercise fractional values
    return vector


def assert_kernel_matches_scalar(model, rows):
    """``predict_vectors`` over ``(workload, vector)`` rows equals
    ``predict`` row by row."""
    batch = model.prediction_kernel().predict_vectors(
        [workload for workload, _ in rows], [vector for _, vector in rows]
    )
    assert list(batch) == [model.predict(w, vector) for w, vector in rows]


class TestBatchIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_requests_match_scalar_bitwise(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, ec2=(seed % 2 == 0))
        workloads = sorted(model.workloads)
        rows = [
            (rng.choice(workloads), random_vector(rng)) for _ in range(40)
        ]
        assert_kernel_matches_scalar(model, rows)

    def test_small_and_large_batches_identical(self):
        # Groups below SMALL_GROUP rows run the scalar ops directly,
        # larger ones the array path; both must agree with the reference.
        rng = random.Random(99)
        model = random_model(rng, num_workloads=4)
        for workload in model.workloads:
            for size in (1, SMALL_GROUP - 1, SMALL_GROUP, SMALL_GROUP + 1, 80):
                rows = [(workload, random_vector(rng)) for _ in range(size)]
                assert_kernel_matches_scalar(model, rows)

    def test_float64_ndarray_fast_path(self):
        rng = random.Random(5)
        model = random_model(rng)
        vector = np.array([1.25, 0.0, 3.5], dtype=np.float64)
        assert model.predict("w0", vector) == model.predict(
            "w0", [float(p) for p in vector]
        )
        assert_kernel_matches_scalar(
            model, [("w0", vector), ("w1", vector)] * SMALL_GROUP
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_matches_scalar(self, policy):
        rng = random.Random(hash(policy) % 1000)
        counts = list(range(5))
        pressures = [2.0, 4.0, 8.0]
        values = np.array(
            [[1.0 + 0.05 * p * c for c in counts] for p in pressures]
        )
        model = InterferenceModel(
            {
                "app": InterferenceProfile(
                    workload="app",
                    matrix=PropagationMatrix(pressures, counts, values),
                    policy_name=policy,
                    bubble_score=2.0,
                )
            }
        )
        for size in (SMALL_GROUP - 1, SMALL_GROUP + 1, 25):
            rows = [
                ("app", [rng.uniform(0.0, 9.0)
                         for _ in range(rng.randint(1, 4))])
                for _ in range(size)
            ]
            assert_kernel_matches_scalar(model, rows)

    def test_ec2_sparse_count_axis(self):
        rng = random.Random(11)
        model = random_model(rng, ec2=True)
        # Fractional converted counts land between the sparse knots.
        rows = [
            ("w0", [rng.uniform(0.0, 9.0) for _ in range(3)])
            for _ in range(30)
        ]
        assert_kernel_matches_scalar(model, rows)

    def test_online_model_corrections_applied(self):
        rng = random.Random(21)
        base = random_model(rng)
        online = OnlineModel(base)
        online.observe("w0", predicted=1.2, measured=1.5)
        online.observe("w2", predicted=1.4, measured=1.1)
        requests = [
            ("w0", [2.0, 3.0]),
            ("w2", [1.0]),
            ("w1", [4.0, 0.5, 2.0]),
        ]
        scalar = [
            online.predict_heterogeneous(w, arg) for w, arg in requests
        ]
        assert list(online.predict_batch(requests)) == scalar


class TestSnapshotInvalidation:
    def test_add_profile_rebuilds_kernel(self):
        rng = random.Random(7)
        model = random_model(rng)
        first = model.prediction_kernel()
        assert model.prediction_kernel() is first  # cached snapshot
        counts = [0, 1, 2]
        matrix = PropagationMatrix(
            [2.0, 4.0], counts, np.array([[1.0, 1.1, 1.2], [1.0, 1.3, 1.5]])
        )
        model.add_profile(
            InterferenceProfile(
                workload="fresh",
                matrix=matrix,
                policy_name="N MAX",
                bubble_score=1.0,
            )
        )
        rebuilt = model.prediction_kernel()
        assert rebuilt is not first
        # The old snapshot does not know the new profile; the new one
        # predicts it like the scalar path.
        assert first.predict_vectors(["fresh"], [[1.0]]) is None
        assert_kernel_matches_scalar(model, [("fresh", [1.0])])

    def test_kernel_snapshot_is_frozen(self):
        # Mutating the live model's matrix after the snapshot must not
        # leak into the old kernel (matrices are deep-copied), on the
        # scalar small-group path or the array path.
        rng = random.Random(13)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        for size in (1, SMALL_GROUP):
            vectors = [[4.0, 4.0, 0.0]] * size
            before = kernel.predict_vectors(["w0"] * size, vectors)
            model.profile("w0").matrix.values[:] += 0.5
            after = kernel.predict_vectors(["w0"] * size, vectors)
            assert list(before) == list(after)
            assert model.predict("w0", vectors[0]) != after[0]


class TestErrorParity:
    """An anomalous row makes the kernel return ``None``, so the caller
    replays the scalar path, which raises."""

    def test_unknown_workload_raises_scalar_error(self):
        rng = random.Random(17)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        rows = (["w0", "nope"], [[1.0], [1.0, 2.0]])
        assert kernel.predict_vectors(*rows) is None
        with pytest.raises(ModelError, match="no interference profile"):
            model.predict("nope", [1.0, 2.0])

    def test_empty_vector_raises_scalar_error(self):
        rng = random.Random(19)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        assert kernel.predict_vectors(["w1", "w0"], [[1.0], []]) is None
        with pytest.raises(ModelError):
            model.predict("w0", [])

    def test_negative_pressure_raises_scalar_error(self):
        rng = random.Random(23)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        assert kernel.predict_vectors(["w0"], [[1.0, -2.0]]) is None
        with pytest.raises(ValueError, match="non-negative"):
            model.predict("w0", [1.0, -2.0])

    def test_nan_pressure_raises_scalar_error(self):
        rng = random.Random(29)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        assert kernel.predict_vectors(["w0"], [[float("nan")]]) is None
        with pytest.raises(ValueError, match="NaN"):
            model.predict("w0", [float("nan")])
