"""Sum all-reduces finish one read-only result per distinct output.

Every worker of a ring, torus, tree, halving-doubling or star all-reduce
ends holding the same gathered segments, so the collective concatenates
(and, for the mean, scales) them once and hands every rank that array.
Sign sums travel in the narrowest integer dtype that holds ``-M..M`` and
widen to ``int64`` only in the result.
"""

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.allreduce.codec import SignSumCodec, allreduce_sum
from repro.comm.cluster import Cluster

CASES = {
    "ring": ({}, 5),
    "torus": ({"rows": 4, "cols": 4}, 16),
    "tree": ({"arity": 2}, 7),
    "halving_doubling": ({}, 8),
    "star": ({}, 5),
}


def _signs(rng, num, dimension=101):
    return [
        np.where(rng.standard_normal(dimension) >= 0, 1.0, -1.0)
        for _ in range(num)
    ]


@pytest.mark.parametrize("kind", ["mean", "signsum"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_read_only_array_for_all_ranks(name, kind, rng):
    kwargs, num = CASES[name]
    entry = get_topology(name)
    cluster = Cluster(entry.build(num, **kwargs))
    vectors = _signs(rng, num)
    if kind == "mean":
        out = entry.mean_allreduce(cluster, vectors)
        assert np.allclose(out[0], np.mean(vectors, axis=0), atol=1e-6)
    else:
        out = entry.signsum_allreduce(cluster, vectors)
        assert out[0].dtype == np.int64
        assert np.array_equal(out[0], np.sum(vectors, axis=0))
    assert len(out) == num
    assert all(result is out[0] for result in out)
    assert not out[0].flags.writeable
    with pytest.raises(ValueError):
        out[-1][0] = 0
    cluster.assert_drained()


class _Recording(Cluster):
    """Records the dtype of every array payload sent."""

    def __init__(self, topology):
        super().__init__(topology)
        self.dtypes = set()

    def send(self, src, dst, payload, tag=""):
        for item in payload if isinstance(payload, list) else [payload]:
            self.dtypes.add(np.asarray(getattr(item, "value", item)).dtype)
        return super().send(src, dst, payload, tag)


class TestSignSumDtype:
    @pytest.mark.parametrize(
        "num, dtype",
        [(2, np.int8), (16, np.int8), (127, np.int8), (128, np.int16),
         (32767, np.int16), (32768, np.int32), (2**31, np.int64)],
    )
    def test_narrowest_dtype_holding_plus_minus_m(self, num, dtype):
        assert SignSumCodec().partial_dtype(num) == np.dtype(dtype)

    @pytest.mark.parametrize(
        "name, kwargs, num, wire",
        [
            ("torus", {"rows": 4, "cols": 4}, 16, np.int8),
            ("star", {}, 16, np.int8),
            ("tree", {"arity": 3}, 130, np.int16),
        ],
    )
    def test_partial_sums_travel_narrow_and_finish_int64(
        self, name, kwargs, num, wire, rng
    ):
        entry = get_topology(name)
        cluster = _Recording(entry.build(num, **kwargs))
        vectors = _signs(rng, num, dimension=37)
        out = entry.signsum_allreduce(cluster, vectors)
        # The star's server sums uploads with np.sum, which widens.
        assert np.dtype(wire) in cluster.dtypes
        assert out[0].dtype == np.int64
        assert np.array_equal(out[0], np.sum(vectors, axis=0))

    @pytest.mark.parametrize("elias_coded", [False, True])
    def test_bytes_and_sums_match_int64_partial_sums(self, elias_coded, rng):
        class Wide(SignSumCodec):
            def partial_dtype(self, num_workers):
                return np.dtype(np.int64)

        num = 130
        vectors = _signs(rng, num, dimension=37)
        runs = []
        for codec in (SignSumCodec(elias_coded), Wide(elias_coded)):
            cluster = Cluster(get_topology("tree").build(num, arity=3))
            out = allreduce_sum(cluster, vectors, codec)
            links = {key: link.bytes_sent for key, link in cluster.links.items()}
            runs.append((out[0].tobytes(), cluster.total_bytes, links))
        assert runs[0] == runs[1]
