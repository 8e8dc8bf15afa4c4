import numpy as np
import pytest

from flowcast.clustering import assignment_rows, cluster, signature
from flowcast.errors import FlowTooShort
from flowcast.spectral import ChunkConfig, transform
from flowcast.synth import BurstTemplate, generate_group
from flowcast.trace_io import FlowKey, FlowTrace, Protocol

CFG = ChunkConfig(sample_interval_s=0.01, chunk_interval_s=0.05, chunk_length_s=1.0)


def _flow(samples, i=0):
    key = FlowKey(f"10.0.0.{i}", 5000 + i, "10.0.1.1", 80, Protocol.TCP)
    return FlowTrace(key, 0.0, 0.01, samples)


def _tone(freq_hz, n=500, amp=1.0):
    t = np.arange(n) * 0.01
    return amp * (1.0 + np.cos(2 * np.pi * freq_hz * t))


class TestSignature:
    def test_identical_flows_identical_signatures(self):
        a = signature(_flow(_tone(5.0), 0), CFG)
        b = signature(_flow(_tone(5.0), 1), CFG)
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_amplitude_scaling_scales_signature(self):
        a = signature(_flow(_tone(5.0, amp=1.0)), CFG)
        b = signature(_flow(_tone(5.0, amp=2.0)), CFG)
        np.testing.assert_allclose(b.vector, 2.0 * a.vector, rtol=1e-9)

    def test_signature_dimension_is_frame_dim(self):
        # interleaved re/im of the 100-sample chunk's 51 coefficients
        sig = signature(_flow(_tone(5.0)), CFG)
        assert sig.vector.size == 2 * (CFG.chunk_samples // 2 + 1) == 102

    def test_distinct_frequencies_far_apart(self):
        # oracle: direct distance computation on generated flows
        rng = np.random.default_rng(0)
        base5 = signature(_flow(_tone(5.0)), CFG).vector
        base20 = signature(_flow(_tone(20.0)), CFG).vector
        cross = np.linalg.norm(base5 - base20)
        intra = []
        for i in range(4):
            noisy = _tone(5.0) + 0.01 * rng.normal(size=500)
            intra.append(np.linalg.norm(
                signature(_flow(np.abs(noisy)), CFG).vector - base5))
        assert cross >= 10 * max(intra)

    def test_too_short(self):
        with pytest.raises(FlowTooShort):
            signature(_flow(np.array([])), CFG)

    @pytest.mark.parametrize("n", [1000, 100, 40])
    def test_equals_mean_of_whole_flow_transform(self, n):
        # oracle: the first frame_count rows of the whole active flow's
        # frames; 100 and 40 samples give 18 and 6 windows, fewer than 20,
        # so the zero-padded tail is averaged too
        samples = np.abs(np.random.default_rng(n).normal(size=n))
        samples[:12] = 0.0
        start = 10  # the first active sample, 12, on the 5-sample grid
        for frame_count in (20, 4):
            expected = np.abs(transform(samples[start:], CFG)[:frame_count]).mean(axis=0)
            got = signature(_flow(samples), CFG, frame_count).vector
            np.testing.assert_array_equal(got, expected)


class TestCluster:
    def test_two_distinct_groups(self):
        rng = np.random.default_rng(1)
        flows = []
        for i in range(3):
            flows.append(_flow(np.abs(_tone(5.0) + 0.01 * rng.normal(size=500)), i))
        for i in range(3, 6):
            flows.append(_flow(np.abs(_tone(20.0) + 0.01 * rng.normal(size=500)), i))
        groups, leftovers = cluster(flows, max_groups=10, distance_threshold=5.0,
                                    chunk_cfg=CFG)
        assert len(groups) == 2 and not leftovers
        sizes = sorted(len(g.members) for g in groups)
        assert sizes == [3, 3]
        members = {id(m) for g in groups for m in g.members}
        first_group_of = {id(f): None for f in flows}
        for g in groups:
            for m in g.members:
                first_group_of[id(m)] = g.group_id
        assert len({first_group_of[id(f)] for f in flows[:3]}) == 1
        assert len({first_group_of[id(f)] for f in flows[3:]}) == 1

    def test_identical_flows_single_group(self):
        flows = [_flow(_tone(5.0), i) for i in range(5)]
        groups, leftovers = cluster(flows, 10, 1e-6, CFG)
        assert len(groups) == 1 and len(groups[0].members) == 5 and not leftovers

    def test_max_groups_cap(self):
        rng = np.random.default_rng(2)
        flows = []
        synth_groups = 6
        for g in range(synth_groups):
            template = BurstTemplate(rise_duration_s=0.3, body_duration_s=0.4,
                                     peak_kbit=50.0 * (g + 1),
                                     impulse_period_s=0.03 + 0.01 * (g % 3),
                                     impulse_jitter=0.05, amplitude_jitter=0.05,
                                     inter_burst_gap_s=1.0)
            flows.extend(generate_group(template, 3, 5.0, 0.01, seed=g, group_id=g))
        groups, leftovers = cluster(flows, max_groups=4, distance_threshold=100.0,
                                    chunk_cfg=CFG)
        assert len(groups) <= 4
        assert len(leftovers) + sum(len(g.members) for g in groups) == len(flows)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        flows = [_flow(np.abs(rng.normal(size=300)) + 0.1, i) for i in range(7)]
        groups, leftovers = cluster(flows, 3, 2.0, CFG)
        seen = [id(m) for g in groups for m in g.members] + [id(f) for f in leftovers]
        assert sorted(seen) == sorted(id(f) for f in flows)

    def test_empty_input(self):
        groups, leftovers = cluster([], 5, 1.0, CFG)
        assert groups == [] and leftovers == []

    def test_scale_invariance_of_partition(self):
        rng = np.random.default_rng(4)
        flows, scaled = [], []
        for i in range(6):
            base = np.abs(_tone(5.0 if i < 3 else 20.0) + 0.02 * rng.normal(size=500))
            flows.append(_flow(base, i))
            scaled.append(_flow(3.0 * base, i))
        g1, _ = cluster(flows, 10, 4.0, CFG)
        g2, _ = cluster(scaled, 10, 12.0, CFG)
        sets1 = sorted(sorted(f.key.src_port for f in g.members) for g in g1)
        sets2 = sorted(sorted(f.key.src_port for f in g.members) for g in g2)
        assert sets1 == sets2


def test_assignment_rows_cover_all_flows():
    rng = np.random.default_rng(5)
    flows = [_flow(np.abs(_tone(5.0) + 0.01 * rng.normal(size=500)), i)
             for i in range(4)]
    flows.append(_flow(np.abs(_tone(33.0)), 99))
    groups, leftovers = cluster(flows, 10, 4.0, CFG)
    rows = assignment_rows(len(flows), groups)
    assert len(rows) == 5
    assigned = [r for r in rows if r[1] != -1]
    assert len(assigned) == sum(len(g.members) for g in groups)
    for _, _, dist in assigned:
        assert dist >= 0.0


def test_assignment_distances_match_recomputed_signatures():
    # oracle: each member's signature computed again, its distance to the
    # group's mean signature
    rng = np.random.default_rng(6)
    flows = [_flow(np.abs(_tone(5.0 if i < 3 else 20.0) + 0.01 * rng.normal(size=500)), i)
             for i in range(6)]
    flows.append(_flow(np.abs(_tone(33.0)), 99))
    groups, leftovers = cluster(flows, 10, 4.0, CFG)
    assert len(groups) == 2 and leftovers == [flows[6]]
    rows = assignment_rows(len(flows), groups)
    for group in groups:
        vectors = [signature(flows[i], CFG).vector for i in group.indices]
        centroid = np.mean(vectors, axis=0)
        assert all(flows[i] is m for i, m in zip(group.indices, group.members))
        for i, vector in zip(group.indices, vectors):
            assert rows[i][:2] == (i, group.group_id)
            assert rows[i][2] == pytest.approx(np.linalg.norm(vector - centroid),
                                               rel=1e-12)
    assert rows[6][1] == -1 and np.isnan(rows[6][2])
