"""Group flows by frequency-domain similarity.

Each flow is summarized by the element-wise mean of the magnitudes of
its first K spectral frames; groups come from average-linkage
agglomerative clustering on the Euclidean distances between these
signatures, cut at a distance threshold and capped at the largest
clusters.  Everything is deterministic given the input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist

from .errors import FlowTooShort
from .spectral import ChunkConfig, transform
from .trace_io import FlowTrace

DEFAULT_SIGNATURE_FRAMES = 20


@dataclass
class FlowSignature:
    vector: np.ndarray


@dataclass
class FlowGroup:
    group_id: int
    members: list          # the member flows, in input order
    indices: list          # their positions in cluster's input
    vectors: np.ndarray    # their signatures, one row each
    centroid: np.ndarray


def signature(flow: FlowTrace, chunk_cfg: ChunkConfig,
              frame_count: int = DEFAULT_SIGNATURE_FRAMES) -> FlowSignature:
    """Mean absolute spectral frame over the flow's first frames of activity.

    Leading idle samples are skipped (aligned to the chunk grid) so the
    signature reflects burst structure, not how long the flow sat quiet.
    Only the samples the first frame_count windows cover are framed; those
    windows equal the first rows of the whole flow's transform.
    """
    if flow.samples.size == 0:
        raise FlowTooShort("flow yields no spectral frame")
    hop = chunk_cfg.hop_samples
    active = np.nonzero(flow.samples > 0)[0]
    start = int(active[0]) // hop * hop if active.size else 0
    covered = flow.samples[start:start + (frame_count - 1) * hop + chunk_cfg.chunk_samples]
    frames = transform(covered, chunk_cfg)
    return FlowSignature(vector=np.abs(frames[:frame_count]).mean(axis=0))


def cluster(flows, max_groups: int, distance_threshold: float,
            chunk_cfg: ChunkConfig,
            frame_count: int = DEFAULT_SIGNATURE_FRAMES):
    """Partition flows into spectral groups.

    Returns (groups, leftovers): up to max_groups clusters with >= 2
    members ordered by decreasing size (ties broken by lowest member
    index), plus every flow left out (singleton clusters and clusters
    beyond the cap), so groups + leftovers cover the input exactly.
    """
    flows = list(flows)
    if not flows:
        return [], []
    sigs = np.vstack([signature(f, chunk_cfg, frame_count).vector for f in flows])
    if len(flows) == 1:
        labels = np.array([1])
    else:
        z = linkage(pdist(sigs), method="average")
        labels = fcluster(z, t=distance_threshold, criterion="distance")
    clusters: dict[int, list] = {}
    for i, label in enumerate(labels):
        clusters.setdefault(int(label), []).append(i)
    ordered = sorted(clusters.values(), key=lambda idxs: (-len(idxs), idxs[0]))
    groups, leftovers = [], []
    for idxs in ordered:
        if len(idxs) >= 2 and len(groups) < max_groups:
            vectors = sigs[idxs]
            groups.append(FlowGroup(group_id=len(groups) + 1,
                                    members=[flows[i] for i in idxs], indices=idxs,
                                    vectors=vectors, centroid=vectors.mean(axis=0)))
        else:
            leftovers.extend(flows[i] for i in idxs)
    return groups, leftovers


def assignment_rows(flow_count: int, groups):
    """(flow_index, group_id, distance_to_centroid) rows for the CSV interface.

    groups are cluster's over flow_count flows; each member's distance
    comes from the signature cluster computed.  Flows outside every
    retained group carry group_id -1 and distance NaN.
    """
    rows = [(i, -1, float("nan")) for i in range(flow_count)]
    for group in groups:
        for i, vector in zip(group.indices, group.vectors):
            rows[i] = (i, group.group_id, float(np.linalg.norm(vector - group.centroid)))
    return rows
