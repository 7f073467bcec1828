"""The level graph stops at the sink's depth, and no flow moves for it.

``ArrayFlowGraph`` ends each phase's search at the layer that labels the
sink and unlabels that layer's other nodes.  A node at or beyond the
sink's depth can never reach it in the level graph, so the blocking flow
pushes the same paths in the same order as on the full level graph
(``tests/flownet/reference_levels.py``): the residual capacities must come
out byte-equal, and the residual reach (the minimal min cut's source side)
equal, on hypothesis digraphs and job-site graphs, cold and warm-started.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flownet.arrayflow import ArrayFlowGraph
from tests.flownet.reference_levels import ReferenceFlowGraph
from tests.flownet.test_arrayflow import _bipartite_edges, bipartite_instances, digraphs


def _same_solves(n_nodes, tails, heads, caps, s, t, raises):
    """Solve cold, then after each raise of forward edges ``raises`` (lists
    of ``(edge, delta)``) warm, on both kernels; byte-equal residuals and
    equal reach after every solve."""
    shipped = ArrayFlowGraph(n_nodes, tails, heads, caps)
    reference = ReferenceFlowGraph(n_nodes, tails, heads, caps)
    for step in [[], *raises]:
        for e, delta in step:
            shipped.increase_capacity(2 * e, delta)
            reference.increase_capacity(2 * e, delta)
        value = shipped.max_flow(s, t)
        assert value == reference.max_flow(s, t)
        assert shipped.cap.tobytes() == reference.cap.tobytes()
        assert np.array_equal(shipped.reachable_from(s), reference.reachable_from(s))


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(graph=digraphs(), data=st.data())
def test_digraphs(graph, data):
    n_nodes, tails, heads, caps = graph
    edge = st.integers(0, max(len(tails) - 1, 0))
    raises = data.draw(st.lists(st.lists(st.tuples(edge, st.floats(0.0, 3.0)), max_size=3), max_size=3))
    _same_solves(n_nodes, tails, heads, caps, 0, n_nodes - 1, raises if tails else [])


@SETTINGS
@given(instance=bipartite_instances(), deltas=st.lists(st.floats(0.0, 2.0), max_size=4))
def test_job_site_graphs(instance, deltas):
    """The parametric oracle's shape, warm-started the way a rising λ
    raises every source arc."""
    site_caps, dcaps, targets = instance
    n_nodes, tails, heads, caps, s, t = _bipartite_edges(site_caps, dcaps, targets)
    raises = [[(i, d) for i in range(len(dcaps))] for d in deltas]
    _same_solves(n_nodes, tails, heads, caps, s, t, raises)


def test_a_phase_labels_no_node_beyond_the_sink():
    # s -> a -> t, and s -> b -> c -> d: c sits at t's depth, d beyond
    graph = ArrayFlowGraph(6, [0, 1, 0, 3, 4], [1, 2, 3, 4, 5], [1.0, 1.0, 1.0, 1.0, 1.0])
    assert graph._bfs_levels(0, 2, graph.cap.tolist()) == [0, 1, 2, 1, -1, -1]
    reference = ReferenceFlowGraph(6, [0, 1, 0, 3, 4], [1, 2, 3, 4, 5], [1.0, 1.0, 1.0, 1.0, 1.0])
    assert reference._bfs_levels(0, 2, reference.cap.tolist()) == [0, 1, 2, 1, 2, 3]
