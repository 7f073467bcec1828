"""Hypothesis: the R=1 multi-resource path is *bit-identical* to scalar AMF.

The v1 resource API promises that spelling a single-resource cluster as
vectors (``Site("s", {"cpu": c})``, ``Job(..., resources={"cpu": 1.0})``)
changes nothing: :func:`repro.core.amf.solve_amf` routes it through
:func:`repro.multiresource.engine.scalar_reduction` onto the very same
scalar flow machinery, so levels, allocation matrices and diagnostics
counters must match the scalar solve exactly — not approximately.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amf import AmfDiagnostics, amf_levels, solve_amf
from repro.model.cluster import Cluster
from repro.model.job import Job
from repro.model.site import Site

RES = "cpu"  # any non-"slots" name forces the multi-resource path


@st.composite
def instances(draw):
    """A small scalar instance plus its vector twin, float-for-float."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    caps = [draw(st.floats(0.5, 8.0, allow_nan=False)) for _ in range(m)]
    support = [
        [draw(st.booleans()) for _ in range(m)] for _ in range(n)
    ]
    for i in range(n):
        if not any(support[i]):
            support[i][draw(st.integers(0, m - 1))] = True
    demand = [
        [draw(st.one_of(st.none(), st.floats(0.1, 2.0, allow_nan=False))) for _ in range(m)]
        for _ in range(n)
    ]
    weights = [draw(st.floats(0.5, 3.0, allow_nan=False)) for _ in range(n)]
    floors = draw(st.booleans())

    def build(vector: bool) -> Cluster:
        if vector:
            sites = [Site(f"s{j}", {RES: caps[j]}) for j in range(m)]
        else:
            sites = [Site(f"s{j}", caps[j]) for j in range(m)]
        jobs = []
        for i in range(n):
            workload = {f"s{j}": 1.0 for j in range(m) if support[i][j]}
            dem = {
                f"s{j}": demand[i][j]
                for j in range(m)
                if support[i][j] and demand[i][j] is not None
            }
            jobs.append(
                Job(
                    f"j{i}",
                    workload,
                    demand=dem,
                    weight=weights[i],
                    resources={RES: 1.0} if vector else {},
                )
            )
        return Cluster(sites, jobs)

    scalar, vector = build(False), build(True)
    if floors:
        # feasible by construction: a fraction of the unsharded solve
        f = 0.5 * solve_amf(scalar).matrix.sum(axis=1)
    else:
        f = None
    return scalar, vector, f


@settings(max_examples=40, deadline=None)
@given(instances())
def test_levels_bit_identical(inst):
    scalar, vector, floors = inst
    assert vector.is_multiresource and not scalar.is_multiresource
    d_s, d_v = AmfDiagnostics(), AmfDiagnostics()
    ls = amf_levels(scalar, floors, d_s)
    lv = amf_levels(vector, floors, d_v)
    assert np.array_equal(ls, lv)
    assert d_s == d_v


@settings(max_examples=40, deadline=None)
@given(instances())
def test_allocation_bit_identical(inst):
    scalar, vector, floors = inst
    d_s, d_v = AmfDiagnostics(), AmfDiagnostics()
    a = solve_amf(scalar, floors, d_s)
    b = solve_amf(vector, floors, d_v)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.policy == b.policy
    assert d_s == d_v
    assert d_v.amrf_lps == 0  # routed, never solved as an LP


@settings(max_examples=20, deadline=None)
@given(instances())
def test_sharded_bit_identical(inst):
    scalar, vector, floors = inst
    a = solve_amf(scalar, floors, shards=True)
    b = solve_amf(vector, floors, shards=True)
    assert np.array_equal(a.matrix, b.matrix)


def test_weighted_levels_identical_nontrivial():
    """Deterministic spot check: weights actually differentiate levels."""
    scalar = Cluster(
        [Site("a", 6.0)],
        [Job("x", {"a": 10.0}, weight=2.0), Job("y", {"a": 10.0}, weight=1.0)],
    )
    vector = Cluster(
        [Site("a", {RES: 6.0})],
        [
            Job("x", {"a": 10.0}, weight=2.0, resources={RES: 1.0}),
            Job("y", {"a": 10.0}, weight=1.0, resources={RES: 1.0}),
        ],
    )
    ls, lv = amf_levels(scalar), amf_levels(vector)
    assert np.array_equal(ls, lv)
    assert ls[0] > ls[1]  # the weight did something
