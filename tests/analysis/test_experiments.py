"""The paper's shape claims and their numbers, one gate per experiment, plus smoke tests.

``CLAIMS`` maps every id in :data:`repro.analysis.experiments.EXPERIMENTS`
to the runs that gate it.  A run is the experiment's kwargs and one check
of its ``data``; the check fails if the claimed winner flips or the gap
it claims closes.  A claim asserted at two scales keeps one run per scale.
Each run executes once: assertions on the same kwargs share one check.
The abstract's margins at their own scales (F1's growing gap, F3's CT
add-on, T2's SI repair) stay in ``tests/integration/test_paper_claims.py``.

The same runs pin the numbers.  ``claims_golden.json`` holds, per id, every
table of its runs as rows (``"parent"``), written by :func:`capture`, minus
the columns and rows the output names as ``timed``.  ``test_claim[<ID>]``
compares each cell with it: floats at rel 1e-6 / abs 1e-9, strings and
integer counts exactly.  A cell moved on purpose gets an ``"expected"``
value and a ``"why"``, both keyed ``"<table>/<row>/<column>"``; when every
moved number is right, re-capture instead::

    PYTHONPATH=src:. python -c "from tests.analysis.test_experiments import capture; capture()"

``python -m repro.cli experiment <ids|all> --scale 0.3`` prints the same
tables; this module is where their claims are enforced.
"""

import json
import math
from pathlib import Path
import re

import numpy as np
import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    _axis,
    run_f1_balance_vs_skew,
    run_f4_jct_distribution,
    run_f8_scalability,
    run_t1_properties,
    run_t2_sharing_incentive,
)
from repro.analysis.sweep import finite_mean as _finite_mean
from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER
from tests.analysis.sweeps import metric_at


@pytest.fixture(autouse=True)
def restore_obs():
    """X9 boots an ``AllocationService``, which switches the process-global
    registry and tracer on; put both back so the modules after this one do
    not run traced."""
    reg_on, trc_on = REGISTRY.enabled, TRACER.enabled
    yield
    REGISTRY.enabled, TRACER.enabled = reg_on, trc_on


# ----------------------------------------------------------------------
# The claims, keyed by experiment id
# ----------------------------------------------------------------------


def _at_least(metric, winner="amf", loser="psmf", slack=1e-9):
    """``winner`` scores at least ``loser`` on ``metric`` at every sweep point."""

    def check(data):
        sw = data["sweep"]
        for x in sw.x_values:
            assert metric_at(sw, f"{winner}/{metric}", x) >= metric_at(sw, f"{loser}/{metric}", x) - slack, x

    return check


def _f3_amf_drains_no_worse_at_high_skew(data):
    sw = data["sweep"]
    assert metric_at(sw, "amf/mean_jct", 2.0) <= metric_at(sw, "psmf/mean_jct", 2.0) * 1.15


def _f4_deciles_non_decreasing(data):
    for name, deciles in data["series"].items():
        assert (np.diff(np.asarray(deciles)) >= -1e-9).all(), name


def _f7_jct_grows_with_load(data):
    sw = data["sweep"]
    for p in ("psmf", "amf"):
        assert metric_at(sw, f"{p}/mean_jct", 0.9) >= metric_at(sw, f"{p}/mean_jct", 0.4) * 0.8


def _f8_cutting_planes_beat_bisection(data):
    rows = data["rows"]
    for row in rows:
        assert row["cutting_solves"] <= row["bisect_solves"]
    assert rows[-1]["cutting_ms"] <= rows[-1]["bisect_ms"]


def _t1_property_table(data):
    """AMF is Pareto, max-min fair, envy-free and survives the SP probe, but
    not always sharing-incentive; AMF-E always is; PSMF is not max-min fair."""
    counters, total = data["counters"], data["total"]
    for prop in ("pareto", "max_min", "envy_free", "sp"):
        assert counters["amf"][prop] == total, prop
    assert counters["amf"]["si"] < total
    assert counters["amf-e"]["si"] == total
    assert counters["psmf"]["max_min"] < total


def _t2_enhanced_amf_repairs_sharing_incentive(data):
    """Plain AMF violates SI on hub-and-spoke; AMF-E never does."""
    hub, zipf = data["hub"], data["zipf"]
    assert hub["amf"]["violated"] > 0
    assert hub["amf-e"]["violated"] == 0
    assert zipf["amf-e"]["violated"] == 0


def _t3_ct_stretch_ablation(data):
    """The full stretch optimizer is at least as good as its single-round
    variant on max stretch, neither starves an edge, and the CT add-on does
    not slow the simulated batch against the raw max-flow split."""
    static, sim = data["static"], data["sim"]
    assert _finite_mean(static["stretch/max_stretch"]) <= _finite_mean(static["stretch1/max_stretch"]) * 1.01 + 1e-9
    assert _finite_mean(static["stretch/starved"]) == 0.0
    assert _finite_mean(static["stretch1/starved"]) == 0.0
    assert _finite_mean(sim["amf-ct-quick/mean_jct"]) <= _finite_mean(sim["amf/mean_jct"]) * 1.05


def _t4_amf_and_psmf_are_monotone(data):
    for name in ("amf", "psmf"):
        assert data["data"][name]["population_breaches"] == 0, name
        assert data["data"][name]["resource_breaches"] == 0, name


def _x2_psmf_is_cheapest_and_all_interactive(data):
    stats = data["stats"]
    assert stats["psmf"]["mean_ms"] <= stats["amf"]["mean_ms"]
    for name, s in stats.items():
        assert s["mean_ms"] < 1000.0, name


def _x3_aggregates_track_weights(data):
    sw = data["sweep"]
    assert metric_at(sw, "measured_ratio", 1.0) == pytest.approx(1.0, rel=0.15)
    assert 2.0 < metric_at(sw, "measured_ratio", 4.0) <= 4.5


def _x4_amf_pays_less_for_locality(data):
    sw = data["sweep"]
    for theta in sw.x_values:
        assert metric_at(sw, "amf/min_level", theta) <= metric_at(sw, "oblivious/min_level", theta) * 1.001
        assert metric_at(sw, "amf/locality_price", theta) <= metric_at(sw, "psmf/locality_price", theta) + 1e-9
    assert metric_at(sw, "psmf/locality_price", 2.0) > metric_at(sw, "psmf/locality_price", 0.0)


def _x5_churn_is_bounded(data):
    for name, vals in data["acc"].items():
        assert 0.0 <= float(np.mean(vals)) <= 2.0, name


def _x6_discrete_converges_and_keeps_the_order(data):
    sw = data["sweep"]
    coarse, fine = metric_at(sw, "amf/gap_pct", 0.2), metric_at(sw, "amf/gap_pct", 5.0)
    assert fine <= coarse + 1e-9
    assert fine < 10.0
    for g in sw.x_values:
        assert metric_at(sw, "amf/discrete_jct", g) <= metric_at(sw, "psmf/discrete_jct", g) * 1.08


def _x7_amrf_dominates_per_site_drf(data):
    _at_least("jain", "amrf", "psdrf")(data)
    _at_least("min_share", "amrf", "psdrf")(data)


def _x8_churn_keeps_every_policy_sane(data):
    sw = data["sweep"]
    for name in ("psmf", "amf"):
        for jct in sw.series([f"{name}/mean_jct"])[f"{name}/mean_jct"]:
            assert np.isfinite(jct) and jct > 0.0, name
        for jain in sw.series([f"{name}/time_avg_jain"])[f"{name}/time_avg_jain"]:
            assert 0.0 <= jain <= 1.0 + 1e-9, name
        for lost in sw.series([f"{name}/work_lost"])[f"{name}/work_lost"]:
            assert lost >= 0.0, name


def _x9_warm_service_equals_cold_and_pays(data):
    """Warm == cold on every snapshot, no fallback, the memo answers the
    reads, batching coalesces, and the warm start saves feasibility probes."""
    agg = data["aggregate"]
    assert agg["max_abs_deviation"] <= agg["tolerance"]
    assert agg["fallbacks"] == 0.0
    assert agg["cache_hit_rate"] > 0.5
    assert agg["solves"] < agg["events"]
    assert agg["warm_feas_per_solve"] < agg["cold_feas_per_solve"]


THREE_POLICIES = ("psmf", "amf", "amf-ct-quick")

CLAIMS = {
    "F1": ((dict(scale=0.5, seeds=(0, 1), thetas=(0.0, 0.5, 1.0, 1.5, 2.0)), _at_least("jain")),),
    "F2": ((dict(scale=0.5, seeds=(0, 1), thetas=(0.0, 1.0, 2.0)), _at_least("min_max")),),
    # Each (theta, seed) point and each policy simulates on its own, so the
    # check runs only the point and policies it reads: the same numbers as
    # the full sweep, bit for bit, at a fraction of the cost.
    "F3": (
        (dict(scale=0.3, seeds=(0, 1), thetas=(2.0,), policies=("psmf", "amf")), _f3_amf_drains_no_worse_at_high_skew),
    ),
    "F4": ((dict(scale=0.3, theta=1.5, policies=THREE_POLICIES), _f4_deciles_non_decreasing),),
    "F5": ((dict(scale=0.4, seeds=(0, 1), n_jobs_values=(20, 60, 160)), _at_least("jain")),),
    "F6": ((dict(scale=0.4, seeds=(0, 1), n_sites_values=(4, 8, 16)), _at_least("jain")),),
    "F7": (
        (dict(scale=0.25, seeds=(0,), loads=(0.4, 0.7, 0.9), policies=("psmf", "amf")), _f7_jct_grows_with_load),
    ),
    "F8": ((dict(scale=0.4, sizes=((50, 10), (100, 20), (200, 20))), _f8_cutting_planes_beat_bisection),),
    "T1": ((dict(scale=0.8, seeds=(0, 1, 2), sp_attempts=2), _t1_property_table),),
    "T2": ((dict(scale=0.6, seeds=tuple(range(8))), _t2_enhanced_amf_repairs_sharing_incentive),),
    "T3": ((dict(scale=0.35, seeds=(0, 1)), _t3_ct_stretch_ablation),),
    "T4": ((dict(scale=1.0, seeds=(0, 1, 2, 3)), _t4_amf_and_psmf_are_monotone),),
    "X1": ((dict(scale=0.3, seeds=(0,), thetas=(0.0, 1.5)), _at_least("time_avg_jain", slack=0.02)),),
    "X2": ((dict(scale=0.4, policies=THREE_POLICIES), _x2_psmf_is_cheapest_and_all_interactive),),
    "X3": ((dict(scale=0.4, seeds=(0, 1), weight_ratios=(1.0, 4.0)), _x3_aggregates_track_weights),),
    "X4": ((dict(scale=0.4, seeds=(0, 1), thetas=(0.0, 1.0, 2.0)), _x4_amf_pays_less_for_locality),),
    "X5": ((dict(scale=0.4, seeds=(0,), policies=("psmf", "amf")), _x5_churn_is_bounded),),
    "X6": (
        (dict(scale=0.5, seeds=(0,), granularities=(0.2, 1.0, 5.0)), _x6_discrete_converges_and_keeps_the_order),
    ),
    "X7": ((dict(scale=1.0, seeds=(0, 1), thetas=(0.0, 2.0)), _x7_amrf_dominates_per_site_drf),),
    "X8": (
        (
            dict(scale=0.3, seeds=(0,), mtbf_factors=(4.0, 1.0), policies=("psmf", "amf")),
            _x8_churn_keeps_every_policy_sane,
        ),
    ),
    "X9": ((dict(scale=0.5, seeds=(0,), queries_per_batch=4), _x9_warm_service_equals_cold_and_pays),),
}


def test_every_experiment_has_one_claim():
    assert set(CLAIMS) == set(EXPERIMENTS)


@pytest.mark.parametrize("eid", sorted(CLAIMS))
def test_claim(eid, golden):
    tables = []
    for kwargs, check in CLAIMS[eid]:
        out = EXPERIMENTS[eid](**kwargs)
        assert out.experiment == eid
        check(out.data)
        assert _timing_names(out) == out.timed
        tables += _untimed(out)
    assert _moved(tables, golden[eid]) == []


# ----------------------------------------------------------------------
# The golden: every claim run's untimed cells
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("claims_golden.json")

#: A header or row name that reads as a wall-clock time; its output must
#: declare it in ``timed``, and the golden may not hold it.
TIMING_NAME = re.compile(r"(^|[ _])ms$|^speedup$|_per_sec$")


def _timing_names(out) -> set[str]:
    names = {name for table in out.tables for name in table.header}
    names |= {str(row[0]) for table in out.tables for row in table.rows}
    return {name for name in names if TIMING_NAME.search(name)}


def _cell(value):
    """One table cell as JSON: integers and finite floats stay numbers, the rest are strings."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else str(float(value))
    return str(value)


def _untimed(out) -> list[dict]:
    """``out``'s tables as JSON, without the columns and rows ``out.timed``
    names; a table's ``note`` is kept when it has one."""
    tables = []
    for table in out.tables:
        keep = [c for c, name in enumerate(table.header) if name not in out.timed]
        rows = [row for row in table.rows if str(row[0]) not in out.timed]
        tables.append(
            {
                "title": table.title,
                "header": [table.header[c] for c in keep],
                "rows": [[_cell(row[c]) for c in keep] for row in rows],
                **({"note": table.note} if table.note else {}),
            }
        )
    return tables


def _same(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)
    return type(got) is type(want) and got == want


def _moved(tables: list[dict], entry: dict) -> list[str]:
    """Every cell and note of ``tables`` that differs from the golden
    ``entry``: a cell from its ``"expected"`` value where the entry lists
    one, else from its ``"parent"`` value."""
    parent, expected = entry["parent"], entry.get("expected", {})

    def shape(ts):
        return [(t["title"], t["header"], len(t["rows"])) for t in ts]

    if shape(tables) != shape(parent):
        return [f"tables {shape(tables)} != golden {shape(parent)}"]
    moved = []
    for t, (got, want) in enumerate(zip(tables, parent)):
        if got.get("note") != want.get("note"):
            moved.append(f"{want['title']} note: {got.get('note')!r} != {want.get('note')!r}")
        for r, (got_row, want_row) in enumerate(zip(got["rows"], want["rows"])):
            for c, (cell, golden_cell) in enumerate(zip(got_row, want_row)):
                golden_cell = expected.get(f"{t}/{r}/{c}", golden_cell)
                if not _same(cell, golden_cell):
                    moved.append(f"{want['title']} [{want_row[0]}, {want['header'][c]}]: {cell!r} != {golden_cell!r}")
    return moved


def capture(path: Path = GOLDEN) -> None:
    """Write every claim run's untimed tables as the ``"parent"`` side of the golden."""
    claims = {
        eid: {"parent": [table for kwargs, _ in CLAIMS[eid] for table in _untimed(EXPERIMENTS[eid](**kwargs))]}
        for eid in sorted(CLAIMS)
    }
    path.write_text(json.dumps({"claims": claims}, indent=1, ensure_ascii=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())["claims"]


class TestGolden:
    def test_pins_exactly_the_claims(self, golden):
        assert set(golden) == set(CLAIMS)
        for eid, entry in golden.items():
            assert entry["parent"] and all(table["rows"] for table in entry["parent"]), eid

    def test_every_expected_cell_moved_and_says_why(self, golden):
        for eid, entry in golden.items():
            expected, why = entry.get("expected", {}), entry.get("why", {})
            assert set(expected) == set(why), eid
            for key, value in expected.items():
                t, r, c = (int(k) for k in key.split("/"))
                assert not _same(value, entry["parent"][t]["rows"][r][c]), f"{eid} {key}: stale expected value"
                assert why[key].strip(), f"{eid} {key}"

    def test_stores_no_timing_cell(self, golden):
        for eid, entry in golden.items():
            for table in entry["parent"]:
                names = [*table["header"], *(str(row[0]) for row in table["rows"])]
                assert not [name for name in names if TIMING_NAME.search(name)], eid


class TestGoldenCompare:
    """The comparison itself, on a synthetic entry (no experiment runs)."""

    ENTRY = {"parent": [{"title": "T", "header": ["policy", "level", "count", "held"], "rows": [["amf", 1.0, 3, "10/10"]]}]}

    @staticmethod
    def _tables(*rows):
        return [{"title": "T", "header": ["policy", "level", "count", "held"], "rows": [list(row) for row in rows]}]

    def test_equal_within_tolerance(self):
        assert _moved(self._tables(["amf", 1.0 + 5e-7, 3, "10/10"]), self.ENTRY) == []
        assert _moved(self._tables(["amf", 1.0, 3, "10/10"]), {"parent": json.loads(json.dumps(self.ENTRY["parent"]))}) == []

    @pytest.mark.parametrize(
        "row",
        [["amf", 1.00001, 3, "10/10"], ["amf", 1.0, 4, "10/10"], ["amf", 1.0, 3.0, "10/10"], ["amf", 1.0, 3, "9/10"]],
        ids=["float", "count", "count_as_float", "string"],
    )
    def test_every_cell_kind_is_caught(self, row):
        assert len(_moved(self._tables(row), self.ENTRY)) == 1

    def test_a_lost_row_is_caught(self):
        assert _moved(self._tables(), self.ENTRY)

    def test_a_changed_note_is_caught(self):
        noted = {"parent": [{**self.ENTRY["parent"][0], "note": "served by: amf=3"}]}
        (table,) = self._tables(["amf", 1.0, 3, "10/10"])
        assert _moved([{**table, "note": "served by: amf=3"}], noted) == []
        assert len(_moved([{**table, "note": "served by: amf=2, psmf=1"}], noted)) == 1
        assert len(_moved([table], noted)) == 1

    def test_expected_replaces_parent(self):
        entry = {**self.ENTRY, "expected": {"0/0/1": 2.0}, "why": {"0/0/1": "moved on purpose"}}
        assert _moved(self._tables(["amf", 2.0, 3, "10/10"]), entry) == []
        assert len(_moved(self._tables(["amf", 1.0, 3, "10/10"]), entry)) == 1

    def test_untimed_drops_declared_columns_and_rows(self):
        from repro.analysis.experiments import ExperimentOutput
        from repro.analysis.tables import Table

        table = Table("T", ["metric", "value", "wall ms"], [["solves", 4, 1.5], ["warm_ms", 2.5, 0.1]])
        out = ExperimentOutput("X", tables=[table], timed=frozenset({"wall ms", "warm_ms"}))
        assert _timing_names(out) == out.timed
        assert _untimed(out) == [{"title": "T", "header": ["metric", "value"], "rows": [["solves", 4]]}]


class TestScaledAxes:
    def test_no_sweep_point_repeats(self):
        """At these scales two axis values used to round onto one point."""
        for eid, scale in (("F6", 0.3), ("F5", 0.05)):
            xs = EXPERIMENTS[eid](scale=scale).data["sweep"].x_values
            assert len(xs) == len(set(xs)), (eid, xs)

    def test_axis_keeps_the_first_of_repeats(self):
        assert _axis((4, 8, 16, 32, 64), 0.3) == [2, 5, 10, 19]
        assert _axis(((50, 10), (100, 20), (200, 20)), (0.01, 0.2)) == [(2, 2), (2, 4)]


# ----------------------------------------------------------------------
# Every experiment runs end to end at minimal scale
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_ids_present(self):
        assert set(EXPERIMENTS) == {
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
            "T1", "T2", "T3", "T4", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9",
        }


class TestSmoke:
    @pytest.mark.parametrize("eid", ["F1", "F2", "F5", "F6"])
    def test_balance_experiments_run(self, eid):
        out = EXPERIMENTS[eid](scale=0.12, seeds=(0,), thetas=(0.0, 1.5)) if eid in ("F1", "F2") else EXPERIMENTS[eid](scale=0.12, seeds=(0,))
        assert out.experiment == eid
        assert "theta" in out.text or "n_" in out.text

    def test_f3_runs(self):
        out = EXPERIMENTS["F3"](scale=0.1, seeds=(0,), thetas=(0.0, 1.5), policies=("psmf", "amf"))
        assert "F3" in out.text

    def test_f4_runs(self):
        out = run_f4_jct_distribution(scale=0.1, policies=("psmf", "amf"))
        assert len(out.data["deciles"]) == 10

    def test_f7_runs(self):
        out = EXPERIMENTS["F7"](scale=0.08, seeds=(0,), loads=(0.5,), policies=("psmf", "amf"))
        assert "load" in out.text

    def test_f8_runs(self):
        out = run_f8_scalability(scale=0.1, sizes=((20, 4), (40, 4)))
        assert len(out.data["rows"]) == 2
        assert all(r["cutting_ms"] > 0 for r in out.data["rows"])

    def test_t1_runs(self):
        out = run_t1_properties(scale=0.5, seeds=(0, 1), sp_attempts=1)
        # two seeds x two families per seed
        assert out.data["total"] == 4
        # AMF is max-min fair and Pareto-efficient on every instance
        assert out.data["counters"]["amf"]["max_min"] == 4
        assert out.data["counters"]["amf"]["pareto"] == 4
        # ... but fails sharing incentive on the hub-and-spoke half
        assert out.data["counters"]["amf"]["si"] < 4

    def test_t2_runs(self):
        out = run_t2_sharing_incentive(scale=0.3, seeds=(0, 1, 2))
        assert out.data["hub"]["amf"]["violated"] > 0
        assert out.data["hub"]["amf-e"]["violated"] == 0
        assert out.data["zipf"]["amf-e"]["violated"] == 0

    def test_t3_runs(self):
        out = EXPERIMENTS["T3"](scale=0.1, seeds=(0,))
        assert "split mode" in out.text and "T3b" in out.text

    def test_x8_fallback_note_is_the_same_with_workers(self, monkeypatch):
        # the chain's counts ride in each point's metrics, so forked sweep
        # workers report them too (a tally kept in this process read 0)
        kwargs = dict(scale=0.15, seeds=(0, 1), mtbf_factors=(2.0, 1.0), policies=("psmf", "amf"))
        serial = EXPERIMENTS["X8"](**kwargs)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        forked = EXPERIMENTS["X8"](**kwargs)
        assert forked.tables[0].note == serial.tables[0].note
        assert forked.data["resilience"] == serial.data["resilience"]
        assert all(agg["solves"] > 0 for agg in serial.data["resilience"].values())

    def test_x8_runs(self):
        out = EXPERIMENTS["X8"](scale=0.15, seeds=(0,), mtbf_factors=(2.0,), policies=("psmf", "amf"))
        sw = out.data["sweep"]
        for name in ("psmf", "amf"):
            jain = metric_at(sw, f"{name}/time_avg_jain", 2.0)
            assert 0.0 <= jain <= 1.0 + 1e-9
            assert metric_at(sw, f"{name}/mean_jct", 2.0) > 0.0


class TestShapes:
    def test_f1_amf_dominates_at_high_skew(self):
        out = run_f1_balance_vs_skew(scale=0.3, seeds=(0, 1), thetas=(1.5,))
        sw = out.data["sweep"]
        assert metric_at(sw, "amf/jain", 1.5) >= metric_at(sw, "psmf/jain", 1.5)


class TestHelpers:
    def test_scaled_minimum(self):
        from repro.analysis.experiments import _scaled

        assert _scaled(100, 1.0) == 100
        assert _scaled(100, 0.5) == 50
        assert _scaled(100, 0.001) == 2
        assert _scaled(10, 0.1, minimum=5) == 5

    def test_experiment_output_str(self):
        from repro.analysis.experiments import ExperimentOutput

        out = ExperimentOutput("F1", "body", {"k": 1})
        assert str(out) == "body"
        assert out.data["k"] == 1

    def test_t4_smoke(self):
        from repro.analysis.experiments import run_t4_monotonicity

        out = run_t4_monotonicity(scale=0.5, seeds=(0,), policies=("psmf", "amf"))
        assert out.data["data"]["amf"]["population_breaches"] == 0

    def test_x4_smoke(self):
        from repro.analysis.experiments import run_x4_price_of_locality

        out = run_x4_price_of_locality(scale=0.15, seeds=(0,), thetas=(1.0,))
        assert "locality" in out.text

    def test_x6_smoke(self):
        from repro.analysis.experiments import run_x6_discrete_convergence

        out = run_x6_discrete_convergence(scale=0.2, seeds=(0,), granularities=(1.0,))
        assert "granularity" in out.text

    def test_x7_smoke(self):
        from repro.analysis.experiments import run_x7_multiresource

        out = run_x7_multiresource(scale=0.4, seeds=(0,), thetas=(1.0,))
        assert "amrf/jain" in out.text
