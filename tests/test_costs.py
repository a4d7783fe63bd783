"""Unit tests for cost counters and the cost model."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.edbms import CostCounter, CostModel


class TestCostCounter:
    def test_reset(self):
        counter = CostCounter(qpf_uses=5, comparisons=3)
        counter.reset()
        assert counter.qpf_uses == 0
        assert counter.comparisons == 0

    def test_snapshot_is_independent(self):
        counter = CostCounter(qpf_uses=5)
        snap = counter.snapshot()
        counter.qpf_uses += 10
        assert snap.qpf_uses == 5
        assert counter.qpf_uses == 15

    def test_diff(self):
        counter = CostCounter(qpf_uses=10, sse_lookups=2)
        before = counter.snapshot()
        counter.qpf_uses += 7
        counter.tuples_retrieved += 3
        spent = counter.diff(before)
        assert spent.qpf_uses == 7
        assert spent.tuples_retrieved == 3
        assert spent.sse_lookups == 0

    def test_as_dict(self):
        counter = CostCounter(qpf_uses=3)
        d = counter.as_dict()
        assert d["qpf_uses"] == 3
        assert set(d) == {"qpf_uses", "qpf_roundtrips", "sse_lookups",
                          "tuples_retrieved", "comparisons",
                          "index_updates", "mpc_messages",
                          "predicate_cache_hits", "predicate_cache_misses",
                          "column_cache_hits", "column_cache_misses",
                          "column_cache_evictions",
                          "wal_records", "wal_bytes", "wal_fsyncs",
                          "checkpoints_written",
                          "recovery_records_replayed",
                          "recovery_torn_bytes",
                          "recovery_orphan_repairs"}


class TestMeasureScopes:
    def test_nested_scopes_with_equal_tallies_unwind_in_order(self):
        # Two zero tallies compare equal; closing the inner scope must
        # still leave the outer one open to receive later charges.
        counter = CostCounter()
        with counter.measure() as outer:
            with counter.measure() as inner:
                pass
            counter.charge(qpf_uses=1)
        assert (outer.qpf_uses, inner.qpf_uses) == (1, 0)


class TestChargeIsTheOnlyWriter:
    def test_no_module_writes_a_counter_field_directly(self):
        # A ``counter.field += n`` outside ``charge()`` skips the lock
        # and every open ``measure()`` scope, so per-query tallies
        # silently miss that cost.  Scan the package source for any
        # assignment to a CostCounter field name outside costs.py.
        names = {f.name for f in dataclasses.fields(CostCounter)}
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "costs.py" and path.parent.name == "edbms":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute) \
                                and sub.attr in names:
                            offenders.append(
                                f"{path.relative_to(root)}:{node.lineno}: "
                                f"{ast.unparse(node)}")
        assert not offenders, "\n".join(offenders)


class TestCostModel:
    def test_simulated_seconds(self):
        model = CostModel(qpf_cost=1.0, sse_lookup_cost=0.5,
                          tuple_retrieval_cost=0.0, comparison_cost=0.0,
                          index_update_cost=0.0)
        counter = CostCounter(qpf_uses=3, sse_lookups=4)
        assert model.simulated_seconds(counter) == pytest.approx(5.0)

    def test_millis(self):
        model = CostModel(qpf_cost=1e-3, sse_lookup_cost=0,
                          tuple_retrieval_cost=0, comparison_cost=0,
                          index_update_cost=0)
        counter = CostCounter(qpf_uses=2)
        assert model.simulated_millis(counter) == pytest.approx(2.0)

    def test_qpf_dominates_defaults(self):
        """The model must preserve the paper's premise: QPF >> comparison."""
        model = CostModel()
        assert model.qpf_cost > 1000 * model.comparison_cost
        assert model.qpf_cost > model.sse_lookup_cost


class TestCalibration:
    def test_calibrated_model_keeps_the_premise(self):
        from repro.edbms.costs import calibrate_cost_model
        model = calibrate_cost_model(sample_size=2_000, seed=1)
        assert model.qpf_cost > 0
        assert model.comparison_cost > 0
        # The defining asymmetry survives on any real machine.
        assert model.qpf_cost >= 10 * model.comparison_cost

    def test_sample_size_validated(self):
        from repro.edbms.costs import calibrate_cost_model
        import pytest as pytest_module
        with pytest_module.raises(ValueError):
            calibrate_cost_model(sample_size=10)
