"""Unit tests for the trusted machine / QPF model and cost accounting."""

import numpy as np
import pytest

from repro.crypto import generate_key
from repro.edbms import (
    AttributeSpec,
    CostCounter,
    PlainTable,
    QPFRequest,
    QueryProcessingFunction,
    Schema,
    TrustedMachine,
    encrypt_table,
)
from repro.edbms.owner import DataOwner


@pytest.fixture
def setup():
    owner = DataOwner(key=generate_key(2))
    schema = Schema.of(AttributeSpec("X", 0, 100))
    plain = PlainTable("t", schema,
                       {"X": np.arange(0, 100, 5, dtype=np.int64)})
    enc = owner.encrypt_table(plain)
    counter = CostCounter()
    qpf = QueryProcessingFunction(TrustedMachine(owner.key, counter))
    return owner, plain, enc, qpf, counter


class TestQpfSemantics:
    def test_matches_plaintext(self, setup):
        owner, plain, enc, qpf, __ = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 30)
        for uid in plain.uids:
            expected = plain.value_of(int(uid), "X") < 30
            assert qpf(trapdoor, enc, int(uid)) is expected

    def test_all_operators(self, setup):
        owner, plain, enc, qpf, __ = setup
        for op in ("<", "<=", ">", ">="):
            trapdoor = owner.comparison_trapdoor("X", op, 50)
            labels = qpf.batch(trapdoor, enc, plain.uids)
            from repro.crypto import ComparisonPredicate
            predicate = ComparisonPredicate("X", op, 50)
            expected = [predicate.evaluate(plain.value_of(int(u), "X"))
                        for u in plain.uids]
            assert list(labels) == expected

    def test_between_trapdoor(self, setup):
        owner, plain, enc, qpf, __ = setup
        trapdoor = owner.between_trapdoor("X", 20, 40)
        labels = qpf.batch(trapdoor, enc, plain.uids)
        expected = [20 <= plain.value_of(int(u), "X") <= 40
                    for u in plain.uids]
        assert list(labels) == expected

    def test_batch_matches_singles(self, setup):
        owner, plain, enc, qpf, __ = setup
        trapdoor = owner.comparison_trapdoor("X", ">=", 45)
        batch = qpf.batch(trapdoor, enc, plain.uids)
        singles = [qpf(trapdoor, enc, int(u)) for u in plain.uids]
        assert list(batch) == singles


class TestQpfAccounting:
    def test_each_evaluation_costs_one_use(self, setup):
        owner, plain, enc, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 30)
        counter.reset()
        qpf(trapdoor, enc, 0)
        assert counter.qpf_uses == 1
        qpf.batch(trapdoor, enc, plain.uids)
        assert counter.qpf_uses == 1 + plain.num_rows

    def test_empty_batch_is_free(self, setup):
        owner, __, enc, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 30)
        counter.reset()
        result = qpf.batch(trapdoor, enc, np.zeros(0, dtype=np.uint64))
        assert result.size == 0
        assert counter.qpf_uses == 0

    def test_predicate_cache_does_not_change_accounting(self, setup):
        owner, plain, enc, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 30)
        counter.reset()
        qpf.batch(trapdoor, enc, plain.uids)
        qpf.batch(trapdoor, enc, plain.uids)
        assert counter.qpf_uses == 2 * plain.num_rows


class TestEvaluateMany:
    def test_evaluate_many_preserves_request_order(self, setup):
        owner, plain, enc, qpf, counter = setup
        below = owner.comparison_trapdoor("X", "<", 40)
        above = owner.comparison_trapdoor("X", ">", 70)
        rng = np.random.default_rng(7)
        requests = [
            QPFRequest(below if size % 2 else above, enc,
                       rng.choice(plain.uids, size=size, replace=False))
            for size in (1, 7, 12, 4, 3)]
        want = [qpf.batch(r.trapdoor, enc, r.uids) for r in requests]
        counter.reset()
        got = qpf.batch_many(requests)
        assert len(got) == len(want)
        for want_labels, got_labels in zip(want, got):
            assert np.array_equal(want_labels, got_labels)
        assert counter.qpf_uses == sum(r.uids.size for r in requests)
        assert counter.qpf_roundtrips == 1

    def test_empty_payload(self, setup):
        owner, __, enc, qpf, counter = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 30)
        empty = np.zeros(0, dtype=np.uint64)
        counter.reset()
        assert qpf.batch_many([]) == []
        labels = qpf.batch_many([QPFRequest(trapdoor, enc, empty)] * 2)
        assert [part.size for part in labels] == [0, 0]
        assert counter.qpf_uses == 0
        assert counter.qpf_roundtrips == 0
