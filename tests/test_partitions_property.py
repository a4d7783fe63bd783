"""Property tests for the POP chain's vectorised uid->ordinal machinery.

Two invariants introduced by the vectorised grid pipeline are pinned
with hypothesis:

* the dense ``uid -> partition ordinal`` lookup
  (:meth:`PartialOrderPartitions.ordinals_of_uids`) stays consistent
  with actual :class:`Partition` membership across arbitrary interleaved
  split / merge / insert / delete sequences — the incremental slot
  bookkeeping must never drift from the chain; and
* :class:`ChainView` snapshots are *set-stable*: while the trusted
  machine is reading a window's payloads on a reader thread, concurrent
  splits of the live chain never change which uids any snapshot slice
  contains.
"""

import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench import Testbed
from repro.core.partitions import PartialOrderPartitions
from repro.edbms.costs import CostCounter
from repro.edbms.qpf import CrossingLatency, QPFRequest, TrustedMachine
from repro.workloads import uniform_table

from conftest import plain_lookup


def _assert_ordinals_consistent(pop: PartialOrderPartitions) -> None:
    """The vectorised lookup equals membership-derived ordinals."""
    uids, want = [], []
    for position, partition in enumerate(pop):
        members = partition.uids
        uids.append(members)
        want.append(np.full(members.size, position, dtype=np.int64))
    all_uids = np.concatenate(uids)
    got = pop.ordinals_of_uids(all_uids)
    assert np.array_equal(got, np.concatenate(want))
    pop.check_invariants()


_OPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1_000_000),
              st.integers(0, 1_000_000)),
    max_size=40,
)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_ordinal_array_tracks_membership(ops):
    pop = PartialOrderPartitions(np.arange(16, dtype=np.uint64))
    next_uid = 16
    for code, a, b in ops:
        k = pop.num_partitions
        if code == 0:  # split a partition with >= 2 members
            splittable = [i for i, size in enumerate(pop.sizes())
                          if size >= 2]
            if not splittable:
                continue
            index = splittable[a % len(splittable)]
            members = pop[index].uids.copy()
            cut = 1 + b % (members.size - 1)
            pop.split(index, members[:cut], members[cut:])
        elif code == 1:  # merge an adjacent run
            if k < 2:
                continue
            first = a % (k - 1)
            last = min(k - 1, first + 1 + b % 3)
            pop.merge_range(first, last)
        elif code == 2:  # insert a brand-new uid
            pop.insert(next_uid, a % k)
            next_uid += 1
        else:  # delete a tracked uid (keep the chain non-empty)
            if pop.num_tuples <= 1:
                continue
            tracked = np.sort(np.concatenate(
                [p.uids for p in pop]))
            pop.delete(int(tracked[a % tracked.size]))
        _assert_ordinals_consistent(pop)
    # Untracked uids must be rejected, not silently mis-mapped.
    try:
        pop.ordinals_of_uids(np.asarray([next_uid + 7], dtype=np.uint64))
    except KeyError:
        pass
    else:
        raise AssertionError("untracked uid produced an ordinal")


@given(plan=st.lists(st.tuples(st.integers(0, 1_000_000),
                               st.integers(0, 1_000_000)),
                     min_size=1, max_size=8),
       threshold=st.integers(5_000, 95_000))
@settings(max_examples=10, deadline=None)
def test_chain_view_set_stable_under_concurrent_reads(plan, threshold):
    table = uniform_table("t", 240, ["X"], domain=(1, 100_000), seed=41)
    bed = Testbed(table, ["X"], seed=41)
    bed.warm_up("X", 6, seed=42)
    pop = bed.prkb["X"].pop
    view = pop.freeze()

    slices = [view.range_uids(i, i) for i in range(view.num_partitions)]
    slices.append(view.prefix_uids(view.num_partitions))
    fingerprints = [frozenset(int(u) for u in s) for s in slices]

    # Payload copies model the batching layer's materialised payloads
    # (np.unique); the enclave never reads the live buffer directly.
    trapdoor = bed.owner.comparison_trapdoor("X", "<", threshold)
    requests = [QPFRequest(trapdoor, bed.table, s.copy()) for s in slices]
    # The emulated crossing latency keeps the reader inside the enclave
    # (one crossing per payload) while the splits below run.
    machine = TrustedMachine(bed.owner.key, CostCounter(),
                             latency=CrossingLatency(per_crossing=2e-3))
    labels_box: dict[str, list] = {}

    def drain():
        labels_box["labels"] = [machine.evaluate_many([request])[0]
                                for request in requests]

    reader = threading.Thread(target=drain)
    reader.start()
    # Concurrently split the live chain (structural splits only; the
    # snapshot guarantee is purely set-theoretic).
    for a, b in plan:
        splittable = [i for i, size in enumerate(pop.sizes())
                      if size >= 2]
        if not splittable:
            break
        index = splittable[a % len(splittable)]
        members = pop[index].uids.copy()
        cut = 1 + b % (members.size - 1)
        pop.split(index, members[:cut], members[cut:])
    reader.join()

    # 1. Every snapshot slice still holds exactly its original uid set.
    for view_slice, want in zip(slices, fingerprints):
        assert frozenset(int(u) for u in view_slice) == want
    # 2. The reader's labels match the plaintext oracle for each payload.
    value_of = plain_lookup(bed, "X")
    for request, labels in zip(requests, labels_box["labels"]):
        want = np.asarray([value_of(int(u)) < threshold
                           for u in request.uids])
        assert np.array_equal(labels, want)
