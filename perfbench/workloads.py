"""The benchmark's four workloads: seeded inputs, set-up, a fixed
operation stream and a plaintext oracle that checks every answer.

Every workload is a fixed, seeded number of operations, never a time
window, so count metrics (QPF per query, RPOI spent, bytes stored)
repeat exactly for a given ``(seed, seconds)``.  ``seconds`` only sizes
the stream: the per-pass operation counts below are for ``--seconds 10``
and scale linearly with it.

The engine is driven only through its public API
(``EncryptedDatabase``, ``query``, ``insert``/``delete``,
``open``/``checkpoint``/``close``, ``enable_hybrid``) from one
closed-loop client; it receives only the generated SQL text and rows.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import EncryptedDatabase
from repro.core.arena import ARENA

from hostspeed import HostSpeed

DOMAIN = (1, 1_000_000)
#: Width of a durable-churn / sd-learn ``COUNT(*) ... BETWEEN`` band.
BAND_WIDTH = (10_000, 100_000)

_NO_SPAN = contextlib.nullcontext()


# -- plaintext oracle ------------------------------------------------------- #

@dataclass(frozen=True)
class Read:
    """One SELECT: the SQL the engine sees, and the plaintext predicate
    (``(attribute, op, constant)`` triples, ANDed) the oracle evaluates."""

    sql: str
    conditions: tuple
    count: bool = False


@dataclass(frozen=True)
class Insert:
    rows: dict


@dataclass(frozen=True)
class Delete:
    #: Positions in ``[0, 1)`` into the live uid list at run time, so the
    #: rows deleted are a deterministic function of the seed.
    picks: tuple


@dataclass(frozen=True)
class Checkpoint:
    pass


class TableModel:
    """Plaintext mirror of one table through inserts and deletes."""

    def __init__(self, columns: dict[str, np.ndarray]):
        rows = len(next(iter(columns.values())))
        self.uids = np.arange(rows, dtype=np.uint64)
        self.columns = {attr: np.asarray(values, dtype=np.int64)
                        for attr, values in columns.items()}

    def insert(self, uids: np.ndarray, rows: dict) -> None:
        uids = np.asarray(uids, dtype=np.uint64)
        if uids.size != len(next(iter(rows.values()))) \
                or np.isin(uids, self.uids).any():
            raise AssertionError("insert returned unexpected uids")
        self.uids = np.concatenate([self.uids, uids])
        for attr, values in rows.items():
            self.columns[attr] = np.concatenate(
                [self.columns[attr], np.asarray(values, dtype=np.int64)])

    def delete(self, uids: np.ndarray) -> None:
        keep = ~np.isin(self.uids, np.asarray(uids, dtype=np.uint64))
        self.uids = self.uids[keep]
        for attr in self.columns:
            self.columns[attr] = self.columns[attr][keep]

    def pick(self, picks: tuple) -> np.ndarray:
        """Distinct live uids at the given fractional positions."""
        live = np.sort(self.uids)
        positions = (np.asarray(picks) * live.size).astype(np.int64)
        return live[np.unique(positions)]

    def answer(self, conditions: tuple) -> np.ndarray:
        mask = np.ones(self.uids.size, dtype=bool)
        for attr, op, constant in conditions:
            values = self.columns[attr]
            if op == "<":
                mask &= values < constant
            elif op == ">=":
                mask &= values >= constant
            elif op == "<=":
                mask &= values <= constant
            elif op == "between":
                mask &= (values >= constant[0]) & (values <= constant[1])
            else:
                raise ValueError(f"oracle has no operator {op!r}")
        return np.sort(self.uids[mask])

    def check(self, read: Read, answer) -> bool:
        expected = self.answer(read.conditions)
        if read.count:
            return answer.count == expected.size
        return np.array_equal(np.sort(answer.uids), expected)


# -- statement generators --------------------------------------------------- #

def _constant(rng) -> int:
    return int(rng.integers(DOMAIN[0] + 1, DOMAIN[1]))


def comparison(rng, attr: str, op: str) -> Read:
    c = _constant(rng)
    return Read(f"SELECT * FROM t WHERE {attr} {op} {c}", ((attr, op, c),))


def count_band(rng, attr: str) -> Read:
    width = int(rng.integers(*BAND_WIDTH))
    lo = int(rng.integers(DOMAIN[0], DOMAIN[1] - width))
    return Read(f"SELECT COUNT(*) FROM t WHERE {attr} BETWEEN {lo} "
                f"AND {lo + width}", ((attr, "between", (lo, lo + width)),),
                count=True)


def uniform_columns(rng, rows: int, attrs) -> dict[str, np.ndarray]:
    return {attr: rng.integers(DOMAIN[0], DOMAIN[1] + 1, rows,
                               dtype=np.int64) for attr in attrs}


# -- one execution of a workload -------------------------------------------- #

@dataclass
class Outcome:
    """What one pass over a workload's stream measured."""

    read_s: list            # host-speed adjusted (see hostspeed.py)
    write_s: list
    stall_s: list           # checkpoints inside the stream
    raw_busy_s: float       # the same engine time, unadjusted
    read_qpf: int
    attempted: int
    failed: int
    counts: dict            # count-type metrics; must repeat exactly
    extra: dict             # workload-specific end-to-end figures

    @property
    def ops(self) -> int:
        return len(self.read_s) + len(self.write_s)

    @property
    def busy_s(self) -> float:
        return sum(self.read_s) + sum(self.write_s) + sum(self.stall_s)


def _counter_counts(delta) -> dict:
    return {name: getattr(delta, name) for name in (
        "qpf_uses", "qpf_roundtrips", "column_cache_hits",
        "column_cache_misses", "column_cache_evictions", "wal_records",
        "wal_bytes", "wal_fsyncs", "checkpoints_written",
        "recovery_records_replayed")}


class Workload:
    """Base class: subclasses build inputs in ``__init__`` and a fresh,
    ready database in ``setup``."""

    name = ""
    #: Identical set-up + stream passes per run; each operation's time is
    #: the fastest of its passes (see ``run.combine``).
    passes = 3

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.workdir = None

    def sized(self, count: float, floor: int = 1) -> int:
        return max(floor, int(round(count * self.scale)))

    def stream_ops(self, count: int) -> int:
        """``count`` operations per pass at ``--seconds 10``, scaled."""
        return self.sized(count * self.seconds / 10, floor=20)

    # subclass hooks
    def setup(self):
        raise NotImplementedError

    def after_stream(self, db, model: TableModel, outcome: Outcome,
                     span) -> object:
        """Work after the stream; returns the database still open."""
        return db

    def layer_counts(self, db) -> dict:
        return {"partitions": sum(index.num_partitions for index in
                                  db.server.indexes_for("t").values())}

    def close(self, db) -> None:
        db.close()

    def run_stream(self, db, recorder=None) -> tuple[object, Outcome]:
        """Run the fixed stream against ``db`` and check every answer.

        Only the engine calls are timed; oracle checks run between them.
        ``recorder`` (a :class:`tracing.SpanRecorder`) opens one root span
        per operation when tracing.
        """
        model = self.model()
        span = recorder.span if recorder is not None else \
            (lambda name: _NO_SPAN)
        read_s, write_s, stall_s = [], [], []
        read_qpf = attempted = failed = 0
        counter = db.counter
        before = counter.snapshot()
        hits, misses = db.planner.cache_hits, db.planner.cache_misses
        # Start every stream from an empty scratch pool, whatever ran
        # before it in this process, so arena counts repeat.
        ARENA.clear()
        arena = ARENA.stats()
        gc.collect()
        speed = HostSpeed()
        raw_busy_s = 0.0

        def timed(name, call):
            """One engine call: its result and its adjusted time."""
            nonlocal raw_busy_s
            adjust = speed.adjuster()
            with span(name):
                start = time.perf_counter()
                result = call()
                took = time.perf_counter() - start
            raw_busy_s += took
            return result, adjust(took)

        for op in self.ops:
            if isinstance(op, Checkpoint):
                stall_s.append(timed("op.checkpoint", db.checkpoint)[1])
                continue
            attempted += 1
            try:
                if isinstance(op, Read):
                    qpf = counter.qpf_uses
                    answer, took = timed("op.read",
                                         lambda: db.query(op.sql))
                    read_s.append(took)
                    read_qpf += counter.qpf_uses - qpf
                    ok = model.check(op, answer)
                elif isinstance(op, Insert):
                    uids, took = timed("op.insert",
                                       lambda: db.insert("t", op.rows))
                    write_s.append(took)
                    model.insert(uids, op.rows)
                    ok = True
                else:
                    uids = model.pick(op.picks)
                    _, took = timed("op.delete",
                                    lambda: db.delete("t", uids))
                    write_s.append(took)
                    model.delete(uids)
                    ok = True
            except Exception:  # one failed operation must not end the run
                traceback.print_exc(file=sys.stderr)
                ok = False
            failed += not ok
        delta = counter.diff(before)
        arena_after = ARENA.stats()
        takes = arena_after["takes"] - arena["takes"]
        reuses = arena_after["reuses"] - arena["reuses"]
        hits = db.planner.cache_hits - hits
        misses = db.planner.cache_misses - misses
        counts = _counter_counts(delta)
        counts.update(plan_cache_hits=hits, plan_cache_misses=misses,
                      arena_takes=takes, arena_reuses=reuses,
                      reads=len(read_s), writes=len(write_s),
                      read_qpf=read_qpf)
        outcome = Outcome(read_s, write_s, stall_s, raw_busy_s, read_qpf,
                          attempted, failed, counts, {})
        db = self.after_stream(db, model, outcome, span)
        outcome.counts.update(self.layer_counts(db))
        return db, outcome


# -- sd-learn --------------------------------------------------------------- #

class SDLearn(Workload):
    """50k uniform rows on one PRKB attribute; a warm-up of ``X < c``
    grows the POP chain to ~1.5k partitions inside set-up, then a stream
    of distinct-constant comparisons and COUNT bands (with ~10% re-issued
    recent statements) keeps growing it.  Once the knowledge base is
    grown, cost shifts from QPF to the SQL front end and POP
    bookkeeping, and distinct constants miss the plan cache."""

    name = "sd-learn"
    ROWS = 50_000
    WARMUP = 1_500
    STREAM = 1_500

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        rng = np.random.default_rng([seed, 1])
        self.columns = uniform_columns(rng, self.sized(self.ROWS, 100), "X")
        self.warmup = [comparison(rng, "X", "<").sql
                       for _ in range(self.sized(self.WARMUP))]
        ops, recent = [], []
        for _ in range(self.stream_ops(self.STREAM)):
            draw = rng.random()
            if draw < 0.10 and recent:
                read = recent[int(rng.integers(len(recent)))]
            elif draw < 0.55:
                read = comparison(rng, "X", "<")
            elif draw < 0.90:
                read = comparison(rng, "X", ">=")
            else:
                read = count_band(rng, "X")
            recent = (recent + [read])[-50:]
            ops.append(read)
        self.ops = ops

    def model(self):
        return TableModel(self.columns)

    def setup(self):
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {"X": DOMAIN}, self.columns)
        db.enable_prkb("t", ["X"])
        for sql in self.warmup:
            db.query(sql)
        return db


# -- md-cold ---------------------------------------------------------------- #

class MDCold(Workload):
    """40k rows x 3 PRKB attributes from an empty knowledge base; the
    stream is conjunctive 3-D ranges written as ``A >= lo AND A <= hi``
    pairs, answered by the PRKB(MD) grid.  Work is dominated by the grid
    and trusted-machine crossings, with a warm column cache and the
    scratch arena in play."""

    name = "md-cold"
    ROWS = 40_000
    STREAM = 1_000
    ATTRS = ("A", "B", "C")
    #: Range width per dimension, as a share of the domain.
    WIDTH = 0.4

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        rng = np.random.default_rng([seed, 2])
        self.columns = uniform_columns(rng, self.sized(self.ROWS, 100),
                                       self.ATTRS)
        span = DOMAIN[1] - DOMAIN[0]
        ops = []
        for _ in range(self.stream_ops(self.STREAM)):
            parts, conditions = [], []
            for attr in self.ATTRS:
                width = int(self.WIDTH * span)
                lo = int(rng.integers(DOMAIN[0], DOMAIN[1] - width))
                parts.append(f"{attr} >= {lo} AND {attr} <= {lo + width}")
                conditions += [(attr, ">=", lo), (attr, "<=", lo + width)]
            ops.append(Read("SELECT * FROM t WHERE " + " AND ".join(parts),
                            tuple(conditions)))
        self.ops = ops

    def model(self):
        return TableModel(self.columns)

    def setup(self):
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {a: DOMAIN for a in self.ATTRS}, self.columns)
        db.enable_prkb("t", list(self.ATTRS))
        # Warm the decrypted-column cache with a forced linear scan: it
        # touches every column without refining the (still empty)
        # knowledge base.
        db.query(self.ops[0].sql, strategy="baseline")
        return db


# -- durable-churn ---------------------------------------------------------- #

class DurableChurn(Workload):
    """A durable database (WAL fsync policy ``always``, the default) with
    20k rows on one PRKB attribute: ~70% SELECT, ~20% INSERT batches,
    ~10% DELETE, a checkpoint every fixed number of operations, then
    close -> reopen cycles.  WAL, fsync and checkpoint stalls land in
    write and tail read latency; every write bumps the table version, so
    crossings run with the column cache defeated."""

    name = "durable-churn"
    #: fsync waits are not host-speed adjusted, so one more pass filters
    #: their noise.
    passes = 4
    FSYNC = "always"
    ROWS = 20_000
    STREAM = 1_450
    INSERT_ROWS = 20
    DELETE_ROWS = 5
    CHECKPOINT_EVERY = 250
    REOPENS = 5
    VERIFY = 40
    WARMUP = 200

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        rng = np.random.default_rng([seed, 3])
        self.columns = uniform_columns(rng, self.sized(self.ROWS, 100), "X")
        total = self.stream_ops(self.STREAM)
        kinds = np.array(["read"] * total, dtype=object)
        kinds[:total // 5] = "insert"
        kinds[total // 5:total // 5 + total // 10] = "delete"
        ops = []
        for position, kind in enumerate(rng.permutation(kinds), start=1):
            if kind == "insert":
                ops.append(Insert(uniform_columns(rng, self.INSERT_ROWS,
                                                  "X")))
            elif kind == "delete":
                ops.append(Delete(tuple(rng.random(self.DELETE_ROWS))))
            else:
                draw = rng.random()
                ops.append(comparison(rng, "X", "<") if draw < 3 / 7 else
                           comparison(rng, "X", ">=") if draw < 6 / 7 else
                           count_band(rng, "X"))
            if position % self.CHECKPOINT_EVERY == 0:
                ops.append(Checkpoint())
        self.ops = ops
        self.verify = [comparison(rng, "X", "<" if i % 2 else ">=")
                       for i in range(self.VERIFY)]
        self.warmup = [comparison(rng, "X", "<").sql
                       for _ in range(self.sized(self.WARMUP))]

    def model(self):
        return TableModel(self.columns)

    def setup(self):
        if self.workdir is None:
            raise RuntimeError("durable-churn needs a work directory")
        path = tempfile.mkdtemp(prefix="db-", dir=self.workdir)
        db = EncryptedDatabase.open(path, seed=self.seed, fsync=self.FSYNC)
        db.create_table("t", {"X": DOMAIN}, self.columns)
        db.enable_prkb("t", ["X"])
        for sql in self.warmup:
            db.query(sql)
        db.checkpoint()
        return db

    def close(self, db):
        db.close()
        shutil.rmtree(db.durability.root, ignore_errors=True)

    def after_stream(self, db, model, outcome, span):
        """Close with the WAL tail since the last checkpoint, reopen
        (recovery replays it), re-verify the query set, checkpoint and
        measure the directory, then time the remaining reopen cycles."""
        path = db.durability.root
        reopen_s, replayed = [], 0
        for cycle in range(self.REOPENS):
            db.close()
            gc.collect()
            with span("op.reopen"):
                start = time.perf_counter()
                db = EncryptedDatabase.open(path, fsync=self.FSYNC)
                reopen_s.append(time.perf_counter() - start)
            replayed += db.recovery_stats.wal_records_replayed
            if cycle == 0:
                for read in self.verify:
                    outcome.attempted += 1
                    try:
                        with span("op.read"):
                            answer = db.query(read.sql)
                        ok = model.check(read, answer)
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        ok = False
                    outcome.failed += not ok
                with span("op.checkpoint"):
                    db.checkpoint()
                stored = sum(f.stat().st_size
                             for f in Path(path).rglob("*") if f.is_file())
        outcome.extra.update(
            recover_s=float(np.median(reopen_s)),
            stored_bytes_per_row=stored / model.uids.size)
        outcome.counts.update(records_replayed=replayed,
                              stored_bytes=stored,
                              live_rows=int(model.uids.size),
                              user_bytes=8 * sum(
                                  len(op.rows["X"]) if isinstance(op, Insert)
                                  else len(op.picks) for op in self.ops
                                  if isinstance(op, (Insert, Delete))))
        return db


# -- hybrid-budget ---------------------------------------------------------- #

class HybridBudget(Workload):
    """5k rows, ``X`` PRKB-indexed, ``Y``/``Z`` bare, hybrid dispatch
    under an RPOI budget sized so that ``X`` comparisons route to OPE,
    narrow ``Y`` bands to Log-SRC-i until the budget is spent, and the
    later ``Z`` comparisons to MPC shares.  Lazy artifact builds happen
    inside the stream, where planning choices must pay for them."""

    name = "hybrid-budget"
    ROWS = 5_000
    OPE = 1_000
    BANDS = 100
    MPC = 300
    LATE_OPE = 500

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        rng = np.random.default_rng([seed, 4])
        rows = self.sized(self.ROWS, 100)
        self.columns = uniform_columns(rng, rows, "XYZ")
        ope = [comparison(rng, "X", "<" if i % 2 else ">=")
               for i in range(self.stream_ops(self.OPE))]
        span = (DOMAIN[1] - DOMAIN[0] + 1) // 100
        bands = []
        for _ in range(self.stream_ops(self.BANDS)):
            lo = int(rng.integers(DOMAIN[0], DOMAIN[1] - span))
            bands.append(Read(f"SELECT * FROM t WHERE Y BETWEEN {lo} AND "
                              f"{lo + span}",
                              (("Y", "between", (lo, lo + span)),)))
        late = [comparison(rng, "Z", "<")
                for _ in range(self.stream_ops(self.MPC))]
        late += [comparison(rng, "X", "<")
                 for _ in range(self.stream_ops(self.LATE_OPE))]
        late = [late[i] for i in rng.permutation(len(late))]
        self.ops = ope + bands + late
        # OPE costs RPOI 1.0 once; each band then costs 2 cuts / n.
        self.budget = 1.0 + 2.0 * len(bands) / rows

    def model(self):
        return TableModel(self.columns)

    def setup(self):
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {a: DOMAIN for a in "XYZ"}, self.columns)
        db.enable_prkb("t", ["X"])
        db.enable_hybrid(self.budget)
        return db

    def after_stream(self, db, model, outcome, span):
        outcome.extra["leakage_rpoi"] = db.hybrid.ledger.spent("t")
        return db

    def layer_counts(self, db):
        counts = super().layer_counts(db)
        counts["leakage_rpoi"] = db.hybrid.ledger.spent("t")
        for scheme, stats in db.scheme_stats().items():
            counts[f"scheme_steps_{scheme}"] = stats["steps"]
            counts[f"scheme_qpf_{scheme}"] = stats["qpf_uses"]
        return counts


WORKLOADS = {cls.name: cls for cls in (SDLearn, MDCold, DurableChurn,
                                       HybridBudget)}
