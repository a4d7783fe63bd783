"""Workload traces: record, persist and replay query/update streams.

Reproducible experiments need reproducible workloads.  A
:class:`WorkloadTrace` is an ordered list of operations (SQL statements,
inserts, deletes) serialisable to JSON-lines; :func:`replay` drives an
:class:`~repro.edbms.engine.EncryptedDatabase` through it and reports
per-operation costs.  The benchmark harness generates its workloads
procedurally from seeds; traces complement that with an exchange format
(ship a trace alongside a bug report, replay a production day against a
candidate configuration, A/B two index settings on identical input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Operation", "WorkloadTrace", "ReplayResult", "replay"]

_KINDS = ("sql", "insert", "delete")


@dataclass(frozen=True)
class Operation:
    """One traced operation.

    ``payload``: for ``sql`` the statement text; for ``insert`` a dict of
    column → list of values; for ``delete`` a list of uids.
    """

    kind: str
    table: str
    payload: object

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown operation kind {self.kind!r}; "
                f"expected one of {_KINDS}"
            )

    def to_json(self) -> str:
        """One JSON line."""
        return json.dumps({
            "kind": self.kind,
            "table": self.table,
            "payload": self.payload,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Operation":
        """Parse one JSON line."""
        data = json.loads(line)
        return cls(kind=data["kind"], table=data["table"],
                   payload=data["payload"])


@dataclass
class WorkloadTrace:
    """An ordered, persistable stream of operations."""

    operations: list[Operation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    # -- recording ------------------------------------------------------ #

    def sql(self, table: str, statement: str) -> "WorkloadTrace":
        """Append a SQL statement (chainable)."""
        self.operations.append(Operation("sql", table, statement))
        return self

    def insert(self, table: str,
               rows: dict[str, list[int]]) -> "WorkloadTrace":
        """Append an insert batch (chainable)."""
        payload = {k: [int(v) for v in vs] for k, vs in rows.items()}
        self.operations.append(Operation("insert", table, payload))
        return self

    def delete(self, table: str, uids: list[int]) -> "WorkloadTrace":
        """Append a delete (chainable)."""
        self.operations.append(
            Operation("delete", table, [int(u) for u in uids]))
        return self

    # -- persistence ----------------------------------------------------- #

    def save(self, path) -> None:
        """Write the trace as JSON lines."""
        lines = [op.to_json() for op in self.operations]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        """Read a trace written by :meth:`save`."""
        operations = [
            Operation.from_json(line)
            for line in Path(path).read_text().splitlines()
            if line.strip()
        ]
        return cls(operations=operations)


@dataclass(frozen=True)
class ReplayResult:
    """Per-operation outcome of one replay."""

    operation: Operation
    result_count: int | None
    qpf_uses: int


def replay(db, trace: WorkloadTrace,
           strategy: str = "auto") -> list[ReplayResult]:
    """Drive an :class:`EncryptedDatabase` through a trace.

    Deletes traced as uid lists refer to uids as they exist at replay
    time (the trace format stores what the recorder saw; replaying a
    trace against a different initial table is the caller's
    responsibility to make coherent).
    """
    results: list[ReplayResult] = []
    for operation in trace:
        with db.counter.measure() as spent:
            if operation.kind == "sql":
                count = db.query(operation.payload, strategy=strategy).count
            elif operation.kind == "insert":
                rows = {
                    attr: np.asarray(values, dtype=np.int64)
                    for attr, values in operation.payload.items()
                }
                count = int(db.insert(operation.table, rows).size)
            else:
                db.delete(operation.table,
                          np.asarray(operation.payload, dtype=np.uint64))
                count = len(operation.payload)
        results.append(ReplayResult(
            operation=operation,
            result_count=count,
            qpf_uses=spent.qpf_uses,
        ))
    return results
