"""The EDBMS substrate: storage, QPF, cost model and the SQL grammar.

This package's ``__init__`` deliberately exposes only the *substrate*
layer (no PRKB dependency) so that :mod:`repro.core` can build on it
without import cycles.  The party roles that sit *above* PRKB — the data
owner, the service provider and the :class:`EncryptedDatabase` facade —
live in the submodules :mod:`repro.edbms.owner`, :mod:`repro.edbms.server`
and :mod:`repro.edbms.engine` and are re-exported from the top-level
:mod:`repro` package.
"""

from .costs import CostCounter, CostModel, DEFAULT_COST_MODEL
from .schema import AttributeSpec, Schema, PlainTable
from .encryption import EncryptedTable, encrypt_table
from .qpf import (
    TrustedMachine,
    QueryProcessingFunction,
    QPFRequest,
    CrossingLatency,
)
from .batching import QPFBatcher, BatchExecutor, BatchJob, BatchAnswer
from .sql import (
    parse_select,
    SelectStatement,
    ComparisonCondition,
    BetweenCondition,
    SqlError,
)

__all__ = [
    "CostCounter",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "AttributeSpec",
    "Schema",
    "PlainTable",
    "EncryptedTable",
    "encrypt_table",
    "TrustedMachine",
    "QueryProcessingFunction",
    "QPFRequest",
    "CrossingLatency",
    "QPFBatcher",
    "BatchExecutor",
    "BatchJob",
    "BatchAnswer",
    "parse_select",
    "SelectStatement",
    "ComparisonCondition",
    "BetweenCondition",
    "SqlError",
]
