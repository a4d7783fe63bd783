"""repro — PRKB: Past Result Knowledge Base for encrypted databases.

A full reproduction of Wong, Wong & Yue, "Optimizing Selection Processing
for Encrypted Database using Past Result Knowledge Base" (EDBT 2018),
including the EDBMS substrate it runs on, the Logarithmic-SRC-i
competitor, the security study of Sec. 8.1 and the future-work
extensions.  See README.md for a tour and DESIGN.md for the system map.

Quick start::

    import numpy as np
    from repro import EncryptedDatabase

    db = EncryptedDatabase(seed=0)
    db.create_table("t", {"X": (1, 1000)},
                    {"X": np.arange(1, 501, dtype=np.int64)})
    db.enable_prkb("t", ["X"])
    answer = db.query("SELECT * FROM t WHERE 100 < X AND X < 200")
    print(answer.count, answer.qpf_uses)
"""

# Import order matters for layering: crypto and the EDBMS substrate first,
# then the PRKB core, then the party roles that tie them together.
from . import crypto  # noqa: F401
from . import edbms  # noqa: F401
from . import core  # noqa: F401
from . import plan  # noqa: F401
from . import baselines  # noqa: F401
from . import attacks  # noqa: F401
from . import workloads  # noqa: F401
from . import bench  # noqa: F401
from . import obs  # noqa: F401

from .crypto import (
    SecretKey,
    generate_key,
    ComparisonPredicate,
    BetweenPredicate,
    EncryptedPredicate,
    seal_predicate,
    OrderPreservingEncryption,
    SecretSharingScheme,
)
from .edbms import (
    CostCounter,
    CostModel,
    AttributeSpec,
    Schema,
    PlainTable,
    EncryptedTable,
    encrypt_table,
    TrustedMachine,
    CrossingLatency,
    QueryProcessingFunction,
)
from .edbms.owner import DataOwner
from .edbms.server import ServiceProvider
from .edbms.engine import (
    EncryptedDatabase,
    QueryAnswer,
    QueryPlan,
    PlanStep,
)
from .edbms.sdb_backend import (
    SecretSharedTable,
    MPCQueryProcessingFunction,
    share_table,
)
from .edbms.persistence import (
    save_table,
    load_table,
    save_index,
    load_index,
)
from .core import (
    PRKBIndex,
    PartialOrderPartitions,
    SingleDimensionProcessor,
    BetweenProcessor,
    DimensionRange,
    MultiDimensionProcessor,
    TableUpdater,
    AggregateResolver,
    SkylineResolver,
)
from .baselines import (
    LinearScanProcessor,
    LogSRCiIndex,
    LogBRCIndex,
    LogSRCIndex,
    TDAG,
)
from .attacks import (
    OrderReconstructionAttack,
    simulate_rpoi,
    ope_rank_matching_attack,
    pop_interval_attack,
)
from .obs import (
    Tracer,
    Span,
    MetricsRegistry,
    render_prometheus,
    render_json,
)

__version__ = "1.0.0"

__all__ = [
    "SecretKey",
    "generate_key",
    "ComparisonPredicate",
    "BetweenPredicate",
    "EncryptedPredicate",
    "seal_predicate",
    "OrderPreservingEncryption",
    "SecretSharingScheme",
    "CostCounter",
    "CostModel",
    "AttributeSpec",
    "Schema",
    "PlainTable",
    "EncryptedTable",
    "encrypt_table",
    "TrustedMachine",
    "CrossingLatency",
    "QueryProcessingFunction",
    "DataOwner",
    "ServiceProvider",
    "EncryptedDatabase",
    "QueryAnswer",
    "QueryPlan",
    "PlanStep",
    "SecretSharedTable",
    "MPCQueryProcessingFunction",
    "share_table",
    "save_table",
    "load_table",
    "save_index",
    "load_index",
    "PRKBIndex",
    "PartialOrderPartitions",
    "SingleDimensionProcessor",
    "BetweenProcessor",
    "DimensionRange",
    "MultiDimensionProcessor",
    "TableUpdater",
    "AggregateResolver",
    "SkylineResolver",
    "LinearScanProcessor",
    "LogSRCiIndex",
    "LogBRCIndex",
    "LogSRCIndex",
    "TDAG",
    "OrderReconstructionAttack",
    "simulate_rpoi",
    "ope_rank_matching_attack",
    "pop_interval_attack",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "render_prometheus",
    "render_json",
    "__version__",
]
