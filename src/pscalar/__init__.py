"""pscalar: budget-enforced remote analytics over per-entity private scalars.

A data owner loads per-entity numbers with public clipping bounds and serves
them over TCP.  An analyst manipulates opaque handles to build polynomial
queries, then asks the node to publish noisy results.  The node derives each
entity's worst-case influence on the query symbolically, charges that entity's
privacy ledger, and refuses any release that would push an entity past its
epsilon cap.  Analysts never see raw inputs — only handles, public metadata,
and noisy published values.
"""

from .accounting import (
    BudgetPolicy,
    CalibrationError,
    FilterDecision,
    LedgerError,
    PrivacyLedger,
    RdpSpend,
    calibrate_sigma,
    filter_check,
    rdp_to_dp,
    remaining_budget,
    spend_for_publish,
)
from .client import (
    AuthFailed,
    ClientError,
    PublishRejectedError,
    PublishResult,
    RemoteScalar,
    RequestFailed,
    Session,
    SimulateResult,
    TransportError,
)
from .mechanism import (
    BudgetRejected,
    GaussianNoiseSource,
    PublishReceipt,
    publish,
    simulate_publish,
)
from .node import (
    IngestError,
    Node,
    NodeConfig,
    NodeTCPServer,
    read_dataset_csv,
    start_server,
)
from .poly import (
    Interval,
    MissingVariableError,
    Monomial,
    NonFiniteError,
    Polynomial,
    PolynomialError,
    TermLimitError,
    VarId,
)
from .scalar import (
    EntityInput,
    MetadataConflictError,
    PrivateScalar,
    UnknownEntityError,
    UnsupportedOperationError,
    clip,
    sum_scalars,
)
from .script import ScriptError, ScriptReport, StepResult, run_script
from .sensitivity import (
    FIRST_DEGREE,
    INTERVAL_SOUND,
    MONOTONE_CEILING,
    VERTEX_EXACT,
    LipschitzBound,
    lipschitz_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AuthFailed",
    "BudgetPolicy",
    "BudgetRejected",
    "CalibrationError",
    "ClientError",
    "EntityInput",
    "FIRST_DEGREE",
    "FilterDecision",
    "GaussianNoiseSource",
    "INTERVAL_SOUND",
    "IngestError",
    "Interval",
    "LedgerError",
    "LipschitzBound",
    "MONOTONE_CEILING",
    "MetadataConflictError",
    "MissingVariableError",
    "Monomial",
    "Node",
    "NodeConfig",
    "NodeTCPServer",
    "NonFiniteError",
    "Polynomial",
    "PolynomialError",
    "PrivacyLedger",
    "PrivateScalar",
    "PublishReceipt",
    "PublishRejectedError",
    "PublishResult",
    "RdpSpend",
    "RemoteScalar",
    "RequestFailed",
    "ScriptError",
    "ScriptReport",
    "Session",
    "SimulateResult",
    "StepResult",
    "TermLimitError",
    "TransportError",
    "UnknownEntityError",
    "UnsupportedOperationError",
    "VERTEX_EXACT",
    "VarId",
    "calibrate_sigma",
    "clip",
    "filter_check",
    "lipschitz_bound",
    "publish",
    "rdp_to_dp",
    "read_dataset_csv",
    "remaining_budget",
    "run_script",
    "simulate_publish",
    "spend_for_publish",
    "start_server",
    "sum_scalars",
    "__version__",
]
