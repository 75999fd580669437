"""Cowbird: the paper's primary contribution.

The compute node issues remote-memory operations with *purely local*
memory writes (:mod:`repro.cowbird.api`); an offload engine discovers
them by polling compute-node memory over RDMA and executes the
transfers on the application's behalf.  Two engine variants are
provided, matching the paper's Sections 5 and 6:

* :class:`~repro.cowbird.p4_engine.CowbirdP4Engine` — a programmable
  switch data plane that *recycles* RDMA packets (probe response ->
  metadata read -> data read -> spoofed write) without any server CPU.
* :class:`~repro.cowbird.spot_engine.CowbirdSpotEngine` — an
  event-driven agent on a harvested/spot VM that uses host verbs and
  batches responses (BATCH_SIZE) to cut per-request message overheads.

Both follow the client's rings through one request core
(:class:`~repro.cowbird.engine_core.RequestCore`): it picks the metadata
to fetch, parses it, and publishes the red block over the completed
FIFO prefix.
"""

from repro.cowbird.wire import (
    BookkeepingLayout,
    GreenBlock,
    RedBlock,
    RequestMetadata,
    RwType,
    decode_request_id,
    encode_request_id,
)
from repro.cowbird.buffers import DataRing, MetadataRing, RingFullError
from repro.cowbird.api import (
    BufferFullError,
    CowbirdClient,
    CowbirdConfig,
    CowbirdInstance,
    PollGroup,
)
from repro.cowbird.p4_engine import CowbirdP4Engine, P4EngineConfig
from repro.cowbird.spot_engine import CowbirdSpotEngine, SpotEngineConfig
from repro.cowbird.p4_resources import P4PipelineResources, estimate_pipeline_resources

__all__ = [
    "BookkeepingLayout",
    "BufferFullError",
    "CowbirdClient",
    "CowbirdConfig",
    "CowbirdInstance",
    "CowbirdP4Engine",
    "CowbirdSpotEngine",
    "DataRing",
    "GreenBlock",
    "MetadataRing",
    "P4EngineConfig",
    "P4PipelineResources",
    "PollGroup",
    "RedBlock",
    "RequestMetadata",
    "RingFullError",
    "RwType",
    "SpotEngineConfig",
    "decode_request_id",
    "encode_request_id",
    "estimate_pipeline_resources",
]
