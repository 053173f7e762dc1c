"""Memory-request accounting of the DMA path.

Gemmini's decoupled access/execute front end issues load and store
requests to the shared memory system through its DMA.  The MoCA
hardware sits between the ld/st queues and the request generation
engine, so its units are *memory requests*, not bytes.  This module
converts a block's byte traffic into the request count the access
counter observes and the thresholding module regulates.
"""

from __future__ import annotations

from repro.models.layers import ceil_div

#: Bytes moved per memory request (one TileLink beat-burst / DMA
#: transaction in the Gemmini SoC).
MEM_REQUEST_BYTES = 64


def bytes_to_requests(num_bytes: int) -> int:
    """Number of memory requests needed to move ``num_bytes``."""
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    if num_bytes == 0:
        return 0
    return ceil_div(num_bytes, MEM_REQUEST_BYTES)
