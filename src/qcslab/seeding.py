"""Counter-based seed derivation for reproducible Monte-Carlo trials.

Every trial derives its generator from (master_seed, parameter tuple,
trial index) through a cryptographic hash, so results do not depend on
execution order and independent trials never share generator state.
"""

from __future__ import annotations

import hashlib
import json


def derive_seed(master_seed: int, *parts) -> int:
    """Return a 63-bit seed determined by the master seed and key parts.

    Parts must be JSON scalars (int, float, str); floats are serialized
    with full repr precision so distinct tuples never collide by rounding.
    """
    material = json.dumps([int(master_seed), *parts], separators=(",", ":"))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1

