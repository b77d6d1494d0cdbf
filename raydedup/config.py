"""Pipeline configuration — the engine's analog of the reference's builders.

``SigConfig`` freezes every parameter that determines cluster assignments
(seed, shingle width, permutation count, banding, thresholds). Its
``fingerprint`` plays the role of the reference's 16-bit seedHash carried in
every serialized sketch (thetacommon/ThetaUtil.java:93-109): partitions /
manifests built under different fingerprints must never be merged — the
pipeline raises, exactly as UnionImpl.java:308 does on seed-hash mismatch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .hashing import xxh64_bytes

DEFAULT_SEED = 9001  # thetacommon/ThetaUtil.java:78
DEFAULT_NOMINAL_K = 4096  # thetacommon/ThetaUtil.java:57 (DEFAULT_NOMINAL_ENTRIES)


@dataclass(frozen=True)
class SigConfig:
    """Frozen signature configuration (north_star: shingle=5, perms=128, b=16, r=8)."""

    seed: int = DEFAULT_SEED
    shingle_k: int = 5          # tokens per shingle
    num_perm: int = 128         # MinHash permutations
    bands: int = 16             # LSH bands (b)
    rows_per_band: int = 8      # LSH rows per band (r); b*r must == num_perm
    simhash_bits: int = 64
    kmv_k: int = 128            # bottom-k KMV signature size per document
    kmv_hash_bytes: int = 8     # stored bytes per retained hash (8 = full;
                                # 4 = top-32-bit truncation: halves the
                                # near-tier shuffle, collision odds 2^-32)
    jaccard_threshold: float = 0.85
    # subtracted from jaccard_threshold at VERIFY time (default 0 = keep
    # pairs with estimate >= threshold exactly). The KMV estimate of a
    # pair at TRUE J = threshold falls below it with probability ~1/2
    # (estimator sigma ~= sqrt(J(1-J)/k)), so threshold-BOUNDARY recall is
    # a deterministic lottery of the hash draw (measured: a hash-family
    # swap alone moved the 150k recall draw 0.9969 -> 0.9890, BASELINE.md
    # round-5). Setting verify_margin to ~1 estimator sigma converts that
    # lottery into a small controlled false-positive band (pairs down to
    # threshold - margin may be kept) — the right trade when the
    # downstream contract is "dedup everything AT OR ABOVE threshold".
    verify_margin: float = 0.0
    simhash_max_hamming: int = 8
    # skew handling
    max_bucket_size: int = 256      # LSH buckets above this get salted
    salt_factor: int = 16           # number of salt sub-buckets for hot keys
    # substring tier
    winnow_k: int = 24              # token-gram length for substring fingerprints
    winnow_window: int = 16         # winnowing window (guarantee t = k + w - 1)
    min_substring_tokens: int = 200 # flag verbatim blocks >= this many tokens
    # token normalization
    lowercase: bool = False
    max_content_bytes: int = 1 << 20  # truncate pathological rows for shingling
    # bumped whenever a signature ALGORITHM changes (not just its params),
    # so persisted checkpoints built by older code can never silently mix
    # with new shards (fingerprint covers every field). v2: winnow gram
    # hash switched from per-window xxh64 to the O(T) rolling polynomial.
    # v3: the table stores ``bandhashes``, not the MinHash matrix (a v2
    # table lacks the column the near tier reads)
    algo_version: int = 3

    def __post_init__(self) -> None:
        if self.bands * self.rows_per_band != self.num_perm:
            raise ValueError(
                f"bands*rows_per_band ({self.bands}*{self.rows_per_band}) "
                f"must equal num_perm ({self.num_perm})"
            )

    @property
    def verify_threshold(self) -> float:
        """The estimate cut every near-tier verify site applies (all modes
        share it, so mode agreement is preserved for any margin)."""
        return self.jaccard_threshold - self.verify_margin

    @property
    def fingerprint(self) -> int:
        """64-bit config fingerprint (engine analog of the theta seedHash).

        ``verify_margin`` is left out: it moves only the verify-time cut,
        never a persisted signature, so tuning it keeps signature
        checkpoints and dedup indexes valid."""
        fields = asdict(self)
        del fields["verify_margin"]
        payload = json.dumps(fields, sort_keys=True).encode()
        return xxh64_bytes(payload, seed=0)

    def check_compatible(self, other_fingerprint: int) -> None:
        if self.fingerprint != other_fingerprint:
            raise SketchesArgumentError(
                f"config fingerprint mismatch: {self.fingerprint:#x} != "
                f"{other_fingerprint:#x} — refusing to merge (seedHash rule, "
                "thetacommon/ThetaUtil.java:93-109)"
            )


class SketchesArgumentError(ValueError):
    """Engine analog of SketchesArgumentException (common/SketchesArgumentException.java)."""


class SketchesStateError(RuntimeError):
    """Engine analog of SketchesStateException."""


DEFAULT_CONFIG = SigConfig()
