"""Per-layer metrics of a traced phase, and what each should move.

Layers are named after the program's modules.  Times come from the span
tracer (self time = span time minus child spans); counts come from the
program's own counters (``stats()`` dicts, ``IOStats``, ``obs``), read
before and after the phase.  Counts are normalised per operation, read,
write or chunk-store commit so runs of different lengths compare.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import metrics as obs_metrics

#: per-layer metric -> unit.  Which end-to-end metric each should move,
#: and on which workload, is tabulated in README.md.
PER_LAYER: Dict[str, str] = {
    "collection.self_us_per_op": "us",
    "objectstore.self_us_per_op": "us",
    "objectstore.cache_hit_ratio": "ratio",
    "objectstore.lock_wait_us_per_op": "us",
    "objectstore.lock_waits_per_op": "count",
    "server.batch_mean": "count",
    "server.commit_wait_us_per_write": "us",
    "server.snapshot_acquire_us_per_read": "us",
    "server.snapshot_reuse_ratio": "ratio",
    "chunkstore.read_self_us_per_read": "us",
    "chunkstore.desc_cache_hit_ratio": "ratio",
    "chunkstore.map_chunks_per_read": "count",
    "chunkstore.payload_cache_hit_ratio": "ratio",
    "chunkstore.commit_self_us_per_commit": "us",
    "chunkstore.log_bytes_per_commit": "bytes",
    "chunkstore.checkpoint_us_per_op": "us",
    "chunkstore.checkpoints_per_1k_commits": "count",
    "chunkstore.cleaner_us_per_op": "us",
    "chunkstore.segments_cleaned_per_1k_commits": "count",
    "crypto.decrypt_us_per_read": "us",
    "crypto.encrypt_us_per_commit": "us",
    "crypto.bytes_per_op": "bytes",
    "untrusted.round_trips_per_op": "count",
    "untrusted.read_us_per_op": "us",
    "untrusted.flushes_per_commit": "count",
    "untrusted.flush_us_per_commit": "us",
    "untrusted.bytes_written_per_user_byte": "ratio",
    "trusted.writes_per_commit": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_ratio": "ratio",
}


def counters(workload) -> Dict[str, float]:
    """A flat snapshot of every program counter the metrics use."""
    stack = workload.stack
    chunks, objects, platform = stack.chunks, stack.objects, stack.platform
    stats = chunks.stats()
    io = platform.untrusted.stats
    cleaner = obs_metrics.histogram_for("chunkstore.cleaner_pass")
    return {
        "desc_hits": stats["cache"]["hits"],
        "desc_misses": stats["cache"]["misses"],
        "payload_hits": stats["payload_cache"]["hits"],
        "payload_misses": stats["payload_cache"]["misses"],
        "map_chunks": stats["walk"]["map_chunks_fetched"],
        "log_bytes": stats["log"]["bytes_appended"],
        "commits": stats["commits"],
        "crypto_bytes": sum(
            row.get("bytes_encrypted", 0) + row.get("bytes_decrypted", 0)
            for row in stats["crypto"].values()
        )
        + sum(row.get("bytes_hashed", 0) for row in stats["hashing"].values()),
        "io_reads": io.reads,
        "io_bytes_written": io.bytes_written,
        "io_flushes": io.flushes,
        "obj_hits": objects.cache.hits,
        "obj_misses": objects.cache.misses,
        "lock_waits": objects.stats()["locks"]["waits"],
        "cleaner_passes": cleaner.count if cleaner else 0,
        "cleaner_s": cleaner.total if cleaner else 0.0,
        "segments_cleaned": obs_metrics.counter_value("chunkstore.segments_cleaned"),
        "trusted_writes": platform.counter.write_count
        + platform.tamper_resistant.write_count,
        "checkpoints": workload.checkpoints,
        **workload.server_counters(),
    }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer,
    before: Dict[str, float],
    after: Dict[str, float],
    measurement,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced phase."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    ops = measurement.ops
    reads = measurement.reads
    commits = delta["commits"]
    summary = tracer.summary()

    def self_us(layer: str) -> float:
        return summary.get(layer, {}).get("self_s", 0.0) * 1e6

    def inclusive_us(layer: str) -> float:
        return summary.get(layer, {}).get("inclusive_s", 0.0) * 1e6

    def ratio(hits: str, misses: str) -> float:
        return _per(delta[hits], delta[hits] + delta[misses])

    root = summary.get("bench", {})
    return {
        "collection.self_us_per_op": _per(self_us("collection"), ops),
        "objectstore.self_us_per_op": _per(self_us("objectstore"), ops),
        "objectstore.cache_hit_ratio": ratio("obj_hits", "obj_misses"),
        "objectstore.lock_wait_us_per_op": _per(
            inclusive_us("objectstore.lock"), ops
        ),
        "objectstore.lock_waits_per_op": _per(delta["lock_waits"], ops),
        "server.batch_mean": _per(delta["batched_txs"], delta["batches"]),
        "server.commit_wait_us_per_write": _per(
            self_us("server.commit"), measurement.writes
        ),
        "server.snapshot_acquire_us_per_read": _per(
            inclusive_us("server.snapshot"), reads
        ),
        "server.snapshot_reuse_ratio": ratio("snapshots_reused", "snapshots_created"),
        "chunkstore.read_self_us_per_read": _per(self_us("chunkstore.read"), reads),
        "chunkstore.desc_cache_hit_ratio": ratio("desc_hits", "desc_misses"),
        "chunkstore.map_chunks_per_read": _per(delta["map_chunks"], reads),
        "chunkstore.payload_cache_hit_ratio": ratio(
            "payload_hits", "payload_misses"
        ),
        "chunkstore.commit_self_us_per_commit": _per(
            self_us("chunkstore.commit"), commits
        ),
        "chunkstore.log_bytes_per_commit": _per(delta["log_bytes"], commits),
        "chunkstore.checkpoint_us_per_op": _per(
            inclusive_us("chunkstore.checkpoint"), ops
        ),
        "chunkstore.checkpoints_per_1k_commits": _per(
            1000 * delta["checkpoints"], commits
        ),
        "chunkstore.cleaner_us_per_op": _per(delta["cleaner_s"] * 1e6, ops),
        "chunkstore.segments_cleaned_per_1k_commits": _per(
            1000 * delta["segments_cleaned"], commits
        ),
        "crypto.decrypt_us_per_read": _per(
            tracer.seconds_within("crypto.decrypt", "chunkstore.read") * 1e6, reads
        ),
        "crypto.encrypt_us_per_commit": _per(
            tracer.seconds_within("crypto.encrypt", "chunkstore.commit") * 1e6,
            commits,
        ),
        "crypto.bytes_per_op": _per(delta["crypto_bytes"], ops),
        "untrusted.round_trips_per_op": _per(delta["io_reads"], ops),
        "untrusted.read_us_per_op": _per(inclusive_us("untrusted.read"), ops),
        "untrusted.flushes_per_commit": _per(delta["io_flushes"], commits),
        "untrusted.flush_us_per_commit": _per(
            inclusive_us("untrusted.flush"), commits
        ),
        "untrusted.bytes_written_per_user_byte": _per(
            delta["io_bytes_written"], measurement.user_bytes
        ),
        "trusted.writes_per_commit": _per(delta["trusted_writes"], commits),
        "trace.overhead_ratio": _per(traced_ops_per_s, untraced_ops_per_s),
        "trace.unaccounted_ratio": _per(
            root.get("self_s", 0.0), root.get("inclusive_s", 0.0)
        ),
    }
