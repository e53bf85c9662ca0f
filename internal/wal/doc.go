// Package wal gives the truth-serving daemon durable state: a segmented,
// CRC32C-framed write-ahead log for ingested claim batches, a checkpoint
// store that persists each published snapshot's inputs (accumulated source
// quality, the published posterior, and a manifest tying them to a log
// position and to the immutable claim segments holding the corpus), and a
// recovery planner that reconstructs the daemon's exact pre-crash state by
// loading the newest readable checkpoint and replaying the log tail behind
// it.
//
// The log is the standard append-heavy recipe: batches are framed as
// (length, CRC32C, payload) records with monotonically increasing sequence
// numbers, written into fixed-size segment files named by the sequence
// number of their first record. Appends are durable before the caller is
// acknowledged under the configured fsync policy (SyncAlways fsyncs every
// record, SyncInterval at most once per interval, SyncNever leaves
// durability to the OS page cache — which still survives a SIGKILL, only
// power loss can lose acknowledged-but-unsynced records). On open, a torn
// final record (a crash mid-write) or a CRC mismatch truncates the log to
// its last valid prefix; everything before the cut is recovered intact.
//
// Checkpoints make recovery O(tail) instead of O(history): each one is a
// directory written to a temporary name, fsynced, and atomically renamed,
// holding the source quality CSV (dataset.WriteQuality), the posterior CSV,
// and MANIFEST.json recording the snapshot sequence, the log position the
// checkpoint covers, per-file CRCs, the segment refs (package
// internal/segment) covering the corpus, a configuration hash, and the
// serving layer's opaque policy state. Recovery opens each listed segment
// once, CRC-verifying every page, and hands the open segments to the claim
// store. A checkpoint from before segments (a cumulative triples.csv and
// no refs) is still read, once, so the serving layer can migrate it.
// Log segments wholly covered by every retained checkpoint are deleted.
//
// The package has no model-specific logic; internal/serve composes it into
// the daemon (write-ahead ingest, checkpoint-on-refit, recover-on-boot).
package wal
