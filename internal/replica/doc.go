// Package replica turns the truth-serving daemon into a horizontally
// scalable read fleet: a follower bootstraps from a primary's newest
// checkpoint (GET /replication/checkpoint: the manifest, quality and
// posterior files plus every segment file the manifest lists, each
// CRC-verified against the manifest before the checkpoint is installed)
// and then tails the primary's write-ahead log over HTTP
// (GET /replication/wal, a long-poll streaming the WAL's own CRC32C
// record framing), mirroring every record — claim batches and refit
// markers alike — into its own durable log before applying it.
//
// Because the log carries the primary's refit schedule (refit-marker
// control records written at every drain cut), the follower does not just
// converge on the same data: it replays the same refits over the same
// cumulative datasets with the same accumulated source-quality state, so
// snapshot N on a follower is bit-identical to snapshot N on the primary
// — truth probabilities, predictions, quality tables and all. Reads
// (/truth, /quality, /records, /stats) are served locally from the
// follower's snapshot-swapped state; writes are rejected with 503 and the
// primary's address.
//
// The mirrored local log is what makes restarts cheap: a follower that
// comes back up recovers from its own checkpoints and WAL tail exactly
// like a primary would, then resumes tailing from where its log ends —
// it never re-downloads a checkpoint unless the primary evicted its
// cursor and truncated the history it still needs (410 Gone), in which
// case it re-bootstraps from a fresh checkpoint automatically. And since
// the follower's serve.Server is itself durable, it exposes the same
// /replication endpoints: followers can fan out behind followers,
// shipping one primary's log through a replication tree.
package replica
