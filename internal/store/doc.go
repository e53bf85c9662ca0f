// Package store provides database-style operations over built datasets:
// entity subsampling (Table 9's 3k–15k scaling study), conflicting-record
// filtering (how the paper constructs the movie corpus, §6.1.1), dataset
// merging for streaming arrivals (§5.4), entity-range splitting
// (SplitEntities — the batch construction of the streaming mode and the
// partitioner behind internal/shard's entity-sharded inference), and
// summary statistics mirroring the corpus tables of §6.1.1. All
// operations are pure: they return new datasets and never mutate their
// inputs.
//
// The package also defines the claim store behind the serving layer:
// Claims, an append-only raw-claim store whose rows live on the heap and,
// when it has a directory, are sealed incrementally into immutable on-disk
// segments (package internal/segment) at checkpoint time, with zone-map
// and bloom data skipping on every scoped scan through its lock-free View.
// Sealing never changes the rows: identical AddRow order yields identical
// Rows() order, so every dataset id and truth decision is independent of
// how much of the corpus is sealed.
package store
