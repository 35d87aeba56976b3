// Package cluster coordinates per-site LTC trackers into a global
// significant-items view — the paper's Use Case 3 endgame: "if persistent
// flows all over the data center can be efficiently identified, we can
// make a global solution to schedule the persistent flows".
//
// The item space is hash-partitioned (Topology) and each partition is
// hosted, R times over, as a tenant namespace on sigserver nodes. A
// Gatherer pulls one checkpoint per partition replica each round, merges
// exactly one image per partition into a cluster-wide view under quorum
// rules, and serves that view until the next commit. Items are
// partitioned, so merging sums nothing twice; replication never inflates
// counts because only one replica image per partition enters the view.
package cluster
