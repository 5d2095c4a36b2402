// Archive bindings for CampaignMoments - the work-unit payload of the
// distributed shard backend (DESIGN.md "Distributed shard execution").
//
// A remote worker runs a shard and ships its UNMERGED per-shard moments
// back; the coordinator completes them into the scheduler's
// ascending-shard-order merge exactly where a local shard's state would
// land, so the final report is bit-identical to a single-host run. That
// contract only holds if the codec round-trips the accumulator state
// exactly: integer counters as-is, every double as its IEEE-754 bit
// pattern (which serialize::Writer::f64 already guarantees).
//
// One "MOMV" chunk holds a block:
//   u64 n_fixed, u64 n_random, u64 group_count, u64 multi_group_count
//   per single group:  varint ones_fixed, varint ones_random
//   per multi group:   fixed then random accumulator, each
//                      u64 count + f64 mean, sum2, sum3, sum4
// The toggle counters are LEB128 varints because a shard's counts are
// small (at most its class totals) and single groups are most of a
// block. The reader accepts only this tag, so a coordinator and a worker
// from builds that disagree on the layout fail the shard reply loudly
// instead of merging misread counters.
#pragma once

#include "serialize/archive.hpp"
#include "tvla/moments.hpp"

namespace polaris::tvla {

/// Writes one "MOMV" chunk holding the full accumulator state.
void write_moments(serialize::Writer& out, const CampaignMoments& moments);

/// Reads one "MOMV" chunk. Rejects group counts the payload cannot hold
/// before allocating, and toggle counts above their class totals; throws
/// std::runtime_error on malformed input. The returned object merges
/// bit-identically to the original.
[[nodiscard]] CampaignMoments read_moments(serialize::Reader& in);

}  // namespace polaris::tvla
