// Archive bindings for CampaignMoments - the work-unit payload of the
// distributed shard backend (DESIGN.md "Distributed shard execution").
//
// A remote worker runs a shard and ships its UNMERGED per-shard moments
// back; the coordinator completes them into the scheduler's
// ascending-shard-order merge exactly where a local shard's state would
// land, so the final report is bit-identical to a single-host run. That
// contract only holds if the codec round-trips the state exactly: integer
// counters as-is, every double as its IEEE-754 bit pattern (which
// serialize::Writer::f64 already guarantees).
//
// One "MOMC" chunk holds a block:
//   u64 n_fixed, u64 n_random, u64 group_count, u64 multi_group_count
//   per single group:  varint ones_fixed, varint ones_random
//   per multi group:   f64 fixed mean, fixed S2, random mean, random S2
// A multi group's class counts are the header's class totals, so a block
// cannot carry a group count that disagrees with them. The toggle counters
// are LEB128 varints because a shard's counts are small (at most its class
// totals) and single groups are most of a block. The reader accepts only
// this tag - the older "MOMV" (per-group counts and third and fourth
// centred sums) and "MOMS" layouts are refused - so a coordinator and a
// worker from builds that disagree on the layout fail the shard reply
// loudly instead of merging misread state.
#pragma once

#include "serialize/archive.hpp"
#include "tvla/moments.hpp"

namespace polaris::tvla {

/// Writes one "MOMC" chunk holding the full block state.
void write_moments(serialize::Writer& out, const CampaignMoments& moments);

/// Reads one "MOMC" chunk. Rejects group counts the payload cannot hold
/// before allocating, toggle counts above their class totals, and a multi
/// group whose mean or S2 is not finite or whose S2 is negative (state no
/// real shard produces, and which would turn a leaky group's t into NaN);
/// throws std::runtime_error on malformed input. The returned object
/// merges bit-identically to the original.
[[nodiscard]] CampaignMoments read_moments(serialize::Reader& in);

}  // namespace polaris::tvla
