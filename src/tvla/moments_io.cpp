#include "tvla/moments_io.hpp"

#include <cmath>
#include <stdexcept>

namespace polaris::tvla {

namespace {

constexpr char kTag[] = "MOMC";

void write_class(serialize::Writer& out, MeanS2 state) {
  out.f64(state.mean);
  out.f64(state.s2);
}

MeanS2 read_class(serialize::Reader& in) {
  const MeanS2 state{in.f64(), in.f64()};
  if (!std::isfinite(state.mean) || !std::isfinite(state.s2) ||
      state.s2 < 0.0) {
    throw std::runtime_error("polaris tvla: moments multi-group state is "
                             "not finite or has a negative S2");
  }
  return state;
}

}  // namespace

void write_moments(serialize::Writer& out, const CampaignMoments& moments) {
  out.begin_chunk(kTag);
  out.u64(moments.n_fixed());
  out.u64(moments.n_random());
  out.u64(moments.group_count());
  out.u64(moments.multi_group_count());
  for (std::size_t g = 0; g < moments.group_count(); ++g) {
    out.varint(moments.single_ones_fixed(g));
    out.varint(moments.single_ones_random(g));
  }
  for (std::size_t i = 0; i < moments.multi_group_count(); ++i) {
    write_class(out, moments.multi_fixed(i));
    write_class(out, moments.multi_random(i));
  }
  out.end_chunk();
}

CampaignMoments read_moments(serialize::Reader& in) {
  in.enter_chunk(kTag);
  const std::uint64_t n_fixed = in.u64();
  const std::uint64_t n_random = in.u64();
  const std::uint64_t groups = in.u64();
  const std::uint64_t multis = in.u64();
  // Check-before-allocate: a single group is at least two 1-byte varints,
  // a multi group exactly four 8-byte doubles - hostile counts are
  // rejected before the block is sized.
  in.check_count(groups, 2);
  in.check_count(multis, 32);
  CampaignMoments moments(static_cast<std::size_t>(groups),
                          static_cast<std::size_t>(multis));
  moments.add_lane_counts(n_fixed, n_random);
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t fixed = in.varint();
    const std::uint64_t random = in.varint();
    if (fixed > n_fixed || random > n_random) {
      throw std::runtime_error("polaris tvla: moments toggle count exceeds "
                               "its class total");
    }
    moments.add_single_ones(static_cast<std::size_t>(g), fixed, random);
  }
  for (std::uint64_t i = 0; i < multis; ++i) {
    const MeanS2 fixed = read_class(in);
    const MeanS2 random = read_class(in);
    moments.set_multi(static_cast<std::size_t>(i), fixed, random);
  }
  in.exit_chunk();
  return moments;
}

}  // namespace polaris::tvla
