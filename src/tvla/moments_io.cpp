#include "tvla/moments_io.hpp"

#include <stdexcept>

namespace polaris::tvla {

namespace {

void write_accumulator(serialize::Writer& out, const MomentAccumulator& acc) {
  out.u64(acc.count());
  out.f64(acc.mean());
  out.f64(acc.sum2());
  out.f64(acc.sum3());
  out.f64(acc.sum4());
}

MomentAccumulator read_accumulator(serialize::Reader& in) {
  const std::uint64_t n = in.u64();
  const double mean = in.f64();
  const double s2 = in.f64();
  const double s3 = in.f64();
  const double s4 = in.f64();
  return MomentAccumulator::restore(static_cast<std::size_t>(n), mean, s2, s3,
                                    s4);
}

}  // namespace

void write_moments(serialize::Writer& out, const CampaignMoments& moments) {
  out.begin_chunk("MOMV");
  out.u64(moments.n_fixed());
  out.u64(moments.n_random());
  out.u64(moments.group_count());
  out.u64(moments.multi_group_count());
  for (std::size_t g = 0; g < moments.group_count(); ++g) {
    out.varint(moments.single_ones_fixed(g));
    out.varint(moments.single_ones_random(g));
  }
  for (std::size_t i = 0; i < moments.multi_group_count(); ++i) {
    write_accumulator(out, moments.multi_fixed(i));
    write_accumulator(out, moments.multi_random(i));
  }
  out.end_chunk();
}

CampaignMoments read_moments(serialize::Reader& in) {
  in.enter_chunk("MOMV");
  const std::uint64_t n_fixed = in.u64();
  const std::uint64_t n_random = in.u64();
  const std::uint64_t groups = in.u64();
  const std::uint64_t multis = in.u64();
  // Check-before-allocate: a single group is at least two 1-byte varints,
  // a multi group exactly two 40-byte accumulators - hostile counts are
  // rejected before the block is sized.
  if (groups > in.remaining() / 2) {
    throw std::runtime_error("polaris tvla: moments group count exceeds "
                             "payload size");
  }
  if (multis > (in.remaining() - 2 * groups) / 80) {
    throw std::runtime_error("polaris tvla: moments multi-group count "
                             "exceeds payload size");
  }
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
    MomentAccumulator fixed = read_accumulator(in);
    MomentAccumulator random = read_accumulator(in);
    moments.set_multi(static_cast<std::size_t>(i), fixed, random);
  }
  in.exit_chunk();
  return moments;
}

}  // namespace polaris::tvla
