// The global shard scheduler's determinism contract (see DESIGN.md):
// every campaign's result - down to the last bit of every Welch t - is
// independent of the scheduler's thread count, the queue interleaving,
// and the order campaigns were submitted in, and equals the serial
// (1-thread) run. Plus scheduler property tests: priority order,
// oversubscription, zero-batch campaigns, failure isolation, and the
// lease seam outside executors complete shards through.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/memctrl.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "engine/scheduler.hpp"
#include "masking/masking.hpp"
#include "obs/obs.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// The campaign mix every multi-campaign test uses: unequal batch counts
/// (the scheduler's reason to exist), a sequential design, a masked
/// composite (kRand reseeding), and a tiny straggler.
struct CampaignCase {
  netlist::Netlist design;
  tvla::TvlaConfig config;
};

std::vector<CampaignCase> campaign_mix() {
  std::vector<CampaignCase> cases;
  {
    CampaignCase c{circuits::make_aes_sbox_layer(1), {}};
    c.config.traces = 4096;
    c.config.seed = 7;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_adder(8), {}};
    c.config.traces = 1024;
    c.config.seed = 3;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_memctrl(4, 4), {}};  // sequential (DFFs)
    c.config.traces = 2048;
    c.config.cycles_per_batch = 8;
    c.config.seed = 11;
    cases.push_back(std::move(c));
  }
  {
    const auto base = circuits::make_adder(8);
    std::vector<netlist::GateId> targets;
    for (netlist::GateId g = 0; g < base.gate_count(); ++g) {
      if (netlist::is_maskable(base.gate(g).type)) targets.push_back(g);
    }
    CampaignCase c{masking::apply_masking(base, targets).design, {}};
    c.config.traces = 1536;
    c.config.seed = 5;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_adder(4), {}};  // straggler: 1 batch
    c.config.traces = 64;
    c.config.seed = 13;
    cases.push_back(std::move(c));
  }
  return cases;
}

void expect_reports_identical(const tvla::LeakageReport& a,
                              const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    // Bit-identical, not just value-equal: a +0.0 that becomes -0.0 is a
    // real sign of float-op reordering, exactly what this harness exists
    // to catch (value comparison would let it through).
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g << ": " << a.t_values()[g] << " vs "
        << b.t_values()[g];
  }
}

// --- bit-identity vs the per-campaign path -----------------------------------

TEST(Scheduler, MatchesPerCampaignPathAtEveryThreadCount) {
  const auto cases = campaign_mix();
  // The serial per-campaign path (a private 1-thread drain) is the
  // reference the shared queue must reproduce exactly.
  std::vector<tvla::LeakageReport> reference;
  for (const auto& c : cases) {
    auto config = c.config;
    config.threads = 1;
    reference.push_back(tvla::run_fixed_vs_random(c.design, lib(), config));
  }

  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    engine::Scheduler scheduler(threads);
    std::vector<std::future<tvla::LeakageReport>> pending;
    for (const auto& c : cases) {
      pending.push_back(
          tvla::submit(scheduler,
                       {.design = &c.design, .lib = &lib(), .config = c.config})
              .future());
    }
    scheduler.drain();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ASSERT_TRUE(pending[i].valid());
      expect_reports_identical(reference[i], pending[i].get());
    }
  }
}

TEST(Scheduler, IndependentOfSubmissionOrder) {
  const auto cases = campaign_mix();
  std::vector<tvla::LeakageReport> reference;
  for (const auto& c : cases) {
    reference.push_back(tvla::run_fixed_vs_random(c.design, lib(), c.config));
  }

  // Several deterministic shuffles of the submission order, at a thread
  // count that forces interleaving. Futures map back by original index.
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    engine::Scheduler scheduler(8);
    std::vector<std::future<tvla::LeakageReport>> pending(cases.size());
    for (const std::size_t i : order) {
      pending[i] = tvla::submit(scheduler, {.design = &cases[i].design,
                                            .lib = &lib(),
                                            .config = cases[i].config})
                       .future();
    }
    scheduler.drain();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_reports_identical(reference[i], pending[i].get());
    }
    std::next_permutation(order.begin(), order.end());
    std::rotate(order.begin(), order.begin() + 1, order.end());
  }
}

TEST(Scheduler, SingleCampaignDegenerateCase) {
  // One campaign in the queue == the per-campaign path, at any cap.
  const auto design = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 17;
  const auto reference = tvla::run_fixed_vs_random(design, lib(), config);
  for (const std::size_t threads : {1u, 16u}) {
    engine::Scheduler scheduler(threads);
    auto pending = tvla::submit(
        scheduler, {.design = &design, .lib = &lib(), .config = config});
    scheduler.drain();
    expect_reports_identical(reference, pending.get());
  }
}

TEST(Scheduler, OversubscriptionManyMoreCampaignsThanThreads) {
  // 24 campaigns, 2 threads: every queue state from saturated to empty.
  const auto design = circuits::make_adder(6);
  engine::Scheduler scheduler(2);
  std::vector<std::future<tvla::LeakageReport>> pending;
  std::vector<tvla::LeakageReport> reference;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    tvla::TvlaConfig config;
    config.traces = 128 + 64 * (seed % 5);  // unequal batch counts
    config.seed = seed;
    reference.push_back(tvla::run_fixed_vs_random(design, lib(), config));
    pending.push_back(
        tvla::submit(scheduler,
                     {.design = &design, .lib = &lib(), .config = config})
            .future());
  }
  scheduler.drain();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    expect_reports_identical(reference[i], pending[i].get());
  }
}

// --- core flows through the scheduler ----------------------------------------

TEST(Scheduler, AuditDesignsMatchesPerDesignAudits) {
  core::PolarisConfig config;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 4;
  config.tvla.seed = 4;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::get_design("square", 0.4));
  designs.push_back(circuits::get_design("voter", 0.3));
  designs.push_back(circuits::get_design("multiplier", 0.3));

  const auto reports = core::audit_designs(designs, lib(), config);
  ASSERT_EQ(reports.size(), designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    expect_reports_identical(
        tvla::run_fixed_vs_random(designs[i].netlist, lib(),
                                  core::tvla_config_for(config, designs[i])),
        reports[i]);
  }
}

TEST(Scheduler, TrainingDatasetIndependentOfThreadCount) {
  // Algorithm 1 through the global queue: the labelled dataset (sample
  // order included) must not depend on the scheduler fan-out.
  core::PolarisConfig config;
  config.mask_size = 25;
  config.locality = 3;
  config.iterations = 2;
  config.model_rounds = 10;
  config.tvla.traces = 256;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 21;
  config.tvla.seed = 21;

  const auto training = circuits::training_suite();
  const std::span<const circuits::Design> designs(training.data(), 2);

  auto dataset_with_threads = [&](std::size_t threads) {
    auto cfg = config;
    cfg.threads = threads;
    core::Polaris polaris(cfg);
    (void)polaris.train(designs, lib());
    return polaris.training_data();
  };
  const auto serial = dataset_with_threads(1);
  const auto parallel = dataset_with_threads(8);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.feature_count(), parallel.feature_count());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.label(i), parallel.label(i)) << "sample " << i;
    for (std::size_t f = 0; f < serial.feature_count(); ++f) {
      EXPECT_EQ(serial.row(i)[f], parallel.row(i)[f])
          << "sample " << i << " feature " << f;
    }
  }
}

// --- scheduler property tests (synthetic campaigns) --------------------------

/// Synthetic state: xors a keyed function of every batch index, so any
/// missed, duplicated, or re-ordered *set* of batches changes the result,
/// while shard placement does not.
struct XorState {
  std::uint64_t value = 0;
};

std::uint64_t mix(std::uint64_t campaign, std::uint64_t batch) {
  return engine::stream_seed(campaign, batch, 0x70726f70ULL);
}

/// run_shard for a synthetic campaign of `batches` batches: a fresh state
/// from make(shard), then run_batch over the shard's range of
/// ShardPlan::make(batches) - the shape of tvla's own shard loop.
template <class Make, class RunBatch>
auto batch_loop(std::size_t batches, Make make, RunBatch run_batch) {
  const auto plan = engine::ShardPlan::make(batches);
  return [plan, make, run_batch](std::size_t shard) {
    auto state = make(shard);
    for (std::size_t b = plan.begin(shard); b < plan.end(shard); ++b) {
      run_batch(state, b);
    }
    return state;
  };
}

/// Submits a synthetic campaign of `batches` batches; `weight` 0 weighs
/// it by its batch count.
template <class Make, class RunBatch, class Merge, class Finalize>
auto submit_batches(engine::Scheduler& scheduler, std::size_t batches,
                    Make make, RunBatch run_batch, Merge merge,
                    Finalize finalize, std::size_t weight = 0,
                    std::string label = {}) {
  return scheduler.submit(engine::ShardPlan::make(batches).shard_count,
                          batch_loop(batches, make, run_batch), merge,
                          finalize, {}, weight == 0 ? batches : weight,
                          std::move(label));
}

using Batches = std::vector<std::uint64_t>;

/// What an executor computes for `shard` of a submit_sequence campaign:
/// the shard's batch indices, in order.
Batches sequence_shard(std::size_t batches, std::size_t shard) {
  return batch_loop(batches, [](std::size_t) { return Batches{}; },
                    [](Batches& state, std::size_t batch) {
                      state.push_back(batch);
                    })(shard);
}

/// An order-sensitive campaign (concatenation of batch indices): the
/// result lists the batches in the order their shard states merged.
engine::CampaignHandle<Batches> submit_sequence(
    engine::Scheduler& scheduler, std::size_t batches,
    engine::Checkpoints<Batches> checkpoints = {}) {
  return scheduler.submit(
      engine::ShardPlan::make(batches).shard_count,
      [batches](std::size_t shard) { return sequence_shard(batches, shard); },
      [](Batches& into, Batches&& from) {
        into.insert(into.end(), from.begin(), from.end());
      },
      [](Batches&& total) { return total; }, std::move(checkpoints));
}

void expect_ascending(const Batches& sequence, std::size_t batches) {
  ASSERT_EQ(sequence.size(), batches);
  for (std::size_t b = 0; b < sequence.size(); ++b) EXPECT_EQ(sequence[b], b);
}

TEST(Scheduler, SyntheticCampaignsSeeEveryBatchExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    engine::Scheduler scheduler(threads);
    std::vector<engine::CampaignHandle<std::uint64_t>> pending;
    const std::size_t kCampaigns = 40;  // oversubscribes every cap above
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const std::size_t batches = 1 + (c * 7) % 97;
      pending.push_back(submit_batches(
          scheduler, batches, [](std::size_t) { return XorState{}; },
          [c](XorState& state, std::size_t batch) {
            state.value ^= mix(c, batch);
          },
          [](XorState& into, XorState&& from) { into.value ^= from.value; },
          [](XorState&& total) { return total.value; }));
    }
    EXPECT_GT(scheduler.pending_shards(), kCampaigns);  // shards, not jobs
    scheduler.drain();
    EXPECT_EQ(scheduler.pending_shards(), 0u);
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const std::size_t batches = 1 + (c * 7) % 97;
      std::uint64_t expected = 0;
      for (std::size_t b = 0; b < batches; ++b) expected ^= mix(c, b);
      EXPECT_EQ(pending[c].get(), expected) << "campaign " << c;
    }
  }
}

TEST(Scheduler, MergesInAscendingShardOrder) {
  // Order-sensitive merge (concatenation): the observed sequence must be
  // the batch order, whatever ran where.
  engine::Scheduler scheduler(8);
  auto pending = submit_sequence(scheduler, 200);
  scheduler.drain();
  expect_ascending(pending.get(), 200);
}

TEST(Scheduler, ZeroBatchCampaignFinalizesImmediately) {
  engine::Scheduler scheduler(4);
  auto pending = submit_batches(
      scheduler, 0, [](std::size_t) { return XorState{123}; },
      [](XorState&, std::size_t) { FAIL() << "no batches to run"; },
      [](XorState&, XorState&&) { FAIL() << "nothing to merge"; },
      [](XorState&& total) { return total.value; });
  // Ready before any drain: a zero-shard campaign finalizes run_shard(0),
  // which covers no batches.
  EXPECT_EQ(scheduler.pending_shards(), 0u);
  EXPECT_EQ(pending.get(), 123u);
}

TEST(Scheduler, FailedCampaignDoesNotPoisonOthers) {
  engine::Scheduler scheduler(4);
  auto doomed = submit_batches(
      scheduler, 64, [](std::size_t) { return XorState{}; },
      [](XorState&, std::size_t batch) {
        if (batch == 17) throw std::runtime_error("batch 17 exploded");
      },
      [](XorState& into, XorState&& from) { into.value ^= from.value; },
      [](XorState&& total) { return total.value; });
  auto healthy = submit_batches(
      scheduler, 64, [](std::size_t) { return XorState{}; },
      [](XorState& state, std::size_t batch) { state.value += batch; },
      [](XorState& into, XorState&& from) { into.value += from.value; },
      [](XorState&& total) { return total.value; });
  scheduler.drain();
  EXPECT_THROW((void)doomed.get(), std::runtime_error);
  EXPECT_EQ(healthy.get(), 64u * 63u / 2u);
}

TEST(Scheduler, HeavierCampaignsDrainFirstWhenSerial) {
  // LPT priority: with threads = 1 the pop order is fully deterministic,
  // so the first batch executed must belong to the heaviest campaign.
  engine::Scheduler scheduler(1);
  std::vector<std::uint64_t> first_batch_owner;
  auto record = [&first_batch_owner](std::uint64_t campaign) {
    if (first_batch_owner.empty() || first_batch_owner.back() != campaign) {
      first_batch_owner.push_back(campaign);
    }
  };
  auto light = submit_batches(
      scheduler, 4, [](std::size_t) { return XorState{}; },
      [&record](XorState&, std::size_t) { record(1); },
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; });
  auto heavy = submit_batches(
      scheduler, 64, [](std::size_t) { return XorState{}; },
      [&record](XorState&, std::size_t) { record(2); },
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; });
  scheduler.drain();
  (void)light.get();
  (void)heavy.get();
  ASSERT_FALSE(first_batch_owner.empty());
  EXPECT_EQ(first_batch_owner.front(), 2u);  // heavy went first despite order
}

TEST(Scheduler, ProgressTableTracksCampaignsMonotonically) {
  // progress() is the live-status window the serve daemon exposes: rows in
  // submission order, shards_done monotonic, queue_position = LPT drain
  // rank, rows vanish exactly when campaigns finalize.
  engine::Scheduler scheduler(1);  // serial: deterministic claim order
  EXPECT_TRUE(scheduler.progress().empty());

  // Observed from INSIDE running batches (documented safe: run_shard holds
  // no scheduler lock): every alpha progress row seen mid-drain.
  std::vector<std::uint64_t> alpha_done;
  auto observe = [&scheduler, &alpha_done] {
    for (const auto& row : scheduler.progress()) {
      if (row.label == "alpha") {
        EXPECT_FALSE(row.stopped);
        EXPECT_EQ(row.shards_total, 12u);  // ShardPlan::make(24)
        EXPECT_LE(row.shards_done, row.shards_total);
        alpha_done.push_back(row.shards_done);
      }
    }
  };
  auto alpha = submit_batches(
      scheduler, 24, [](std::size_t) { return XorState{}; },
      [&observe](XorState&, std::size_t) { observe(); },
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; },
      /*weight=*/24, "alpha");
  auto beta = submit_batches(
      scheduler, 96, [](std::size_t) { return XorState{}; },
      [](XorState&, std::size_t) {}, [](XorState&, XorState&&) {},
      [](XorState&&) { return 0; }, /*weight=*/96, "beta");

  // Before the drain: both rows, submission order, nothing done, and LPT
  // ranks beta (heavier) ahead of alpha in the drain queue.
  const auto before = scheduler.progress();
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].label, "alpha");
  EXPECT_EQ(before[1].label, "beta");
  EXPECT_EQ(before[0].shards_done, 0u);
  EXPECT_EQ(before[1].shards_done, 0u);
  EXPECT_EQ(before[0].shards_total, 12u);  // ShardPlan::make(24)
  EXPECT_EQ(before[1].shards_total, 24u);  // ShardPlan::make(96)
  EXPECT_EQ(before[1].queue_position, 0u);
  EXPECT_EQ(before[0].queue_position, 1u);
  EXPECT_EQ(before[0].sequence + 1, before[1].sequence);

  scheduler.drain();
  (void)alpha.get();
  (void)beta.get();

  // Every mid-drain observation: monotonic non-decreasing, never claiming
  // completion while a batch of the campaign was still running.
  ASSERT_FALSE(alpha_done.empty());
  EXPECT_TRUE(std::is_sorted(alpha_done.begin(), alpha_done.end()));
  EXPECT_LT(alpha_done.back(), 12u);
  // Finalized campaigns leave the table - a drained scheduler shows
  // nothing in flight.
  EXPECT_TRUE(scheduler.progress().empty());
}


TEST(Scheduler, ScopedDrainRunsAndWaitsOnListedCampaignsOnly) {
  engine::Scheduler scheduler(2);
  auto listed = submit_sequence(scheduler, 64);     // 16 shards
  auto unlisted = submit_sequence(scheduler, 256);  // heavier: LPT head
  const std::uint64_t listed_id = listed.id();
  auto held = scheduler.lease({unlisted.id()}, 4);
  ASSERT_TRUE(held.has_value());
  const std::size_t unlisted_queued = scheduler.pending_shards() - 16;

  // Neither the heavier campaign's queued shards nor its outstanding lease
  // concern a drain that does not list it.
  scheduler.drain({listed_id});
  EXPECT_EQ(scheduler.pending_shards(), unlisted_queued);
  auto listed_result = std::move(listed).future();
  ASSERT_EQ(listed_result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  expect_ascending(listed_result.get(), 64);
  // A waiting lease over a finalized campaign returns at once, empty.
  EXPECT_FALSE(scheduler.lease({listed_id}, 4, /*wait=*/true).has_value());

  for (std::size_t shard = held->begin; shard < held->end; ++shard) {
    scheduler.complete(*held, shard, sequence_shard(256, shard));
  }
  expect_ascending(unlisted.get(), 256);  // get() drains the rest
  EXPECT_EQ(scheduler.pending_shards(), 0u);
}

// --- lease seam (an outside executor, synthetic campaigns) -------------------

TEST(SchedulerLease, OutOfOrderCompletionsStillMergeAscending) {
  engine::Scheduler scheduler(1);
  auto pending = submit_sequence(scheduler, 200);  // 50 shards
  std::vector<engine::Scheduler::Lease> leases;
  while (auto lease = scheduler.lease({pending.id()}, 4)) {
    EXPECT_EQ(lease->campaign, 0u);
    EXPECT_LE(lease->end - lease->begin, 4u);
    if (!leases.empty()) {
      EXPECT_EQ(lease->begin, leases.back().end);
    }
    leases.push_back(*lease);
  }
  ASSERT_EQ(leases.back().end, engine::ShardPlan::make(200).shard_count);
  EXPECT_EQ(scheduler.pending_shards(), 0u);
  // Last lease first, each lease's shards descending: every merge but the
  // final one must wait for a lower shard.
  for (auto lease = leases.rbegin(); lease != leases.rend(); ++lease) {
    for (std::size_t shard = lease->end; shard-- > lease->begin;) {
      scheduler.complete(*lease, shard, sequence_shard(200, shard));
    }
  }
  scheduler.drain();  // nothing queued, nothing leased: returns at once
  expect_ascending(pending.get(), 200);
}

TEST(SchedulerLease, CompleteRejectsForeignStatesAndShards) {
  engine::Scheduler scheduler(1);
  auto pending = submit_sequence(scheduler, 16);  // one batch per shard
  auto lease = scheduler.lease({pending.id()}, 2);
  ASSERT_TRUE(lease.has_value());
  ASSERT_EQ(lease->begin, 0u);
  ASSERT_EQ(lease->end, 2u);
  EXPECT_THROW(scheduler.complete(*lease, 0, XorState{}), std::logic_error);
  EXPECT_THROW(scheduler.complete(*lease, 2, sequence_shard(16, 2)),
               std::logic_error);  // queued, not leased
  scheduler.complete(*lease, 0, sequence_shard(16, 0));
  EXPECT_THROW(scheduler.complete(*lease, 0, sequence_shard(16, 0)),
               std::logic_error);  // already completed
  scheduler.complete(*lease, 1, sequence_shard(16, 1));
  scheduler.drain();
  expect_ascending(pending.get(), 16);
}

TEST(SchedulerLease, DrainFinishesAnAbandonedLease) {
  engine::Scheduler scheduler(2);
  auto pending = submit_sequence(scheduler, 64);  // 16 shards
  auto kept = scheduler.lease({pending.id()}, 4);
  auto lost = scheduler.lease({pending.id()}, 4);
  ASSERT_TRUE(kept.has_value());
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->begin, 4u);
  // Half-answered, then the executor is lost: only the unanswered shard
  // goes back to the queue.
  scheduler.complete(*lost, 4, sequence_shard(64, 4));
  const std::size_t queued = scheduler.pending_shards();
  scheduler.abandon(*lost);
  EXPECT_EQ(scheduler.pending_shards(), queued + 3);
  for (std::size_t shard = kept->begin; shard < kept->end; ++shard) {
    scheduler.complete(*kept, shard, sequence_shard(64, shard));
  }
  scheduler.drain();
  EXPECT_EQ(scheduler.pending_shards(), 0u);
  expect_ascending(pending.get(), 64);
}

TEST(SchedulerLease, LeaseSkipsACancelledCampaign) {
  auto& cancelled = obs::Registry::global().counter("sched.shards_cancelled");
  engine::Scheduler scheduler(1);
  // The heavier campaign stops at its first checkpoint, one shard in.
  auto stopped = submit_sequence(
      scheduler, 64,
      {{1}, [](const Batches&, std::size_t prefix) { return prefix == 1; }});
  auto light = submit_sequence(scheduler, 16);
  const engine::CampaignIds both = {stopped.id(), light.id()};
  auto first = scheduler.lease(both, 1);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->campaign, 0u);
  ASSERT_EQ(first->begin, 0u);
  scheduler.complete(*first, 0, sequence_shard(64, 0));

  // The stopped campaign's 15 queued shards are retired on the way to the
  // light campaign's first chunk, which finishes the stopped campaign.
  const std::uint64_t before = cancelled.value();
  auto next = scheduler.lease(both, 4);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->campaign, 1u);
  EXPECT_EQ(next->begin, 0u);
  EXPECT_EQ(cancelled.value() - before, 15u);
  auto stopped_result = std::move(stopped).future();
  ASSERT_EQ(stopped_result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  expect_ascending(stopped_result.get(), 4);  // shard 0 = batches 0..3

  scheduler.abandon(*next);
  scheduler.drain();
  expect_ascending(light.get(), 16);
}

TEST(SchedulerLease, DrainWaitsForAnOutstandingLease) {
  engine::Scheduler scheduler(2);
  auto pending = submit_sequence(scheduler, 32);  // 16 shards
  auto lease = scheduler.lease({pending.id()}, engine::kMaxShardsPerCampaign);
  ASSERT_TRUE(lease.has_value());
  ASSERT_EQ(lease->end - lease->begin, 16u);  // the whole campaign
  ASSERT_EQ(scheduler.pending_shards(), 0u);

  std::atomic<bool> completing{false};
  std::thread executor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    completing.store(true);
    for (std::size_t shard = lease->begin; shard < lease->end; ++shard) {
      scheduler.complete(*lease, shard, sequence_shard(32, shard));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  scheduler.drain();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(completing.load());
  EXPECT_GE(waited, std::chrono::milliseconds(40));
  executor.join();
  expect_ascending(pending.get(), 32);
}

}  // namespace
