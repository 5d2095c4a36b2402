#include "engine/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/obs.hpp"

namespace polaris::engine {

namespace {
/// True while this thread executes a job's fn; parallel_for consults it so
/// nested fan-outs run inline instead of compounding their caps.
thread_local bool t_inside_job = false;

/// Best-effort message for a caught-by-pointer exception (cold path only).
std::string describe_exception(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "(non-std exception)";
  }
}
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drive(std::unique_lock<std::mutex>& lock,
                       const std::shared_ptr<Job>& job) {
  while (job->next < job->n_total) {
    // Fail fast: once any index threw, credit the unclaimed remainder as
    // completed (in-flight calls still count themselves on return) so the
    // submitter wakes without running the rest of a doomed job.
    if (job->error) {
      job->completed += job->n_total - job->next;
      job->next = job->n_total;
      if (job->completed == job->n_total) done_cv_.notify_all();
      break;
    }
    const std::size_t index = job->next++;
    lock.unlock();
    // Task-granular metrics: every fn(i) here is a shard/design-sized
    // task (never the kernel inner loop), so two clock reads per task are
    // noise. busy_us across all threads over wall-clock gives utilization.
    static auto& tasks = obs::Registry::global().counter("pool.tasks");
    static auto& busy_us = obs::Registry::global().counter("pool.busy_us");
    static auto& exceptions =
        obs::Registry::global().counter("pool.task_exceptions");
    static auto& task_us = obs::Registry::global().histogram("pool.task_us");
    const std::int64_t t0 = obs::now_ns();
    std::exception_ptr error;
    t_inside_job = true;
    try {
      job->fn(index);
    } catch (...) {
      error = std::current_exception();
    }
    t_inside_job = false;
    const auto elapsed_us =
        static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000);
    tasks.add();
    busy_us.add(elapsed_us);
    task_us.record(elapsed_us);
    if (error) {
      // Structured + rate-limited: a job whose every task throws reports a
      // handful of lines and a counter, not n_total stderr writes. The
      // exception itself still propagates to the submitter via job->error.
      exceptions.add();
      obs::log("pool", "task " + std::to_string(index) + "/" +
                           std::to_string(job->n_total) +
                           " threw: " + describe_exception(error));
    }
    lock.lock();
    if (error && !job->error) job->error = error;
    if (++job->completed == job->n_total) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t max_concurrency,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::size_t tickets = workers_.size();
  if (max_concurrency > 0) tickets = std::min(tickets, max_concurrency - 1);
  if (n == 1 || tickets == 0 || t_inside_job) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const auto job = std::make_shared<Job>(n, tickets, fn);
  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.push_back(job);
  const std::size_t depth = jobs_.size();  // includes the job just pushed
  work_cv_.notify_all();
  // Instrumentation never extends the critical section: workers are
  // already notified, so record the captured depth with the lock dropped.
  lock.unlock();
  {
    static auto& jobs = obs::Registry::global().counter("pool.jobs");
    static auto& queue_depth =
        obs::Registry::global().histogram("pool.queue_depth");
    jobs.add();
    queue_depth.record(depth);
  }
  lock.lock();
  drive(lock, job);  // the submitting thread always helps
  done_cv_.wait(lock, [&] { return job->completed == job->n_total; });
  if (const auto it = std::find(jobs_.begin(), jobs_.end(), job);
      it != jobs_.end()) {
    jobs_.erase(it);
  }
  if (job->error) {
    lock.unlock();
    std::rethrow_exception(job->error);
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::shared_ptr<Job> job;
    work_cv_.wait(lock, [&] {
      if (stop_) return true;
      for (const auto& candidate : jobs_) {
        if (candidate->tickets > 0 && candidate->next < candidate->n_total &&
            !candidate->error) {
          job = candidate;
          return true;
        }
      }
      return false;
    });
    if (stop_) return;
    if (!job) continue;
    --job->tickets;
    drive(lock, job);
  }
}

ThreadPool& ThreadPool::shared() {
  // POLARIS_POOL_WORKERS overrides the hardware sizing - how the TSan CI
  // job (and tests on small machines) force real worker threads under the
  // scheduler regardless of the runner's core count. Malformed or absurd
  // values fall back to the hardware default WITH a warning: silently
  // accepting a typo as "0 workers" would quietly turn the TSan job's
  // real-thread interleaving into inline execution.
  static ThreadPool pool(
      [] {
        const std::size_t fallback = resolve_threads(0) - 1;
        const char* env = std::getenv("POLARIS_POOL_WORKERS");
        if (env == nullptr || *env == '\0') return fallback;
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(env, &end, 10);
        constexpr unsigned long long kMaxWorkers = 256;
        if (*env < '0' || *env > '9' || *end != '\0' || parsed > kMaxWorkers) {
          obs::log("pool",
                   "ignoring POLARIS_POOL_WORKERS='" + std::string(env) +
                       "' (expected an integer in [0, " +
                       std::to_string(kMaxWorkers) + "]); using " +
                       std::to_string(fallback) + " workers");
          return fallback;
        }
        // 0 means "auto", matching every other threads knob in the codebase
        // (forced-serial execution comes from a threads=1 cap, not from an
        // empty pool).
        return parsed == 0 ? fallback : static_cast<std::size_t>(parsed);
      }());
  return pool;
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

}  // namespace polaris::engine
