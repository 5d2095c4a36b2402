// The benchmark's workloads. Each runs its operations for the run's
// seconds, checks every output, and fills `report` with its end-to-end
// metrics - plus, when `tracer` is enabled, its per-layer metrics.
#pragma once

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

void run_suite_audit(const RunOptions& run, Report& report, Tracer& tracer);
void run_train_mask(const RunOptions& run, Report& report, Tracer& tracer);
void run_serve_mixed(const RunOptions& run, Report& report, Tracer& tracer);

}  // namespace perfbench
