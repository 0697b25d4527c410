// The benchmark's workloads. Each runs its set-up, timed phase(s) and
// correctness checks against the public APIs of the layers it drives,
// and records every metric it measured into the report.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Open-loop Poisson traffic over the three paper endpoints into a
/// 2-node cluster::Federation, plus a rate ladder for capacity_per_s.
void run_serve_mix(const RunOptions& options, Report* report);

/// Closed-loop clients against one serve::Server with a trivial
/// endpoint and batching off: the serving framework's own cost.
void run_serve_tiny(const RunOptions& options, Report* report);

/// Journaled stream::StreamEngine: paced ingest (emit latency), burst
/// ingest (fold rate), then kill and WAL replay (recovery).
void run_stream_journal(const RunOptions& options, Report* report);

}  // namespace perfbench
