// Per-call replay for the traced run: the workload's per-round calls,
// timed one by one on a standalone stack built from the workload's config
// through public constructors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace ratt_bench {

/// Time every replayed call and return `<layer>.<call>.p50` / `.p99`
/// for each, plus trace.coverage and trace.unexplained_s: the share of
/// `measured`'s drain CPU explained by each call's mean cost x its count
/// in the measured drain. Replay spans are appended to `spans`, offset by
/// `start_s`. Any call that does not behave as in the workload (an
/// accept rejected, a replay accepted) is appended to `errors`.
std::map<std::string, double> run_replay(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const Repetition& measured,
                                         double start_s,
                                         std::vector<Span>& spans,
                                         std::vector<std::string>& errors);

}  // namespace ratt_bench
