// ratt_bench — runs the fleet benchmark (README.md in this directory
// has the metric dictionary and how to run it).
//
//   ratt_bench --workload W --seed N --seconds S --trace 0|1
//       One workload: a warm-up repetition, then measured repetitions
//       (at least 5) until S seconds (default 20) have passed; with
//       --trace 1 one more, traced repetition. The last stdout line is
//       {"correct", "attempted", "failed", "metrics"}: end-to-end medians
//       with --trace 0, per-layer metrics with --trace 1.
//   ratt_bench [--seed N] [--seconds S] [--history PATH]
//       Every workload, measured as above plus the traced run; writes
//       <out-dir>/result-seed<N>.json and appends it to PATH.
//   ratt_bench --compare A.json B.json
//       Medians, IQRs, ratio and verdict for every workload x end-to-end
//       metric of two result files; exits 0 only if all are within bound.
//
// Every repetition is a fresh process (this binary re-executed with
// --child), so the heap and ru_maxrss belong to that repetition alone.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace ratt_bench {
namespace {

struct EndToEnd {
  const char* name;
  const char* unit;
  Better better;
  double bound;  // share of the base median
  double floor;  // absolute allowance, in `unit`, when larger
};

constexpr std::size_t kMinReps = 5;

// Keep in sync with BENCHMARK.json. The time bounds are wide because the
// host's speed drifts: run medians of one workload spread 3-21% (IQR over
// median) across ten consecutive runs on a shared 4-vCPU VM.
constexpr EndToEnd kEndToEnd[] = {
    {"total_s", "s", Better::kLower, 0.25, 0.02},
    // Setup of the traced workloads is ~0.1 s, mostly trace-ring page
    // faults, and its IQR over 5 repetitions reaches 0.04 s.
    {"setup_s", "s", Better::kLower, 0.25, 0.05},
    {"requests_per_s", "1/s", Better::kHigher, 0.25, 0.0},
    {"peak_rss_mb", "MB", Better::kLower, 0.05, 0.0},
    {"valid_ratio", "ratio", Better::kHigher, 0.01, 0.0},
};

struct PerLayer {
  const char* name;
  const char* unit;
};

constexpr PerLayer kPerLayer[] = {
    {"sim.construct_s", "s"},
    {"sim.prime_s", "s"},
    {"sim.drain_s", "s"},
    {"sim.teardown_s", "s"},
    {"sim.drain_cpu_s", "s"},
    {"sim.drain_util", "ratio"},
    {"sim.events_run", "count"},
    {"sim.drain_ns_per_event", "ns"},
    {"sim.materialized", "count"},
    {"obs.merge_s", "s"},
    {"obs.jsonl_s", "s"},
    {"obs.merge_ns_per_record", "ns"},
    {"obs.jsonl_ns_per_record", "ns"},
    {"obs.trace_records", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.jsonl_mb", "MB"},
    {"attest.batch_hit_ratio", "ratio"},
    {"attest.batch_waste", "ratio"},
    {"net.retransmits", "count"},
    {"net.timeouts", "count"},
    {"net.unreachable", "count"},
    {"net.macs_per_round", "ratio"},
    {"mem.rss_setup_mb", "MB"},
    {"mem.rss_drain_mb", "MB"},
    {"mem.resident_reported_mb", "MB"},
    {"mem.rss_per_device_kb", "KB"},
    {"mem.resident_vs_rss", "ratio"},
    {"proc.cpu_s", "s"},
    {"proc.serial_share", "ratio"},
    {"attest.make_request_ns.p50", "ns"},
    {"attest.make_request_ns.p99", "ns"},
    {"attest.codec_ns.p50", "ns"},
    {"attest.codec_ns.p99", "ns"},
    {"attest.handle_ns.p50", "ns"},
    {"attest.handle_ns.p99", "ns"},
    {"attest.handle_reject_ns.p50", "ns"},
    {"attest.handle_reject_ns.p99", "ns"},
    {"attest.check_response_ns.p50", "ns"},
    {"attest.check_response_ns.p99", "ns"},
    {"attest.request_check_ns.p50", "ns"},
    {"attest.request_check_ns.p99", "ns"},
    {"attest.prover_boot_us.p50", "us"},
    {"attest.prover_boot_us.p99", "us"},
    {"attest.prover_boot_template_us.p50", "us"},
    {"attest.prover_boot_template_us.p99", "us"},
    {"sim.materialize_us.p50", "us"},
    {"sim.materialize_us.p99", "us"},
    {"sim.queue_op_ns.p50", "ns"},
    {"sim.queue_op_ns.p99", "ns"},
    {"hw.bus_read_16KB_ns.p50", "ns"},
    {"hw.bus_read_16KB_ns.p99", "ns"},
    {"crypto.hmac_sha1_64B_ns.p50", "ns"},
    {"crypto.hmac_sha1_64B_ns.p99", "ns"},
    {"crypto.hmac_sha1_16KB_ns.p50", "ns"},
    {"crypto.hmac_sha1_16KB_ns.p99", "ns"},
    {"crypto.drbg_16B_ns.p50", "ns"},
    {"crypto.drbg_16B_ns.p99", "ns"},
    {"net.link_ns.p50", "ns"},
    {"net.link_ns.p99", "ns"},
    {"trace.coverage", "ratio"},
    {"trace.unexplained_s", "s"},
    {"trace.overhead", "ratio"},
};

// Output pins: golden.json key -> repetition value (trace_fnv is a string).
constexpr std::pair<const char*, const char*> kPins[] = {
    {"rounds_attempted", "pin.rounds_attempted"},
    {"rounds_valid", "pin.rounds_valid"},
    {"events_run", "sim.events_run"},
    {"materialized", "sim.materialized"},
    {"trace_records", "obs.trace_records"},
    {"replays_rejected", "pin.replays_rejected"},
    {"net_retransmits", "net.retransmits"},
    {"net_unreachable", "net.unreachable"},
};

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;  // empty: every workload (full set)
  std::uint64_t seed = 1;
  double seconds = 20.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  bool child = false;
  std::string trace_out;  // child: traced run, spans written here
  std::string out_dir = ".";
  std::string golden = "benchmark/golden.json";
  std::string history;
  std::string git_sha = "none";
  std::vector<std::string> compare;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool has_eq = eq != std::string::npos;
    if (has_eq) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto next = [&]() -> bool {
      if (has_eq) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--child") {
      opt.child = true;
    } else if (arg == "--compare") {
      if (has_eq || i + 2 >= argc) return false;
      opt.compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (!next()) {
      return false;
    } else if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--golden") {
      opt.golden = value;
    } else if (arg == "--history") {
      opt.history = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Child: one repetition, reported as "value <name> <number>" lines.

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
      << R"("args":{"name":"workload phases"}},)" << "\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,)"
      << R"("args":{"name":"per-call replay"}})";
  for (const Span& s : spans) {
    out << ",\n{\"name\":" << quoted(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << num(s.start_s * 1e6)
        << ",\"dur\":" << num(s.dur_s * 1e6) << "}";
  }
  out << "\n]}\n";
}

int run_child(const Options& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) return 2;
  Repetition rep = run_repetition(*spec, opt.seed);
  if (!opt.trace_out.empty()) {
    const std::map<std::string, double> replay =
        run_replay(*spec, opt.seed, rep, rep.values["total_s"], rep.spans,
                   rep.errors);
    rep.values.insert(replay.begin(), replay.end());
    write_chrome_trace(opt.trace_out, rep.spans);
  }
  for (const auto& [name, value] : rep.values) {
    std::printf("value %s %s\n", name.c_str(), num(value).c_str());
  }
  std::printf("fnv %s\n", rep.trace_fnv.c_str());
  for (const std::string& e : rep.errors) std::printf("error %s\n", e.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Parent: spawn repetitions and aggregate them.

struct RepResult {
  std::map<std::string, double> values;
  std::string fnv;
  std::vector<std::string> errors;
};

RepResult spawn_repetition(const Options& opt, const std::string& trace_out) {
  std::vector<std::string> args = {"ratt_bench", "--child",
                                   "--workload", opt.workload,
                                   "--seed",     std::to_string(opt.seed)};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  RepResult result;
  int fds[2];
  if (pipe(fds) != 0) {
    result.errors.push_back("pipe failed");
    return result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    result.errors.push_back("fork failed");
    return result;
  }
  std::string text;
  char buf[4096];
  for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) != 0;) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.errors.push_back("repetition process failed");
  }
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("value ", 0) == 0) {
      const std::size_t sp = line.find(' ', 6);
      result.values[line.substr(6, sp - 6)] =
          std::strtod(line.c_str() + sp + 1, nullptr);
    } else if (line.rfind("fnv ", 0) == 0) {
      result.fnv = line.substr(4);
    } else if (line.rfind("error ", 0) == 0) {
      result.errors.push_back(line.substr(6));
    }
  }
  return result;
}

struct WorkloadResult {
  std::string name;
  std::size_t measured = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Summary> end_to_end;
  std::map<std::string, double> per_layer;
  RepResult pins;  // the first repetition's pinned outputs
  bool correct() const { return failed == 0 && errors.empty(); }
};

double value_of(const RepResult& r, const char* key) {
  const auto it = r.values.find(key);
  return it == r.values.end() ? -1.0 : it->second;
}

/// Pinned outputs of `r` that differ from `ref` (golden entry or first
/// repetition), as "name: got vs want" strings.
std::vector<std::string> pin_mismatches(const RepResult& r,
                                        const RepResult& ref) {
  std::vector<std::string> out;
  for (const auto& [key, value_key] : kPins) {
    const double got = value_of(r, value_key);
    const double want = value_of(ref, value_key);
    if (got != want) {
      out.push_back(std::string(key) + ": " + num(got) + " vs " + num(want));
    }
  }
  if (r.fnv != ref.fnv) {
    out.push_back("trace_fnv: " + r.fnv + " vs " + ref.fnv);
  }
  return out;
}

/// golden.json entry for (workload, seed) as a RepResult, if pinned.
std::optional<RepResult> golden_pins(const Json* golden,
                                     const std::string& workload,
                                     std::uint64_t seed) {
  if (golden == nullptr) return std::nullopt;
  const Json* w = golden->find(workload);
  const Json* entry = w == nullptr ? nullptr : w->find(std::to_string(seed));
  if (entry == nullptr) return std::nullopt;
  RepResult pins;
  for (const auto& [key, value_key] : kPins) {
    const Json* v = entry->find(key);
    pins.values[value_key] = v == nullptr ? -1.0 : v->number;
  }
  const Json* fnv = entry->find("trace_fnv");
  pins.fnv = fnv == nullptr ? "" : fnv->string;
  return pins;
}

WorkloadResult measure_workload(const Options& opt, const Json* golden) {
  WorkloadResult wr;
  wr.name = opt.workload;
  const std::optional<RepResult> pinned =
      golden_pins(golden, opt.workload, opt.seed);

  std::vector<RepResult> runs;
  runs.push_back(spawn_repetition(opt, ""));  // warm-up, not measured
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (wr.measured < kMinReps || elapsed() < opt.seconds) {
    runs.push_back(spawn_repetition(opt, ""));
    ++wr.measured;
  }
  const std::string trace_path = opt.out_dir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) + ".json";
  if (opt.trace) runs.push_back(spawn_repetition(opt, trace_path));

  // Every run must pass its own invariants and produce the same pinned
  // outputs: the golden ones where this seed is pinned, else the first
  // run's (the simulation is deterministic per seed).
  const RepResult& reference = pinned.has_value() ? *pinned : runs.front();
  wr.pins = runs.front();
  for (const RepResult& r : runs) {
    ++wr.attempted;
    std::vector<std::string> errs = r.errors;
    for (const std::string& m : pin_mismatches(r, reference)) {
      errs.push_back("pin mismatch " + m);
    }
    if (!errs.empty()) ++wr.failed;
    for (const std::string& e : errs) {
      if (std::ranges::find(wr.errors, e) == wr.errors.end()) {
        wr.errors.push_back(e);
      }
    }
  }

  const auto measured_values = [&](const std::string& key) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= wr.measured; ++i) {
      v.push_back(value_of(runs[i], key.c_str()));
    }
    return v;
  };
  for (const EndToEnd& m : kEndToEnd) {
    wr.end_to_end[m.name] = summarize(measured_values(m.name));
  }
  if (!wr.correct()) {
    // A failed check reports every round as failed.
    Summary& valid = wr.end_to_end["valid_ratio"];
    valid = summarize({0.0});
  }
  if (opt.trace) {
    // Layer metrics every repetition measures are medians over the
    // measured ones; the replay and coverage exist only in the traced run.
    const RepResult& traced = runs.back();
    for (const PerLayer& m : kPerLayer) {
      wr.per_layer[m.name] = runs[1].values.contains(m.name)
                                 ? summarize(measured_values(m.name)).median
                                 : value_of(traced, m.name);
    }
    wr.per_layer["trace.overhead"] =
        value_of(traced, "total_s") / wr.end_to_end["total_s"].median - 1.0;
  }
  return wr;
}

// ---------------------------------------------------------------------
// Reporting.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint(const Options& opt) {
  __builtin_cpu_init();
  const bool sha = __builtin_cpu_supports("sha");
  const bool avx2 = __builtin_cpu_supports("avx2");
  return "{\"git_sha\":" + quoted(opt.git_sha) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + quoted(cpu_model()) +
         ",\"sha_ni\":" + (sha ? "true" : "false") +
         ",\"avx2\":" + (avx2 ? "true" : "false") +
         ",\"compiler\":" + quoted(__VERSION__) +
         ",\"build_type\":" + quoted(RATT_BENCH_BUILD_TYPE) +
         ",\"threads\":" + std::to_string(kThreads) +
         ",\"shards\":" + std::to_string(kShards) +
         ",\"seed\":" + std::to_string(opt.seed) + "}";
}

void print_workload(const WorkloadResult& wr, bool per_layer) {
  std::printf("workload %s: %zu measured repetitions (+1 warm-up%s), %s\n",
              wr.name.c_str(), wr.measured,
              per_layer ? ", +1 traced" : "",
              wr.correct() ? "outputs check out" : "OUTPUT CHECK FAILED");
  for (const std::string& e : wr.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  for (const EndToEnd& m : kEndToEnd) {
    const Summary& s = wr.end_to_end.at(m.name);
    std::printf("  %-36s %14.6g %-5s  (median, n=%zu; q1 %.6g  q3 %.6g  "
                "min %.6g  max %.6g)\n",
                m.name, s.median, m.unit, s.n, s.q1, s.q3, s.min, s.max);
  }
  if (!per_layer) return;
  for (const PerLayer& m : kPerLayer) {
    std::printf("  %-36s %14.6g %s\n", m.name, wr.per_layer.at(m.name),
                m.unit);
  }
}

std::string workload_json(const WorkloadResult& wr) {
  std::string out = "{\"correct\":" +
                    std::string(wr.correct() ? "true" : "false") +
                    ",\"measured\":" + std::to_string(wr.measured) +
                    ",\"pins\":{";
  for (const auto& [key, value_key] : kPins) {
    out += quoted(key) + ":" + num(value_of(wr.pins, value_key)) + ",";
  }
  out += "\"trace_fnv\":" + quoted(wr.pins.fnv) + "},\"end_to_end\":{";
  bool first = true;
  for (const EndToEnd& m : kEndToEnd) {
    const Summary& s = wr.end_to_end.at(m.name);
    out += std::string(first ? "" : ",") + quoted(m.name) +
           ":{\"unit\":" + quoted(m.unit) + ",\"n\":" + std::to_string(s.n) +
           ",\"median\":" + num(s.median) + ",\"min\":" + num(s.min) +
           ",\"max\":" + num(s.max) + ",\"q1\":" + num(s.q1) +
           ",\"q3\":" + num(s.q3) + "}";
    first = false;
  }
  out += "},\"per_layer\":{";
  first = true;
  for (const PerLayer& m : kPerLayer) {
    out += std::string(first ? "" : ",") + quoted(m.name) +
           ":{\"unit\":" + quoted(m.unit) +
           ",\"value\":" + num(wr.per_layer.at(m.name)) + "}";
    first = false;
  }
  return out + "}}";
}

/// The contract line: metrics are end-to-end medians, or (traced) the
/// per-layer values.
std::string result_line(const WorkloadResult& wr, bool per_layer) {
  std::string metrics;
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics += std::string(metrics.empty() ? "" : ", ") + quoted(name) +
               ": {\"value\": " + num(value) + ", \"unit\": " + quoted(unit) +
               "}";
  };
  if (per_layer) {
    for (const PerLayer& m : kPerLayer) {
      add(m.name, wr.per_layer.at(m.name), m.unit);
    }
  } else {
    for (const EndToEnd& m : kEndToEnd) {
      add(m.name, wr.end_to_end.at(m.name).median, m.unit);
    }
  }
  return "{\"correct\": " + std::string(wr.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(wr.attempted) +
         ", \"failed\": " + std::to_string(wr.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

std::optional<Json> load_golden(const Options& opt) {
  const std::string text = read_file(opt.golden);
  if (text.empty()) {
    std::fprintf(stderr, "note: no golden pins at %s\n", opt.golden.c_str());
    return std::nullopt;
  }
  std::optional<Json> golden = parse_json(text);
  if (!golden.has_value()) {
    std::fprintf(stderr, "cannot parse %s\n", opt.golden.c_str());
  }
  return golden;
}

int run_one(const Options& opt) {
  if (find_workload(opt.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::optional<Json> golden = load_golden(opt);
  const WorkloadResult wr =
      measure_workload(opt, golden ? &*golden : nullptr);
  print_workload(wr, opt.trace);
  std::printf("host %s\n", fingerprint(opt).c_str());
  std::printf("%s\n", result_line(wr, opt.trace).c_str());
  return wr.correct() ? 0 : 1;
}

int run_all(Options opt) {
  const std::optional<Json> golden = load_golden(opt);
  opt.trace = true;
  const std::string host = fingerprint(opt);
  std::printf("host %s\n", host.c_str());
  std::string set = "{\"host\":" + host + ",\"workloads\":{";
  bool all_correct = true;
  for (const WorkloadSpec& w : workloads()) {
    opt.workload = w.name;
    const WorkloadResult wr =
        measure_workload(opt, golden ? &*golden : nullptr);
    print_workload(wr, true);
    all_correct = all_correct && wr.correct();
    set += std::string(&w == workloads().data() ? "" : ",") + quoted(w.name) +
           ":" + workload_json(wr);
  }
  set += "}}";
  const std::string out_path =
      opt.out_dir + "/result-seed" + std::to_string(opt.seed) + ".json";
  std::ofstream(out_path, std::ios::binary) << set << "\n";
  std::printf("result: %s\n", out_path.c_str());
  if (!opt.history.empty()) {
    std::ofstream(opt.history, std::ios::binary | std::ios::app)
        << set << "\n";
    std::printf("appended to %s\n", opt.history.c_str());
  }
  return all_correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// --compare A.json B.json

int run_compare(const Options& opt) {
  std::optional<Json> sets[2];
  for (int i = 0; i < 2; ++i) {
    sets[i] = parse_json(read_file(opt.compare[i]));
    if (!sets[i].has_value() || sets[i]->find("workloads") == nullptr) {
      std::fprintf(stderr, "cannot read result set %s\n",
                   opt.compare[i].c_str());
      return 2;
    }
  }
  const auto summary_of = [](const Json* end_to_end, const char* metric) {
    const Json* m =
        end_to_end == nullptr ? nullptr : end_to_end->find(metric);
    Summary s;
    const auto get = [&](const char* k) {
      const Json* v = m == nullptr ? nullptr : m->find(k);
      return v == nullptr ? 0.0 : v->number;
    };
    s.n = static_cast<std::size_t>(get("n"));
    s.median = get("median");
    s.min = get("min");
    s.max = get("max");
    s.q1 = get("q1");
    s.q3 = get("q3");
    return s;
  };
  std::printf("%-16s %-15s %14s %12s %14s %12s %8s  %s\n", "workload",
              "metric", "A median", "A IQR", "B median", "B IQR", "B/A",
              "verdict");
  bool all_within = true;
  for (const auto& [name, a_w] : sets[0]->find("workloads")->object) {
    const Json* b_w = sets[1]->find("workloads")->find(name);
    if (b_w == nullptr) {
      std::printf("%-16s missing from B\n", name.c_str());
      all_within = false;
      continue;
    }
    const Json* a_e = a_w.find("end_to_end");
    const Json* b_e = b_w->find("end_to_end");
    for (const EndToEnd& m : kEndToEnd) {
      const Summary a = summary_of(a_e, m.name);
      const Summary b = summary_of(b_e, m.name);
      const Verdict v = judge(a, b, m.better, m.bound, m.floor);
      all_within = all_within && v == Verdict::kWithin;
      std::printf("%-16s %-15s %14.6g %12.4g %14.6g %12.4g %8.4f  %s\n",
                  name.c_str(), m.name, a.median, a.iqr(), b.median, b.iqr(),
                  a.median == 0.0 ? 0.0 : b.median / a.median, to_string(v));
    }
  }
  return all_within ? 0 : 1;
}

}  // namespace
}  // namespace ratt_bench

int main(int argc, char** argv) {
  using namespace ratt_bench;  // NOLINT
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--workload W] [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR] [--golden PATH] "
                 "[--history PATH] [--git-sha SHA] | "
                 "--compare A.json B.json\n",
                 argv[0]);
    return 2;
  }
  if (!opt.compare.empty()) return run_compare(opt);
  if (opt.child) return run_child(opt);
  if (!opt.workload.empty()) return run_one(opt);
  return run_all(opt);
}
