// round_bench: the repository's round benchmark.
//
//   round_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--users <n>] [--work-dir <dir>] [--trace-dir <dir>]
//               [--commit <sha>] [--source-digest <hex>]
//               [--corrupt-truths 1]
//
// --users shrinks the workload for smoke tests; --corrupt-truths flips one
// bit of the published truths before the check, to prove the gate fails.
//
// One run sets the workload up five times (inputs generated and perturbed,
// reports encoded, fleet started, warm-up round) and reports the median
// set-up time, then runs one untimed round, measures rounds over the last
// fleet for --seconds (at least kMinRounds) and checks the outputs. The last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run traces every other round and leaves the rest untraced, so the same
// run also measures the tracing overhead; it writes every span to a trace
// file. The exit code is 0 only when the correctness gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "crowd/ingest_pipeline.h"
#include "crowd/server.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "inputs.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kSetups = 5;
constexpr std::size_t kMinRounds = 5;
constexpr std::size_t kMaxRounds = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t users = 0;
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool corrupt_truths = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--users") {
      o.users = std::stoull(value);
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--source-digest") {
      o.source_digest = value;
    } else if (flag == "--corrupt-truths") {
      o.corrupt_truths = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double fleet_rss_mb(const std::vector<ShardProcess>& shards) {
  long kb = 0;
  for (const ShardProcess& p : shards) kb += p.max_rss_kb;
  return static_cast<double>(kb) / 1024.0;
}

// ---------------------------------------------------------------------------
// Merged trace: the benchmark process (process 0) and each shard process.

struct MergedSpan {
  std::string name;
  int process = 0;
  std::int64_t parent = -1;  ///< index into MergedTrace::spans
  Span span;
  std::int64_t children_busy_ns = 0;
};

struct MergedTrace {
  std::vector<MergedSpan> spans;

  void add(int process, const std::vector<std::string>& names,
           const std::vector<Span>& spans_in) {
    const auto base = static_cast<std::int64_t>(spans.size());
    for (const Span& s : spans_in) {
      MergedSpan m;
      m.name = names.at(s.name);
      m.process = process;
      m.parent = s.parent < 0 ? -1 : base + s.parent;
      m.span = s;
      spans.push_back(m);
    }
    for (auto i = static_cast<std::size_t>(base); i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        spans[static_cast<std::size_t>(spans[i].parent)].children_busy_ns +=
            spans[i].span.busy_ns;
      }
    }
  }

  /// Busy time of spans named `name` in `round`; process -1 = any process,
  /// 0 = the benchmark process.
  double busy(const std::string& name, std::uint64_t round,
              int process = -1) const {
    std::int64_t total = 0;
    for (const MergedSpan& m : spans) {
      if (m.span.round == round && m.name == name && match(m, process)) {
        total += m.span.busy_ns;
      }
    }
    return seconds(total);
  }

  double self(const std::string& name, std::uint64_t round,
              int process = -1) const {
    std::int64_t total = 0;
    for (const MergedSpan& m : spans) {
      if (m.span.round == round && m.name == name && match(m, process)) {
        total += m.span.busy_ns - m.children_busy_ns;
      }
    }
    return seconds(total);
  }

  /// Time spans named `name` in shard processes spend inside round
  /// `round`'s window [from, to]: single spans are clipped to the window,
  /// aggregates (short calls only) count by their round id.
  double in_window(const std::string& name, std::uint64_t round,
                   std::int64_t from, std::int64_t to) const {
    std::int64_t total = 0;
    for (const MergedSpan& m : spans) {
      if (m.process == 0 || m.name != name) continue;
      if (m.span.aggregate) {
        if (m.span.round == round) total += m.span.busy_ns;
        continue;
      }
      const std::int64_t a = std::max(from, m.span.start_ns);
      const std::int64_t b = std::min(to, m.span.end_ns);
      if (b > a) total += b - a;
    }
    return seconds(total);
  }

  static bool match(const MergedSpan& m, int process) {
    return process < 0 || m.process == process;
  }
};

// ---------------------------------------------------------------------------
// Metric tables.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every ShardOp frame the CRH and vote protocols send, by span suffix.
const std::vector<std::string>& shard_op_names() {
  static const std::vector<std::string> names = {
      "setup",
      "finalize_ingest",
      "batch-crh_prepare-set_weights-aggregate",
      "moments",
      "crh_loss",
      "batch-crh_weights-aggregate",
      "batch-collect_weights-get_telemetry",
      "batch-vote_prepare-set_weights-vote_scores",
      "vote_disagree",
      "batch-vote_weights-vote_scores",
  };
  return names;
}

std::size_t matrix_bytes(std::size_t users, std::size_t objects,
                         std::size_t claims) {
  // ObservationMatrix: CSR rows (one vector of Entry per user) plus the CSC
  // column arrays (user id + value per claim) and per-object offsets/counts.
  using Entry = dptd::data::ObservationMatrix::Entry;
  return users * sizeof(std::vector<Entry>) +
         claims * (sizeof(Entry) + sizeof(std::size_t) + sizeof(double)) +
         objects * 2 * sizeof(std::size_t);
}

struct Run {
  Options options;
  WorkloadConfig config;
  std::vector<double> setup_s;
  std::vector<RoundSample> rounds;
  std::vector<ShardProcess> shards;
  /// Summed shard peak RSS of each set-up's fleet; the last one is measured.
  std::vector<double> fleet_rss_mb;
  std::int64_t parent_max_rss_kb = 0;
  Inputs inputs;
  std::int64_t last_setup_start_ns = 0;
  std::int64_t last_setup_end_ns = 0;
};

std::vector<Metric> end_to_end_metrics(const Run& run) {
  std::vector<double> round_s, close_s;
  std::size_t reports = 0;
  std::int64_t ingest_ns = 0;
  double mae = 0.0, label_error = 0.0;
  std::size_t received = 0, first_submissions = 0;
  std::int64_t cpu_ns = 0;
  for (const RoundSample& r : run.rounds) {
    round_s.push_back(seconds(r.end_ns - r.start_ns));
    close_s.push_back(seconds(r.end_ns - r.close_start_ns));
    reports += r.submitted;
    ingest_ns += r.ingest_end_ns - r.ingest_start_ns;
    received += r.received;
    first_submissions += run.inputs.spec.users;
    cpu_ns += r.cpu_ns;
  }
  // Shard processes: CPU from just before the first measured round's setup
  // to the end of their service loop (idle between rounds costs nothing).
  long rss_kb = run.parent_max_rss_kb;
  for (const ShardProcess& p : run.shards) {
    const auto it = p.rounds.find(run.rounds.front().round);
    if (it != p.rounds.end()) {
      cpu_ns += p.cpu_exit_ns - it->second.cpu_at_start_ns;
    }
    rss_kb += p.max_rss_kb;
  }
  const std::vector<double>& truths = run.rounds.back().truths;
  std::size_t wrong = 0;
  for (std::size_t n = 0; n < truths.size(); ++n) {
    const double truth = run.inputs.truths[n];
    mae += std::fabs(truths[n] - truth);
    wrong += std::nearbyint(truths[n]) != truth ? 1 : 0;
  }
  mae /= static_cast<double>(truths.size());
  label_error = static_cast<double>(wrong) / static_cast<double>(truths.size());
  return {
      {"setup_s", "s", median(run.setup_s)},
      {"round_s", "s", median(round_s)},
      {"close_s", "s", median(close_s)},
      // Pooled over the rounds: a round's ingest time takes one of a few
      // levels, so the median of a few rounds jumps between them.
      {"reports_per_s", "reports/s",
       static_cast<double>(reports) / seconds(ingest_ns)},
      {"cpu_s_per_round", "s",
       seconds(cpu_ns) / static_cast<double>(run.rounds.size())},
      {"peak_rss_mb", "MiB", static_cast<double>(rss_kb) / 1024.0},
      {"mae_vs_truth", "value", mae},
      {"label_error", "fraction", label_error},
      {"reports_counted_frac", "fraction",
       static_cast<double>(received) / static_cast<double>(first_submissions)},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run,
                                      const MergedTrace& trace) {
  std::map<std::string, std::vector<double>> values;
  std::vector<double> traced_round_s, untraced_round_s;
  for (const RoundSample& r : run.rounds) {
    const double round_s = seconds(r.end_ns - r.start_ns);
    (r.traced ? traced_round_s : untraced_round_s).push_back(round_s);
    // Exact counts: identical in traced and untraced rounds.
    const double iterations = static_cast<double>(r.iterations);
    auto& v = values;
    v["crowd.duplicates_ignored"].push_back(static_cast<double>(r.duplicates));
    v["crowd.malformed_reports"].push_back(static_cast<double>(r.malformed));
    v["crowd.reports_rejected"].push_back(static_cast<double>(r.rejected));
    v["crowd.accept_ratio"].push_back(static_cast<double>(r.received) /
                                      static_cast<double>(r.submitted));
    v["truth.iterations"].push_back(iterations);
    v["dist.messages_per_iteration"].push_back(
        iterations > 0 ? static_cast<double>(r.iteration_messages) / iterations
                       : 0.0);
    v["dist.bytes_per_iteration"].push_back(
        iterations > 0 ? static_cast<double>(r.iteration_bytes) / iterations
                       : 0.0);
    v["dist.resends"].push_back(static_cast<double>(r.resends));
    v["dist.stale_responses"].push_back(static_cast<double>(r.stale_responses));
    v["dist.reports_undeliverable"].push_back(
        static_cast<double>(r.undeliverable));
    v["dist.useful_response_ratio"].push_back(
        r.responses > 0 ? static_cast<double>(r.responses - r.stale_responses) /
                              static_cast<double>(r.responses)
                        : 0.0);
    v["net.ingest_messages"].push_back(
        static_cast<double>(r.ingest_net.messages_sent));
    v["net.ingest_bytes"].push_back(
        static_cast<double>(r.ingest_net.bytes_sent));
    v["net.bytes_per_report"].push_back(
        static_cast<double>(r.ingest_net.bytes_sent) /
        static_cast<double>(r.submitted));
    v["net.close_messages"].push_back(
        static_cast<double>(r.close_net.messages_sent));
    v["net.close_bytes"].push_back(static_cast<double>(r.close_net.bytes_sent));
    if (!r.traced) continue;

    // Timings: traced rounds only.
    const std::uint64_t id = r.round;
    v["crowd.encode_s"].push_back(trace.busy("crowd.encode", id, 0));
    v["crowd.submit_s"].push_back(trace.busy("crowd.submit_view", id, 0));
    v["crowd.drain_s"].push_back(trace.busy("crowd.drain", id, 0));
    v["data.finalize_s"].push_back(
        trace.busy("data.finalize", id, 0) +
        trace.busy("dist.shard_op.finalize_ingest", id));
    const double run_s = trace.busy("truth.run_sharded", id, 0);
    v["truth.run_s"].push_back(run_s);
    v["truth.s_per_iteration"].push_back(iterations > 0 ? run_s / iterations
                                                        : 0.0);
    v["dist.begin_round_s"].push_back(trace.busy("dist.begin_round", id, 0));
    v["dist.route_s"].push_back(
        trace.self("dist.coord.on_message.report", id, 0));
    v["dist.shard_ingest_s"].push_back(
        trace.busy("dist.shard.on_message.report", id));
    double known_ops = 0.0;
    for (const std::string& op : shard_op_names()) {
      const double s = trace.busy("dist.shard_op." + op, id);
      known_ops += s;
      v["dist.shard_op_s." + op].push_back(s);
    }
    double all_ops = 0.0;
    for (const MergedSpan& m : trace.spans) {
      if (m.span.round == id && m.name.rfind("dist.shard_op.", 0) == 0) {
        all_ops += seconds(m.span.busy_ns);
      }
    }
    v["dist.shard_op_s.other"].push_back(std::max(0.0, all_ops - known_ops));
    v["dist.coord_close_self_s"].push_back(
        trace.self("dist.close_round", id, 0));
    v["net.send_s"].push_back(trace.busy("net.send", id, 0));
    v["net.progress_self_s"].push_back(trace.self("net.poll", id, 0) +
                                       trace.self("net.run_until_idle", id, 0));
    v["net.coord_wait_s"].push_back(trace.busy("net.poll.wait", id, 0));
    v["net.shard_idle_s"].push_back(
        trace.in_window("net.poll.wait", id, r.start_ns, r.end_ns));
  }

  // Set-up work of the kept (last) set-up.
  double perturb = 0.0, krr = 0.0;
  for (const MergedSpan& m : trace.spans) {
    if (m.process != 0 || m.span.start_ns < run.last_setup_start_ns ||
        m.span.end_ns > run.last_setup_end_ns) {
      continue;
    }
    if (m.name == "core.perturb_value") perturb += seconds(m.span.busy_ns);
    if (m.name == "categorical.krr_perturb") krr += seconds(m.span.busy_ns);
  }

  const std::size_t claims = run.inputs.valid_claims;
  std::vector<Metric> out = {
      {"core.perturb_s", "s", perturb},
      {"categorical.krr_s", "s", krr},
  };
  const auto add = [&](const std::string& name, const std::string& unit) {
    out.push_back({name, unit, median(values[name])});
  };
  add("crowd.encode_s", "s");
  add("crowd.submit_s", "s");
  add("crowd.drain_s", "s");
  add("crowd.duplicates_ignored", "count");
  add("crowd.malformed_reports", "count");
  add("crowd.reports_rejected", "count");
  add("crowd.accept_ratio", "fraction");
  add("data.finalize_s", "s");
  out.push_back({"data.claims", "count", static_cast<double>(claims)});
  out.push_back({"data.matrix_mb", "MiB",
                 static_cast<double>(matrix_bytes(run.inputs.spec.users,
                                                  run.inputs.spec.objects,
                                                  claims)) /
                     (1024.0 * 1024.0)});
  add("truth.run_s", "s");
  add("truth.iterations", "count");
  add("truth.s_per_iteration", "s");
  add("dist.begin_round_s", "s");
  add("dist.route_s", "s");
  add("dist.shard_ingest_s", "s");
  for (const std::string& op : shard_op_names()) {
    add("dist.shard_op_s." + op, "s");
  }
  add("dist.shard_op_s.other", "s");
  add("dist.coord_close_self_s", "s");
  add("dist.messages_per_iteration", "count");
  add("dist.bytes_per_iteration", "bytes");
  add("dist.resends", "count");
  add("dist.stale_responses", "count");
  add("dist.reports_undeliverable", "count");
  add("dist.useful_response_ratio", "fraction");
  add("net.send_s", "s");
  add("net.progress_self_s", "s");
  add("net.coord_wait_s", "s");
  add("net.ingest_messages", "count");
  add("net.ingest_bytes", "bytes");
  add("net.bytes_per_report", "bytes");
  add("net.close_messages", "count");
  add("net.close_bytes", "bytes");
  add("net.shard_idle_s", "s");
  out.push_back({"trace.overhead_frac", "fraction",
                 median(traced_round_s) / median(untraced_round_s) - 1.0});
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gate.

/// The published truths of the reference computation: the same reports
/// ingested at K=1 and aggregated by the in-process method.
std::vector<double> reference_truths(const WorkloadConfig& config,
                                     const Inputs& inputs, const Corpus& corpus,
                                     std::uint64_t round, std::size_t* claims) {
  const InputSpec& spec = inputs.spec;
  dptd::crowd::IngestPipeline pipeline(dptd::crowd::IngestPipelineConfig{1});
  const auto plan =
      dptd::data::ShardPlan::create(spec.users, 1, config.block_size);
  dptd::crowd::LabelIngestPolicy labels;
  labels.num_labels = spec.num_labels;
  pipeline.begin_round(plan, spec.objects, round, labels);
  for (const std::uint32_t user : inputs.submission) {
    pipeline.submit_view(user, corpus.payload(user), spec.categorical());
  }
  const auto matrix = dptd::data::ShardedMatrix::from_shards(
      plan, pipeline.finalize_shards(), spec.objects);
  *claims = matrix.observation_count();
  dptd::dist::MethodSpec method = config.method;
  method.crh.num_threads = 1;
  return dptd::dist::make_method(method)->run_sharded(matrix).truths;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<std::string> check(const Run& run, const Corpus& corpus) {
  std::vector<std::string> failures;
  const Inputs& in = run.inputs;
  for (const RoundSample& r : run.rounds) {
    const std::string at = "round " + std::to_string(r.round) + ": ";
    if (!r.aggregated) failures.push_back(at + "did not aggregate");
    if (r.duplicates != in.duplicates) {
      failures.push_back(at + "duplicates " + std::to_string(r.duplicates) +
                         " != injected " + std::to_string(in.duplicates));
    }
    if (r.malformed != in.malformed) {
      failures.push_back(at + "malformed " + std::to_string(r.malformed) +
                         " != injected " + std::to_string(in.malformed));
    }
    if (r.rejected != 0) failures.push_back(at + "reports rejected");
    if (r.undeliverable != 0) failures.push_back(at + "reports undeliverable");
    if (r.invalid_labels != 0) failures.push_back(at + "invalid labels");
    if (r.claims != 0 && r.claims != in.valid_claims) {
      failures.push_back(at + "claim count mismatch");
    }
    if (!same_bits(r.truths, run.rounds.front().truths)) {
      failures.push_back(at + "truths differ from the first measured round");
    }
  }
  std::size_t claims = 0;
  const std::vector<double> reference = reference_truths(
      run.config, in, corpus, run.rounds.back().round, &claims);
  if (claims != in.valid_claims) {
    failures.push_back("reference matrix holds " + std::to_string(claims) +
                       " claims, expected " + std::to_string(in.valid_claims));
  }
  if (!same_bits(run.rounds.back().truths, reference)) {
    failures.push_back(
        "published truths are not bitwise equal to the K=1 in-process "
        "reference");
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Output.

void write_metrics(dptd::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object();
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
}

void write_context(dptd::JsonWriter& json, const Run& run,
                   std::uint64_t input_digest) {
  const Options& o = run.options;
  json.begin_object();
  json.key("workload").value(o.workload);
  json.key("seed").value(static_cast<std::size_t>(o.seed));
  json.key("trace").value(o.trace);
  json.key("users").value(run.inputs.spec.users);
  json.key("objects").value(run.inputs.spec.objects);
  json.key("rounds").value(run.rounds.size());
  json.key("round_s").begin_array();
  for (const RoundSample& r : run.rounds) {
    json.value(seconds(r.end_ns - r.start_ns));
  }
  json.end_array();
  json.key("ingest_s").begin_array();
  for (const RoundSample& r : run.rounds) {
    json.value(seconds(r.ingest_end_ns - r.ingest_start_ns));
  }
  json.end_array();
  json.key("setup_s").begin_array();
  for (const double s : run.setup_s) json.value(s);
  json.end_array();
  json.key("iterations").value(
      run.rounds.empty() ? std::size_t{0} : run.rounds.front().iterations);
  json.key("benchmark_rss_mb").value(
      static_cast<double>(run.parent_max_rss_kb) / 1024.0);
  json.key("shard_rss_mb").begin_array();
  for (const ShardProcess& p : run.shards) {
    json.value(static_cast<double>(p.max_rss_kb) / 1024.0);
  }
  json.end_array();
  json.key("fleet_rss_mb").begin_array();
  for (const double mb : run.fleet_rss_mb) json.value(mb);
  json.end_array();
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(input_digest));
  json.key("input_digest").value(std::string(hex));
  json.key("nproc").value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("cpu_model").value(cpu_model());
  json.key("compiler").value(std::string(__VERSION__));
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("commit").value(o.commit);
  json.key("source_digest").value(o.source_digest);
  json.end_object();
}

void write_trace_file(const std::string& path, const Run& run,
                      std::uint64_t input_digest, const MergedTrace& trace) {
  std::ofstream out(path);
  dptd::JsonWriter json(out);
  json.begin_object();
  json.key("context");
  write_context(json, run, input_digest);
  json.key("rounds").begin_array();
  for (const RoundSample& r : run.rounds) {
    json.begin_object();
    json.key("round").value(static_cast<std::size_t>(r.round));
    json.key("traced").value(r.traced);
    json.key("start_ns").value(r.start_ns);
    json.key("ingest_start_ns").value(r.ingest_start_ns);
    json.key("ingest_end_ns").value(r.ingest_end_ns);
    json.key("close_start_ns").value(r.close_start_ns);
    json.key("end_ns").value(r.end_ns);
    json.key("iterations").value(r.iterations);
    json.end_object();
  }
  json.end_array();
  json.key("spans").begin_array();
  for (const MergedSpan& m : trace.spans) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("process").value(static_cast<std::int64_t>(m.process));
    json.key("parent").value(m.parent);
    json.key("round").value(static_cast<std::size_t>(m.span.round));
    json.key("start_ns").value(m.span.start_ns);
    json.key("end_ns").value(m.span.end_ns);
    json.key("busy_ns").value(m.span.busy_ns);
    json.key("self_ns").value(m.span.busy_ns - m.children_busy_ns);
    json.key("count").value(static_cast<std::size_t>(m.span.count));
    json.key("aggregate").value(m.span.aggregate);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

int run_benchmark(const Options& options) {
  dptd::set_log_level(dptd::LogLevel::kError);
  Run run;
  run.options = options;
  run.config = workload_config(options.workload, options.users);
  std::filesystem::create_directories(options.work_dir);

  Tracer tracer;
  tracer.set_enabled(options.trace);
  const std::uint32_t setup_span = tracer.intern("setup");
  std::unique_ptr<Workload> workload;
  Corpus corpus;
  for (int k = 0; k < kSetups; ++k) {
    if (workload) {
      run.fleet_rss_mb.push_back(fleet_rss_mb(workload->stop()));
      workload.reset();
      run.inputs = Inputs{};
      corpus = Corpus{};
    }
    tracer.set_round(0);
    const std::int64_t start = now_ns();
    {
      Scope scope(tracer, setup_span);
      workload = make_workload(run.config, tracer, options.trace,
                               options.work_dir);
      workload->start_fleet();
      run.inputs = generate_inputs(run.config.inputs, options.seed, tracer);
      encode_round(run.inputs, 1, tracer, corpus);
      workload->open(run.inputs, corpus);
    }
    run.last_setup_start_ns = start;
    run.last_setup_end_ns = now_ns();
    run.setup_s.push_back(seconds(run.last_setup_end_ns - start));
  }
  const std::uint64_t input_digest = digest(corpus);

  // One untimed full round first: it grows what outlives a round (queues,
  // routing state, the allocator's heap) to full size, which the 1% warm-up
  // of the set-up does not reach.
  tracer.set_enabled(false);
  encode_round(run.inputs, 2, tracer, corpus);
  workload->run_round(2, run.inputs, corpus);

  const std::int64_t measure_start = now_ns();
  for (std::uint64_t round = 3;; ++round) {
    const std::size_t done = run.rounds.size();
    if (done >= kMaxRounds ||
        (done >= kMinRounds &&
         seconds(now_ns() - measure_start) >= options.seconds)) {
      break;
    }
    const bool traced = traced_round(options.trace, round);
    tracer.set_enabled(traced);
    tracer.set_round(round);
    encode_round(run.inputs, round, tracer, corpus);
    RoundSample sample = workload->run_round(round, run.inputs, corpus);
    sample.traced = traced;
    run.rounds.push_back(std::move(sample));
  }
  tracer.set_enabled(false);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.parent_max_rss_kb = usage.ru_maxrss;
  run.shards = workload->stop();
  run.fleet_rss_mb.push_back(fleet_rss_mb(run.shards));
  workload.reset();

  // The end of a remote shard's ingest is only visible in its own records.
  for (RoundSample& r : run.rounds) {
    std::int64_t last = 0;
    for (const ShardProcess& p : run.shards) {
      const auto it = p.rounds.find(r.round);
      if (it != p.rounds.end()) {
        last = std::max(last, it->second.last_report_end_ns);
      }
    }
    if (last > 0) r.ingest_end_ns = last;
  }

  if (options.corrupt_truths) {
    double& t = run.rounds.back().truths.front();
    t = std::nextafter(t, t + 1.0);
  }
  const std::vector<std::string> failures = check(run, corpus);
  for (const std::string& f : failures) {
    std::cerr << "GATE FAILED: " << f << '\n';
  }

  MergedTrace trace;
  trace.add(0, tracer.names(), tracer.spans());
  for (std::size_t i = 0; i < run.shards.size(); ++i) {
    trace.add(static_cast<int>(i + 1), run.shards[i].names,
              run.shards[i].spans);
  }

  {
    dptd::JsonWriter json(std::cout);
    json.begin_object().key("context");
    write_context(json, run, input_digest);
    json.end_object();
    std::cout << '\n';
  }
  if (options.trace) {
    std::filesystem::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + options.workload +
                              "-seed" + std::to_string(options.seed) +
                              ".trace.json";
    write_trace_file(path, run, input_digest, trace);
    std::cout << "{\"trace_file\": \"" << path << "\"}\n";
  }

  std::size_t attempted = 0, received = 0;
  for (const RoundSample& r : run.rounds) {
    attempted += run.inputs.spec.users;
    received += r.received;
  }
  dptd::JsonWriter json(std::cout);
  json.begin_object();
  json.key("correct").value(failures.empty());
  json.key("attempted").value(attempted);
  json.key("failed").value(attempted - std::min(attempted, received));
  json.key("metrics");
  write_metrics(json, options.trace ? per_layer_metrics(run, trace)
                                    : end_to_end_metrics(run));
  json.end_object();
  std::cout << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "round_bench: " << e.what() << '\n';
    return 2;
  }
}
