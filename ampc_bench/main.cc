// ampc_bench — the repository's benchmark driver.
//
//   ampc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-file <path>]
//
// Generates the workload's graph from --seed, then runs its AMPC cores
// and MPC baselines (one fresh bench::BenchConfig cluster per job) in
// repetitions until --seconds have passed. Every job's output is checked
// against the seq/ oracles on the first repetition, every later output
// must reproduce the first one's digest, and each workload's
// non-vacuity gate must hold on every repetition. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, from
// untraced repetitions; with --trace 1 they are the per-layer ones, from
// traced repetitions interleaved with untraced ones (whose difference is
// the tracing overhead), plus isolated probes of single layers. The
// traced run writes its spans to --trace-file as Chrome trace-event
// JSON. Exit status is 1 when any check or gate fails, 2 on bad usage.
//
// Layers are measured from outside only: by timing each call into a
// layer's public functions, by reading Cluster::metrics() snapshots
// between jobs, and by the probes. README.md lists every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/timer.h"
#include "mpc/dataflow.h"
#include "sim/cluster.h"
#include "trace.h"
#include "workloads.h"

namespace ampc::bench {
namespace {

constexpr int kSetups = 5;      // setup_s is the median of these
constexpr int kMinReps = 3;     // per kind of repetition
constexpr int kMaxReps = 1000;  // runaway guard
constexpr int kProbeReps = 3;   // probe metrics are medians of these

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_file = "ampc_bench_trace.json";
};

struct JobRecord {
  double wall_s = 0;
  double sim_s = 0;
  MetricsSnapshot snapshot;

  /// Folds in the same job's record on another copy of the input.
  void Add(const JobRecord& other) {
    wall_s += other.wall_s;
    sim_s += other.sim_s;
    for (const auto& [name, value] : other.snapshot.counters) {
      int64_t& mine = snapshot.counters[name];
      // A watermark, not an amount: the copies' peak is the larger one.
      mine = name == "kv_peak_inflight_keys" ? std::max(mine, value)
                                             : mine + value;
    }
    for (const auto& [name, value] : other.snapshot.timers_sec) {
      snapshot.timers_sec[name] += value;
    }
  }

  int64_t Counter(const std::string& name) const {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  }
  double Timer(const std::string& name) const {
    const auto it = snapshot.timers_sec.find(name);
    return it == snapshot.timers_sec.end() ? 0.0 : it->second;
  }
};

/// One repetition: a record per job (index-aligned with the workload's
/// jobs, summed over the input's copies) and, in traced repetitions, one
/// per AMPC job's twin run.
struct Rep {
  std::vector<JobRecord> jobs;
  std::vector<JobRecord> twins;  // empty unless traced
};

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && args->seconds > 0 &&
                args->seconds <= 3600;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

SpanArgs SnapshotArgs(const JobRecord& record) {
  SpanArgs args;
  for (const auto& [name, value] : record.snapshot.counters) {
    args.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : record.snapshot.timers_sec) {
    args.emplace_back(name, value);
  }
  return args;
}

/// Runs `job` on a fresh cluster; the timed region is the call into the
/// layer's entry point alone.
JobRecord RunJob(const Job& job, const Inputs& inputs,
                 const sim::ClusterConfig& config, Tracer& tracer,
                 const std::string& span_name, JobOutput* output) {
  JobRecord record;
  sim::Cluster cluster(config);
  ScopedSpan span(tracer, span_name, job.ampc ? "core" : "baselines");
  WallTimer timer;
  *output = job.run(cluster, inputs);
  record.wall_s = timer.Seconds();
  record.snapshot = cluster.metrics().Snapshot();
  record.sim_s = cluster.SimSeconds();
  if (tracer.enabled()) span.SetArgs(SnapshotArgs(record));
  return record;
}

/// Checks every job output: the first one of each (job, copy) against
/// the oracle (and proves the check rejects a corrupted copy), every
/// later one by digest against the first.
class OutputChecker {
 public:
  OutputChecker(const Workload& workload, const std::vector<Inputs>& inputs,
                Tracer& tracer)
      : workload_(workload),
        inputs_(inputs),
        tracer_(tracer),
        digests_(workload.jobs.size() * inputs.size(), 0),
        checked_(workload.jobs.size() * inputs.size(), false) {
    ScopedSpan span(tracer_, "seq.oracle", "seq");
    WallTimer timer;
    std::vector<OutputKind> kinds;
    for (const Job& job : workload.jobs) kinds.push_back(job.kind);
    for (const Inputs& copy : inputs) {
      oracles_.push_back(BuildOracle(copy, kinds));
    }
    check_s_ += timer.Seconds();
  }

  void Accept(size_t job_index, size_t copy, const JobOutput& output) {
    ++attempted_;
    const Job& job = workload_.jobs[job_index];
    const size_t slot = job_index * inputs_.size() + copy;
    const uint64_t digest = Digest(output);
    bool ok = true;
    if (!checked_[slot]) {
      ScopedSpan span(tracer_, "check:" + job.name, "seq");
      WallTimer timer;
      const Inputs& in = inputs_[copy];
      const double tolerance = job.ampc ? kMonteCarloPageRankL1
                                        : kPowerPageRankL1;
      std::string why;
      if (!Check(output, in, oracles_[copy], tolerance, &why)) {
        std::fprintf(stderr, "FAIL %s: %s\n", job.name.c_str(), why.c_str());
        ok = false;
      } else if (Check(Corrupt(output, in), in, oracles_[copy], tolerance,
                       nullptr)) {
        std::fprintf(stderr, "FAIL %s: check accepted a corrupted output\n",
                     job.name.c_str());
        ok = false;
      }
      check_s_ += timer.Seconds();
      checked_[slot] = true;
      digests_[slot] = digest;
    } else if (digest != digests_[slot]) {
      std::fprintf(stderr, "FAIL %s: output differs from repetition 1\n",
                   job.name.c_str());
      ok = false;
    }
    if (!ok) ++failed_;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double check_s() const { return check_s_; }

 private:
  const Workload& workload_;
  const std::vector<Inputs>& inputs_;
  Tracer& tracer_;
  std::vector<Oracle> oracles_;
  std::vector<uint64_t> digests_;
  std::vector<bool> checked_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double check_s_ = 0;
};

Rep RunRep(const Workload& workload, const std::vector<Inputs>& inputs,
           const sim::ClusterConfig& config, Tracer& tracer,
           OutputChecker& checker) {
  Rep rep;
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    const Job& job = workload.jobs[i];
    JobRecord total, twin_total;
    for (size_t copy = 0; copy < inputs.size(); ++copy) {
      JobOutput output;
      total.Add(
          RunJob(job, inputs[copy], config, tracer, job.name, &output));
      checker.Accept(i, copy, output);
      // The traced run runs every AMPC job twice: the twin's deltas are
      // the schedule-dependence of the cost model (informational only).
      if (tracer.enabled() && job.ampc) {
        twin_total.Add(RunJob(job, inputs[copy], config, tracer,
                              "twin:" + job.name, &output));
        checker.Accept(i, copy, output);
      }
    }
    rep.jobs.push_back(std::move(total));
    if (tracer.enabled() && job.ampc) rep.twins.push_back(std::move(twin_total));
  }
  return rep;
}

using JobFilter = std::function<bool(const Job&)>;

// Sums counter `name` over the jobs `pick` selects.
int64_t SumCounter(const Workload& w, const Rep& rep, const std::string& name,
                   const JobFilter& pick) {
  int64_t total = 0;
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    if (pick(w.jobs[i])) total += rep.jobs[i].Counter(name);
  }
  return total;
}

double SumTimer(const Workload& w, const Rep& rep, const std::string& name,
                const JobFilter& pick) {
  double total = 0;
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    if (pick(w.jobs[i])) total += rep.jobs[i].Timer(name);
  }
  return total;
}

// Sums JobRecord::wall_s or JobRecord::sim_s over the jobs `pick` selects.
double SumField(const Workload& w, const Rep& rep, double JobRecord::*field,
                const JobFilter& pick) {
  double total = 0;
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    if (pick(w.jobs[i])) total += rep.jobs[i].*field;
  }
  return total;
}

const JobFilter kAmpcJobs = [](const Job& j) { return j.ampc; };
const JobFilter kMpcJobs = [](const Job& j) { return !j.ampc; };
const JobFilter kAllJobs = [](const Job&) { return true; };

/// The workload's non-vacuity gate on one repetition: a measurement
/// whose mechanism never ran measures nothing.
bool GateHolds(const Workload& w, const Rep& rep) {
  bool ok = true;
  const auto require = [&](bool holds, const char* what) {
    if (!holds) {
      std::fprintf(stderr, "GATE %s: %s\n", w.name.c_str(), what);
      ok = false;
    }
  };
  if (w.name == "peel_social") {
    require(SumCounter(w, rep, "kv_reads", kAmpcJobs) > 0, "kv_reads == 0");
    require(SumCounter(w, rep, "cache_hits", kAmpcJobs) > 0,
            "cache_hits == 0");
  } else if (w.name == "forest_web") {
    require(SumCounter(w, rep, "kv_read_bytes", kAmpcJobs) > 0,
            "kv_read_bytes == 0 (the in-memory fallback ran instead)");
  } else if (w.name == "greedy_churn") {
    require(SumCounter(w, rep, "machines_lost", kAllJobs) > 0,
            "machines_lost == 0");
    require(SumCounter(w, rep, "machines_drained", kAllJobs) > 0,
            "machines_drained == 0");
    require(SumCounter(w, rep, "checkpoints", kAllJobs) > 0,
            "checkpoints == 0");
  }
  return ok;
}

/// Medians over repetitions of a per-repetition metric map.
MetricMap MedianOf(const std::vector<MetricMap>& per_rep) {
  MetricMap out;
  if (per_rep.empty()) return out;
  for (const auto& [name, value_unit] : per_rep.front()) {
    std::vector<double> values;
    for (const MetricMap& m : per_rep) values.push_back(m.at(name).first);
    out[name] = {Median(values), value_unit.second};
  }
  return out;
}

MetricMap EndToEnd(const Workload& w, const Rep& rep) {
  MetricMap m;
  m["ampc_wall_s"] = {SumField(w, rep, &JobRecord::wall_s, kAmpcJobs), "s"};
  m["mpc_wall_s"] = {SumField(w, rep, &JobRecord::wall_s, kMpcJobs), "s"};
  m["ampc_sim_s"] = {SumField(w, rep, &JobRecord::sim_s, kAmpcJobs), "sim_s"};
  m["mpc_sim_s"] = {SumField(w, rep, &JobRecord::sim_s, kMpcJobs), "sim_s"};
  for (const char* counter : {"rounds", "shuffles"}) {
    m[std::string("ampc_") + counter] = {
        static_cast<double>(SumCounter(w, rep, counter, kAmpcJobs)), "count"};
    m[std::string("mpc_") + counter] = {
        static_cast<double>(SumCounter(w, rep, counter, kMpcJobs)), "count"};
  }
  return m;
}

MetricMap PerLayer(const Workload& w, const Rep& rep,
                   const sim::ClusterConfig& config) {
  MetricMap m;
  const auto count = [&](const char* name, int64_t v) {
    m[name] = {static_cast<double>(v), "count"};
  };
  const auto bytes = [&](const char* name, int64_t v) {
    m[name] = {static_cast<double>(v), "B"};
  };
  const int64_t hits = SumCounter(w, rep, "cache_hits", kAmpcJobs);
  const int64_t misses = SumCounter(w, rep, "cache_misses", kAmpcJobs);
  count("kv.reads", SumCounter(w, rep, "kv_reads", kAmpcJobs));
  m["kv.cache_hit_rate"] = {
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses),
      "ratio"};
  bytes("kv.read_bytes", SumCounter(w, rep, "kv_read_bytes", kAmpcJobs));
  bytes("kv.write_bytes", SumCounter(w, rep, "kv_write_bytes", kAmpcJobs));
  bytes("kv.replication_bytes",
        SumCounter(w, rep, "kv_replication_bytes", kAllJobs));
  bytes("kv.migration_bytes",
        SumCounter(w, rep, "kv_migration_bytes", kAllJobs));
  bytes("mpc.shuffle_bytes", SumCounter(w, rep, "shuffle_bytes", kMpcJobs));
  count("sim.lookup_trips", SumCounter(w, rep, "kv_lookup_trips", kAmpcJobs));
  int64_t peak_inflight = 0;
  for (const JobRecord& r : rep.jobs) {
    peak_inflight = std::max(peak_inflight, r.Counter("kv_peak_inflight_keys"));
  }
  count("sim.peak_inflight_keys", peak_inflight);
  m["sim.recovery_s"] = {SumTimer(w, rep, "sim:recovery", kAllJobs),
                        "sim_s"};
  m["sim.checkpoint_s"] = {SumTimer(w, rep, "sim:checkpoint", kAllJobs),
                          "sim_s"};
  m["sim.drain_s"] = {SumTimer(w, rep, "sim:drain", kAllJobs), "sim_s"};
  count("sim.machines_lost", SumCounter(w, rep, "machines_lost", kAllJobs));
  count("sim.machines_drained",
        SumCounter(w, rep, "machines_drained", kAllJobs));
  count("sim.checkpoints", SumCounter(w, rep, "checkpoints", kAllJobs));
  const double sim_total = SumField(w, rep, &JobRecord::sim_s, kAllJobs);
  const double spawn = static_cast<double>(
                           SumCounter(w, rep, "rounds", kAllJobs)) *
                       config.round_spawn_sec;
  m["sim.spawn_share"] = {sim_total > 0 ? spawn / sim_total : 0.0, "ratio"};
  m["sim.phase_wall_s"] = {SumTimer(w, rep, "wall_total", kAllJobs), "s"};
  count("sim.map_items", SumCounter(w, rep, "map_items", kAllJobs));

  // Every job of every workload has its metrics on every workload, zero
  // where the workload does not run it, so the metric set is fixed.
  for (const Workload& any : Workloads()) {
    for (const Job& job : any.jobs) {
      m[job.name + ".wall_s"] = {0.0, "s"};
      m[job.name + ".sim_s"] = {0.0, "sim_s"};
      m[job.name + ".rounds"] = {0.0, "count"};
      m[job.name + (job.ampc ? ".host_logic_s" : ".shuffles")] = {
          0.0, job.ampc ? "s" : "count"};
    }
  }
  double twin_sim = 0;
  int64_t twin_trips = 0;
  size_t twin = 0;
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    const Job& job = w.jobs[i];
    const JobRecord& r = rep.jobs[i];
    m[job.name + ".wall_s"].first = r.wall_s;
    m[job.name + ".sim_s"].first = r.sim_s;
    m[job.name + ".rounds"].first = static_cast<double>(r.Counter("rounds"));
    if (job.ampc) {
      m[job.name + ".host_logic_s"].first = r.wall_s - r.Timer("wall_total");
      if (twin < rep.twins.size()) {
        const JobRecord& t = rep.twins[twin++];
        twin_sim += std::abs(r.sim_s - t.sim_s);
        twin_trips += std::abs(r.Counter("kv_lookup_trips") -
                               t.Counter("kv_lookup_trips"));
      }
    } else {
      m[job.name + ".shuffles"].first =
          static_cast<double>(r.Counter("shuffles"));
    }
  }
  m["sim.twin_sim_delta_s"] = {twin_sim, "sim_s"};
  count("sim.twin_trips_delta", twin_trips);
  return m;
}

/// Isolated probes of single layers on the workload's own graph, with
/// the fault model off so only the probed layer runs.
MetricMap Probe(const Inputs& inputs, sim::ClusterConfig config,
                Tracer& tracer, bool* ok) {
  config.faults = sim::ClusterConfig::FaultConfig{};
  const graph::Graph& g = inputs.graph;
  const int64_t n = g.num_nodes();
  MetricMap m;

  // kv: one write phase of every vertex's degree, then a batched sweep
  // that looks up every neighbour of every vertex, cache on and off.
  for (const bool cache : {true, false}) {
    config.query_cache.enabled = cache;
    sim::Cluster cluster(config);
    kv::ShardedStore<int32_t> store = cluster.MakeStore<int32_t>(n);
    WallTimer timer;
    {
      ScopedSpan span(tracer, "probe:kv.write", "kv");
      cluster.RunKvWritePhase("probe_write", store, n, [&](int64_t v) {
        return static_cast<int32_t>(g.degree(static_cast<graph::NodeId>(v)));
      });
    }
    if (cache) m["kv.write_ns_per_key"] = {timer.Seconds() * 1e9 / n, "ns"};
    std::atomic<int64_t> keys{0};
    std::atomic<int64_t> missing{0};
    ScopedSpan span(tracer, cache ? "probe:kv.lookup" : "probe:kv.nocache",
                    "kv");
    timer.Reset();
    cluster.RunBatchMapPhase(
        "probe_lookup", n,
        [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
          std::vector<uint64_t> batch;
          for (const int64_t v : items) {
            for (const graph::NodeId u :
                 g.neighbors(static_cast<graph::NodeId>(v))) {
              batch.push_back(u);
            }
          }
          const kv::LookupBatchResult<int32_t> result =
              ctx.LookupMany(store, batch);
          int64_t absent = 0;
          for (const int32_t* value : result.values) absent += value == nullptr;
          keys.fetch_add(static_cast<int64_t>(batch.size()));
          missing.fetch_add(absent);
        });
    const double ns = timer.Seconds() * 1e9 /
                      static_cast<double>(std::max<int64_t>(1, keys.load()));
    m[cache ? "kv.lookup_ns_per_key" : "kv.lookup_nocache_ns_per_key"] = {
        ns, "ns"};
    if (keys.load() != g.num_arcs() || missing.load() != 0) {
      std::fprintf(stderr, "FAIL probe: lookup sweep lost keys\n");
      *ok = false;
    }
  }

  // mpc: GroupByKey of the workload's arcs by source vertex.
  {
    sim::Cluster cluster(config);
    mpc::PCollection<mpc::KV<graph::NodeId, graph::NodeId>> records;
    records.reserve(static_cast<size_t>(g.num_arcs()));
    int64_t sources = 0;
    for (int64_t v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(static_cast<graph::NodeId>(v));
      sources += !nbrs.empty();
      for (const graph::NodeId u : nbrs) {
        records.emplace_back(static_cast<graph::NodeId>(v), u);
      }
    }
    ScopedSpan span(tracer, "probe:mpc.group_by_key", "mpc");
    WallTimer timer;
    const auto groups =
        mpc::GroupByKey(cluster, "probe_group", std::move(records));
    const double seconds = timer.Seconds();
    m["mpc.group_by_key_s"] = {seconds, "s"};
    m["mpc.group_by_key_mb_per_s"] = {
        static_cast<double>(cluster.metrics().Get("shuffle_bytes")) / 1e6 /
            seconds,
        "MB/s"};
    if (static_cast<int64_t>(groups.size()) != sources) {
      std::fprintf(stderr, "FAIL probe: GroupByKey lost groups\n");
      *ok = false;
    }
  }
  return m;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    const double value =
        std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value,
                value_unit.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ampc_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "ampc_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  const int run_span = tracer.Begin("run:" + workload.name, "bench");

  std::vector<Inputs> inputs;
  std::vector<double> setup_s, generate_s, build_s;
  for (int i = 0; i < kSetups; ++i) {
    inputs.clear();  // free the previous setup outside the timed region
    ScopedSpan span(tracer, "setup", "bench");
    WallTimer timer;
    SetupTimes times;
    inputs = Setup(workload, args.seed, tracer, &times);
    setup_s.push_back(timer.Seconds());
    generate_s.push_back(times.generate_s);
    build_s.push_back(times.build_s);
  }
  const sim::ClusterConfig config = ConfigFor(workload, inputs.front());
  OutputChecker checker(workload, inputs, tracer);

  // A warm-up repetition (checked, not measured) lets the allocator and
  // page cache settle. Untraced repetitions then give the end-to-end
  // metrics; the traced run interleaves traced ones, so both see the
  // same host conditions.
  bool gates = GateHolds(
      workload, RunRep(workload, inputs, config, untraced, checker));
  std::vector<Rep> plain, traced;
  WallTimer budget;
  for (int r = 0; r < kMaxReps; ++r) {
    const bool enough = static_cast<int>(plain.size()) >= kMinReps &&
                        (!args.trace ||
                         static_cast<int>(traced.size()) >= kMinReps);
    if (enough && budget.Seconds() >= args.seconds) break;
    const bool traced_rep = args.trace && r % 2 == 1;
    Tracer& rep_tracer = traced_rep ? tracer : untraced;
    ScopedSpan span(rep_tracer, "rep " + std::to_string(traced.size()),
                    "bench");
    Rep rep = RunRep(workload, inputs, config, rep_tracer, checker);
    gates = GateHolds(workload, rep) && gates;
    (traced_rep ? traced : plain).push_back(std::move(rep));
  }

  MetricMap metrics;
  bool probes_ok = true;
  if (!args.trace) {
    std::vector<MetricMap> per_rep;
    for (const Rep& rep : plain) per_rep.push_back(EndToEnd(workload, rep));
    metrics = MedianOf(per_rep);
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
  } else {
    std::vector<MetricMap> per_rep;
    for (const Rep& rep : traced) {
      per_rep.push_back(PerLayer(workload, rep, config));
    }
    metrics = MedianOf(per_rep);
    std::vector<MetricMap> probes;
    for (int i = 0; i < kProbeReps; ++i) {
      probes.push_back(Probe(inputs.front(), config, tracer, &probes_ok));
    }
    for (const auto& [name, value] : MedianOf(probes)) metrics[name] = value;
    metrics["graph.generate_s"] = {Median(generate_s), "s"};
    metrics["graph.build_s"] = {Median(build_s), "s"};
    int64_t arcs = 0;
    for (const Inputs& copy : inputs) arcs += copy.graph.num_arcs();
    metrics["graph.arcs"] = {static_cast<double>(arcs), "count"};
    metrics["seq.check_s"] = {checker.check_s(), "s"};
    std::vector<double> plain_wall, traced_wall;
    for (const Rep& rep : plain) {
      plain_wall.push_back(
          SumField(workload, rep, &JobRecord::wall_s, kAllJobs));
    }
    for (const Rep& rep : traced) {
      traced_wall.push_back(
          SumField(workload, rep, &JobRecord::wall_s, kAllJobs));
    }
    metrics["trace.overhead_s"] = {Median(traced_wall) - Median(plain_wall),
                                   "s"};
  }
  tracer.End(run_span);
  bool trace_ok = true;
  if (args.trace && !tracer.WriteChromeJson(args.trace_file)) {
    std::fprintf(stderr, "FAIL cannot write %s\n", args.trace_file.c_str());
    trace_ok = false;
  }
  const bool correct =
      checker.failed() == 0 && gates && probes_ok && trace_ok;
  PrintResult(correct, checker.attempted(), checker.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ampc::bench

int main(int argc, char** argv) { return ampc::bench::Main(argc, argv); }
