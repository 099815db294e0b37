// The benchmark's three workloads: each a seeded stand-in graph, a
// cluster configuration, and the AMPC cores and MPC baselines run on it.
//
// The workloads are chosen to separate layers (README.md has the full
// rationale):
//   peel_social   k-core + PageRank: the cached, batched lookup path
//                 (kv::QueryCache + LookupManyAsync) does most host work.
//   forest_web    MSF + connectivity: the mpc shuffle engine and the kv
//                 write phases dominate; half the jobs never look up.
//   greedy_churn  MIS + matching under seeded machine kills: scalar
//                 lookups, replicated writes, and the sim fault layer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "sim/cluster.h"
#include "trace.h"

namespace ampc::bench {

/// One operation: an AMPC core or an MPC baseline on a fresh cluster.
struct Job {
  /// Metric prefix, "core.<alg>" or "baselines.<alg>".
  std::string name;
  bool ampc = true;
  OutputKind kind = OutputKind::kMis;
  /// Runs the job; algorithm seeds come from the cluster's config.
  std::function<JobOutput(sim::Cluster&, const Inputs&)> run;
};

struct Workload {
  std::string name;
  int log2_nodes = 0;
  int64_t num_edges = 0;
  double rmat_a = 0.57;
  bool weighted = false;  // build the degree-weighted edge list
  bool faults = false;    // seeded kills, replication, checkpoints, drains
  /// Isomorphic copies of the graph; every repetition runs each job on
  /// each copy, and the job's metrics are the sums over copies.
  int copies = 1;
  std::vector<Job> jobs;
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Host seconds of one setup, split by step.
struct SetupTimes {
  double generate_s = 0;  // graph::GenerateRmat
  double build_s = 0;     // graph::BuildGraph + degree weighting
};

/// Generates the workload's copies from `seed`, recording one span per
/// step under the tracer's open span.
std::vector<Inputs> Setup(const Workload& workload, uint64_t seed,
                          Tracer& tracer, SetupTimes* times);

/// bench::BenchConfig for the input, plus the workload's fault model.
/// The algorithm and kill-schedule seeds are the config's defaults: the
/// benchmark seed reaches the program only through the generated input.
sim::ClusterConfig ConfigFor(const Workload& workload, const Inputs& inputs);

}  // namespace ampc::bench
