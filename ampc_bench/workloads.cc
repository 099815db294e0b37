#include "workloads.h"

#include <numeric>
#include <utility>

#include "baselines/boruvka.h"
#include "baselines/local_contraction.h"
#include "baselines/mpc_kcore.h"
#include "baselines/mpc_pagerank.h"
#include "baselines/rootset_matching.h"
#include "baselines/rootset_mis.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/pagerank.h"
#include "graph/generators.h"

namespace ampc::bench {
namespace {

JobOutput Flags(std::vector<uint8_t> flags) {
  JobOutput out;
  out.kind = OutputKind::kMis;
  out.flags = std::move(flags);
  return out;
}

JobOutput Ids(OutputKind kind, std::vector<graph::NodeId> ids) {
  JobOutput out;
  out.kind = kind;
  out.ids = std::move(ids);
  return out;
}

JobOutput Forest(std::vector<graph::EdgeId> edges) {
  JobOutput out;
  out.kind = OutputKind::kMsf;
  out.edges = std::move(edges);
  return out;
}

JobOutput Coreness(std::vector<int32_t> coreness) {
  JobOutput out;
  out.kind = OutputKind::kCoreness;
  out.coreness = std::move(coreness);
  return out;
}

JobOutput Rank(std::vector<double> rank) {
  JobOutput out;
  out.kind = OutputKind::kPageRank;
  out.rank = std::move(rank);
  return out;
}

// The graph's shape is fixed per workload, as the paper's datasets are
// (the same convention as bench::LoadDatasets). Round counts of the
// peeling and contraction algorithms are properties of the shape and
// swing by a quarter between RMAT draws of one size, which would drown
// any change a later commit makes.
constexpr uint64_t kShapeSeed = 0x5eed0;

// MSF and connectivity run the paper's practical configuration: one
// search pass, then the in-memory finish (Section 5.5). Uncapped, the
// pass count flips between one and two across copies of one shape,
// because the graph left after the first pass lands near
// in_memory_threshold_arcs.
constexpr int kMsfSearchPasses = 1;

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBelow(i)]);
  }
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload peel;
  peel.name = "peel_social";
  peel.log2_nodes = 14;
  peel.num_edges = 150'000;
  peel.rmat_a = 0.57;
  peel.jobs = {
      {"core.kcore", true, OutputKind::kCoreness,
       [](sim::Cluster& c, const Inputs& in) {
         return Coreness(core::AmpcKCore(c, in.graph).coreness);
       }},
      {"core.pagerank", true, OutputKind::kPageRank,
       [](sim::Cluster& c, const Inputs& in) {
         core::PageRankMcOptions options;
         options.seed = c.config().seed;
         return Rank(core::AmpcMonteCarloPageRank(c, in.graph, options).rank);
       }},
      {"baselines.kcore", false, OutputKind::kCoreness,
       [](sim::Cluster& c, const Inputs& in) {
         return Coreness(baselines::MpcKCore(c, in.graph).coreness);
       }},
      {"baselines.pagerank", false, OutputKind::kPageRank,
       [](sim::Cluster& c, const Inputs& in) {
         seq::PageRankOptions options;
         options.tolerance = 1e-6;
         return Rank(baselines::MpcPageRank(c, in.graph, options).rank);
       }},
  };
  all.push_back(std::move(peel));

  Workload forest;
  forest.name = "forest_web";
  forest.log2_nodes = 13;
  forest.num_edges = 150'000;
  // Less skew than the 0.65 web crawls of bench::LoadDatasets: at 0.65
  // the AMPC jobs' host time swung by 40% with where the hubs landed.
  forest.rmat_a = 0.6;
  forest.weighted = true;
  // Boruvka's phase count swings by ~10% between copies; the sum over
  // six copies holds it steady.
  forest.copies = 6;
  forest.jobs = {
      {"core.msf", true, OutputKind::kMsf,
       [](sim::Cluster& c, const Inputs& in) {
         core::MsfOptions options;
         options.seed = c.config().seed;
         options.max_rounds = kMsfSearchPasses;
         return Forest(core::AmpcMsf(c, in.weighted, options).edges);
       }},
      {"core.connectivity", true, OutputKind::kComponents,
       [](sim::Cluster& c, const Inputs& in) {
         core::MsfOptions options;
         options.seed = c.config().seed;
         options.max_rounds = kMsfSearchPasses;
         return Ids(OutputKind::kComponents,
                    core::AmpcConnectivity(c, in.edges, options).component);
       }},
      {"baselines.boruvka", false, OutputKind::kMsf,
       [](sim::Cluster& c, const Inputs& in) {
         return Forest(baselines::MpcBoruvkaMsf(c, in.weighted,
                                                 c.config().seed).edges);
       }},
      {"baselines.local_contraction", false, OutputKind::kComponents,
       [](sim::Cluster& c, const Inputs& in) {
         return Ids(OutputKind::kComponents,
                    baselines::MpcLocalContractionCC(c, in.edges,
                                                    c.config().seed)
                        .component);
       }},
  };
  all.push_back(std::move(forest));

  Workload churn;
  churn.name = "greedy_churn";
  churn.log2_nodes = 17;
  churn.num_edges = 2'000'000;
  churn.rmat_a = 0.57;
  churn.faults = true;
  churn.jobs = {
      {"core.mis", true, OutputKind::kMis,
       [](sim::Cluster& c, const Inputs& in) {
         return Flags(core::AmpcMis(c, in.graph, c.config().seed).in_mis);
       }},
      {"core.matching", true, OutputKind::kMatching,
       [](sim::Cluster& c, const Inputs& in) {
         core::MatchingOptions options;
         options.seed = c.config().seed;
         return Ids(OutputKind::kMatching,
                    core::AmpcMatching(c, in.graph, options).partner);
       }},
      {"baselines.rootset_mis", false, OutputKind::kMis,
       [](sim::Cluster& c, const Inputs& in) {
         return Flags(baselines::MpcRootsetMis(c, in.graph, c.config().seed).in_mis);
       }},
      {"baselines.rootset_matching", false, OutputKind::kMatching,
       [](sim::Cluster& c, const Inputs& in) {
         return Ids(OutputKind::kMatching,
                    baselines::MpcRootsetMatching(c, in.graph,
                                                    c.config().seed).partner);
       }},
  };
  all.push_back(std::move(churn));
  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Inputs> Setup(const Workload& workload, uint64_t seed,
                          Tracer& tracer, SetupTimes* times) {
  std::vector<Inputs> copies(static_cast<size_t>(workload.copies));
  WallTimer timer;
  {
    ScopedSpan span(tracer, "graph.generate", "graph");
    graph::RmatOptions options;
    options.a = workload.rmat_a;
    options.b = (1.0 - workload.rmat_a) / 3.0;
    options.c = (1.0 - workload.rmat_a) / 3.0;
    const graph::EdgeList shape =
        graph::GenerateRmat(workload.log2_nodes, workload.num_edges,
                            kShapeSeed + workload.log2_nodes, options);
    // The seed picks isomorphic copies of the fixed shape: vertex ids
    // permuted and edges listed in a shuffled order.
    Rng rng(Hash64(seed, 0x9e4a));
    for (Inputs& in : copies) {
      std::vector<graph::NodeId> perm(static_cast<size_t>(shape.num_nodes));
      std::iota(perm.begin(), perm.end(), graph::NodeId{0});
      Shuffle(perm, rng);
      in.edges.num_nodes = shape.num_nodes;
      in.edges.edges.reserve(shape.edges.size());
      for (const graph::Edge& e : shape.edges) {
        in.edges.edges.push_back({perm[e.u], perm[e.v]});
      }
      Shuffle(in.edges.edges, rng);
    }
  }
  times->generate_s = timer.Seconds();
  timer.Reset();
  {
    ScopedSpan span(tracer, "graph.build", "graph");
    for (Inputs& in : copies) {
      in.graph = graph::BuildGraph(in.edges);
      if (workload.weighted) {
        in.weighted = graph::MakeDegreeWeighted(in.edges, in.graph);
      }
    }
  }
  times->build_s = timer.Seconds();
  return copies;
}

sim::ClusterConfig ConfigFor(const Workload& workload, const Inputs& inputs) {
  sim::ClusterConfig config = BenchConfig(inputs.graph.num_arcs());
  if (workload.faults) {
    config.faults.fault_rate_per_machine_sec = 2.0;
    config.faults.replication = 2;
    config.faults.checkpoint_period_sec = 0.3;
    config.faults.warning_lead_sec = 0.05;
  }
  return config;
}

}  // namespace ampc::bench
