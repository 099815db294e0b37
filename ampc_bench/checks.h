// Output checks for every benchmark job.
//
// Each job's output is checked against the seq/ oracles once per run,
// and every later repetition must reproduce the first one's digest. A
// check that cannot fail measures nothing, so Corrupt() produces a
// single-point corruption of any output, which the run and
// checks_test.cc both feed back through Check() expecting a rejection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace ampc::bench {

/// One workload's generated input.
struct Inputs {
  graph::EdgeList edges;
  graph::Graph graph;
  /// Degree-weighted copy of `edges` (paper Section 5.2); filled only
  /// for workloads that run MSF.
  graph::WeightedEdgeList weighted;
};

enum class OutputKind { kMis, kMatching, kMsf, kComponents, kCoreness,
                        kPageRank };

/// A job's output in one of six shapes; only the field the kind names
/// is filled.
struct JobOutput {
  OutputKind kind = OutputKind::kMis;
  std::vector<uint8_t> flags;        // kMis: in_mis[v]
  std::vector<graph::NodeId> ids;    // kMatching: partner; kComponents: label
  std::vector<graph::EdgeId> edges;  // kMsf: forest edge ids
  std::vector<int32_t> coreness;     // kCoreness
  std::vector<double> rank;          // kPageRank
};

/// Stated PageRank tolerances (L1 distance to seq::PageRankExact). The
/// Monte-Carlo estimate's error shrinks as 1/sqrt(walks per node); the
/// power iteration stops at an L1 step of 1e-6.
inline constexpr double kMonteCarloPageRankL1 = 0.1;
inline constexpr double kPowerPageRankL1 = 1e-4;

/// Reference answers, computed once per run for the kinds it needs.
struct Oracle {
  double msf_weight = 0;
  std::vector<int64_t> component_root;  // union-find root of each vertex
  std::vector<int32_t> coreness;
  std::vector<double> pagerank;
};

Oracle BuildOracle(const Inputs& inputs, const std::vector<OutputKind>& kinds);

/// Whether `output` is correct for `inputs`. On failure `why` names the
/// violated property. `pagerank_l1` is the tolerance for kPageRank.
bool Check(const JobOutput& output, const Inputs& inputs,
           const Oracle& oracle, double pagerank_l1, std::string* why);

/// A copy of `output` with one element corrupted so that a sound check
/// must reject it: one MIS bit flipped, one matched pair unmatched, one
/// forest edge dropped, one vertex split off its component, one
/// coreness raised, one rank shifted.
JobOutput Corrupt(const JobOutput& output, const Inputs& inputs);

/// Order-sensitive hash of an output's contents.
uint64_t Digest(const JobOutput& output);

}  // namespace ampc::bench
