#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/random.h"
#include "core/matching.h"
#include "seq/greedy.h"
#include "seq/kcore.h"
#include "seq/msf.h"
#include "seq/pagerank.h"
#include "seq/union_find.h"

namespace ampc::bench {
namespace {

using graph::kInvalidNode;
using graph::NodeId;

bool Fail(std::string* why, const std::string& reason) {
  if (why != nullptr) *why = reason;
  return false;
}

// core::ToSeqMatching aborts on a pair that is not a graph edge and
// ignores one-sided pairs, so both are rejected here first.
bool CheckMatching(const std::vector<NodeId>& partner, const Inputs& in,
                   std::string* why) {
  const graph::Graph& g = in.graph;
  if (static_cast<int64_t>(partner.size()) != g.num_nodes()) {
    return Fail(why, "matching: partner array has the wrong size");
  }
  for (size_t v = 0; v < partner.size(); ++v) {
    const NodeId p = partner[v];
    if (p == kInvalidNode) continue;
    if (p >= partner.size() || p == v || partner[p] != v) {
      return Fail(why, "matching: partner array is not an involution");
    }
    const auto nbrs = g.neighbors(static_cast<NodeId>(v));
    if (!std::binary_search(nbrs.begin(), nbrs.end(), p)) {
      return Fail(why, "matching: matched pair is not an edge");
    }
  }
  const seq::MatchingResult m = core::ToSeqMatching(in.edges, partner);
  if (!seq::IsMaximalMatching(in.edges, m.edges)) {
    return Fail(why, "matching: not a maximal matching");
  }
  return true;
}

bool CheckComponents(const std::vector<NodeId>& label,
                     const std::vector<int64_t>& root, std::string* why) {
  if (label.size() != root.size()) {
    return Fail(why, "components: label array has the wrong size");
  }
  // The partitions are equal iff label <-> root is a bijection.
  std::unordered_map<NodeId, int64_t> root_of_label;
  std::unordered_map<int64_t, NodeId> label_of_root;
  for (size_t v = 0; v < label.size(); ++v) {
    const auto [a, fresh_label] = root_of_label.emplace(label[v], root[v]);
    const auto [b, fresh_root] = label_of_root.emplace(root[v], label[v]);
    if (a->second != root[v] || b->second != label[v]) {
      return Fail(why, "components: partition differs from union-find");
    }
  }
  return true;
}

uint64_t Fold(uint64_t h, uint64_t value) { return HashCombine(h, value); }

template <typename T>
uint64_t FoldAll(uint64_t h, const std::vector<T>& values) {
  h = Fold(h, values.size());
  for (const T& v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    h = Fold(h, bits);
  }
  return h;
}

}  // namespace

Oracle BuildOracle(const Inputs& in, const std::vector<OutputKind>& kinds) {
  Oracle oracle;
  for (const OutputKind kind : kinds) {
    switch (kind) {
      case OutputKind::kMsf:
        oracle.msf_weight =
            seq::TotalWeight(in.weighted, seq::KruskalMsf(in.weighted));
        break;
      case OutputKind::kComponents: {
        seq::UnionFind uf(in.edges.num_nodes);
        for (const graph::Edge& e : in.edges.edges) uf.Union(e.u, e.v);
        oracle.component_root.resize(in.edges.num_nodes);
        for (int64_t v = 0; v < in.edges.num_nodes; ++v) {
          oracle.component_root[v] = uf.Find(v);
        }
        break;
      }
      case OutputKind::kCoreness:
        oracle.coreness = seq::CoreDecomposition(in.graph);
        break;
      case OutputKind::kPageRank: {
        seq::PageRankOptions options;
        options.tolerance = 1e-10;
        oracle.pagerank = seq::PageRankExact(in.graph, options).rank;
        break;
      }
      case OutputKind::kMis:
      case OutputKind::kMatching:
        break;  // checked structurally, no reference answer needed
    }
  }
  return oracle;
}

bool Check(const JobOutput& out, const Inputs& in, const Oracle& oracle,
           double pagerank_l1, std::string* why) {
  switch (out.kind) {
    case OutputKind::kMis:
      if (static_cast<int64_t>(out.flags.size()) != in.graph.num_nodes()) {
        return Fail(why, "mis: flag array has the wrong size");
      }
      if (!seq::IsMaximalIndependentSet(in.graph, out.flags)) {
        return Fail(why, "mis: not a maximal independent set");
      }
      return true;
    case OutputKind::kMatching:
      return CheckMatching(out.ids, in, why);
    case OutputKind::kMsf: {
      if (!seq::IsSpanningForest(in.weighted, out.edges)) {
        return Fail(why, "msf: not a spanning forest");
      }
      const double weight = seq::TotalWeight(in.weighted, out.edges);
      if (std::abs(weight - oracle.msf_weight) >
          1e-9 * std::max(1.0, std::abs(oracle.msf_weight))) {
        return Fail(why, "msf: weight differs from Kruskal");
      }
      return true;
    }
    case OutputKind::kComponents:
      return CheckComponents(out.ids, oracle.component_root, why);
    case OutputKind::kCoreness:
      if (out.coreness != oracle.coreness) {
        return Fail(why, "kcore: coreness differs from CoreDecomposition");
      }
      return true;
    case OutputKind::kPageRank: {
      if (out.rank.size() != oracle.pagerank.size()) {
        return Fail(why, "pagerank: rank array has the wrong size");
      }
      const double l1 = seq::L1Distance(out.rank, oracle.pagerank);
      if (!(l1 <= pagerank_l1)) {
        return Fail(why, "pagerank: L1 distance to exact " +
                             std::to_string(l1) + " above tolerance " +
                             std::to_string(pagerank_l1));
      }
      return true;
    }
  }
  return Fail(why, "unknown output kind");
}

JobOutput Corrupt(const JobOutput& output, const Inputs& in) {
  JobOutput bad = output;
  switch (bad.kind) {
    case OutputKind::kMis:
      if (!bad.flags.empty()) bad.flags[0] ^= 1;
      break;
    case OutputKind::kMatching: {
      const auto matched =
          std::find_if(bad.ids.begin(), bad.ids.end(),
                       [](NodeId p) { return p != kInvalidNode; });
      if (matched == bad.ids.end()) {
        if (!bad.ids.empty()) bad.ids[0] = 0;  // a self-pair
      } else {
        bad.ids[*matched] = kInvalidNode;
        *matched = kInvalidNode;
      }
      break;
    }
    case OutputKind::kMsf:
      if (bad.edges.empty()) {
        bad.edges.push_back(graph::kInvalidEdge);
      } else {
        bad.edges.pop_back();
      }
      break;
    case OutputKind::kComponents: {
      // Split a vertex with a neighbour off its component; with no edge
      // anywhere, merge two singletons instead.
      for (int64_t v = 0; v < in.graph.num_nodes(); ++v) {
        if (in.graph.degree(static_cast<NodeId>(v)) > 0) {
          bad.ids[v] = kInvalidNode - 1;
          return bad;
        }
      }
      if (bad.ids.size() > 1) bad.ids[0] = bad.ids[1];
      break;
    }
    case OutputKind::kCoreness:
      if (!bad.coreness.empty()) ++bad.coreness[0];
      break;
    case OutputKind::kPageRank:
      if (!bad.rank.empty()) bad.rank[0] += 1.0;
      break;
  }
  return bad;
}

uint64_t Digest(const JobOutput& out) {
  uint64_t h = static_cast<uint64_t>(out.kind);
  h = FoldAll(h, out.flags);
  h = FoldAll(h, out.ids);
  h = FoldAll(h, out.edges);
  h = FoldAll(h, out.coreness);
  return FoldAll(h, out.rank);
}

}  // namespace ampc::bench
