// checks_test — every output check accepts the real output of each job
// on a small copy of its workload and rejects that output with one
// element corrupted (one MIS bit flipped, one matched pair unmatched,
// one forest edge dropped, one vertex split off its component, one
// coreness raised, one rank shifted). Exit status 1 on any failure.
#include <cstdio>
#include <string>

#include "checks.h"
#include "trace.h"
#include "workloads.h"

namespace {

using ampc::bench::Check;
using ampc::bench::Corrupt;
using ampc::bench::Digest;
using ampc::bench::JobOutput;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  constexpr uint64_t kSeed = 7;
  ampc::bench::Tracer tracer(false);
  int checked = 0;
  for (ampc::bench::Workload workload : ampc::bench::Workloads()) {
    workload.log2_nodes = 10;
    workload.num_edges = 6000;
    ampc::bench::SetupTimes times;
    const ampc::bench::Inputs inputs =
        ampc::bench::Setup(workload, kSeed, tracer, &times).front();
    std::vector<ampc::bench::OutputKind> kinds;
    for (const ampc::bench::Job& job : workload.jobs) kinds.push_back(job.kind);
    const ampc::bench::Oracle oracle = ampc::bench::BuildOracle(inputs, kinds);
    const ampc::sim::ClusterConfig config =
        ampc::bench::ConfigFor(workload, inputs);
    for (const ampc::bench::Job& job : workload.jobs) {
      ampc::sim::Cluster cluster(config);
      const JobOutput output = job.run(cluster, inputs);
      const double tolerance = job.ampc ? ampc::bench::kMonteCarloPageRankL1
                                        : ampc::bench::kPowerPageRankL1;
      std::string why;
      Expect(Check(output, inputs, oracle, tolerance, &why),
             job.name + " rejects its real output: " + why);
      const JobOutput bad = Corrupt(output, inputs);
      Expect(Digest(bad) != Digest(output),
             job.name + " digest misses the corruption");
      Expect(!Check(bad, inputs, oracle, tolerance, &why),
             job.name + " accepts a corrupted output");
      ++checked;
    }
  }
  std::printf("checks_test: %d jobs, %d failures\n", checked, failures);
  return failures == 0 ? 0 : 1;
}
