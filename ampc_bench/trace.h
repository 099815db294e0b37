// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around the
// calls it makes into each layer (setup steps, jobs, probes, checks).
// Each span carries its parent (the span open when it began) and an
// optional set of numeric arguments — the counter snapshot taken at the
// same boundary. Nothing is written until WriteChromeJson, which emits
// Chrome trace-event JSON that Perfetto and chrome://tracing open
// offline. A disabled tracer records nothing, so the untraced run pays
// only a branch per boundary.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace ampc::bench {

using SpanArgs = std::vector<std::pair<std::string, double>>;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id, or -1
  /// when disabled. Spans must close in LIFO order.
  int Begin(std::string name, std::string category);
  /// Closes span `id` (a no-op for -1), attaching `args`.
  void End(int id, SpanArgs args = {});

  /// Writes every recorded span as Chrome trace-event JSON ("X"
  /// complete events, microsecond timestamps). Returns false when the
  /// file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string category;
    int parent = -1;
    double start_sec = 0;
    double end_sec = 0;
    SpanArgs args;
  };

  bool enabled_;
  WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End (with any args set through
/// SetArgs) on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string category)
      : tracer_(tracer),
        id_(tracer.Begin(std::move(name), std::move(category))) {}
  ~ScopedSpan() { tracer_.End(id_, std::move(args_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetArgs(SpanArgs args) { args_ = std::move(args); }

 private:
  Tracer& tracer_;
  int id_;
  SpanArgs args_;
};

}  // namespace ampc::bench
