#include "trace.h"

#include <cstdio>

namespace ampc::bench {
namespace {

// Span names are the benchmark's own identifiers; escape anyway so a
// quote or backslash can never produce a file that does not parse.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int Tracer::Begin(std::string name, std::string category) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_sec = clock_.Seconds();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, SpanArgs args) {
  if (id < 0) return;
  spans_[id].end_sec = clock_.Seconds();
  spans_[id].args = std::move(args);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d",
                 JsonString(s.name).c_str(), JsonString(s.category).c_str(),
                 s.start_sec * 1e6, (s.end_sec - s.start_sec) * 1e6, i,
                 s.parent);
    for (const auto& [key, value] : s.args) {
      std::fprintf(out, ", %s: %.17g", JsonString(key).c_str(), value);
    }
    std::fprintf(out, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace ampc::bench
