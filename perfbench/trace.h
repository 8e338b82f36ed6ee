// In-memory span recorder for the traced benchmark run. The driver wraps
// its own calls into the stack's public functions in spans; nothing inside
// the stack is instrumented. Spans are kept in memory and written out as
// JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t trace = 0;  // spans of one generation / one probe share this
  int id = 0;
  int parent = -1;    // -1 for a root span
  double start_s = 0; // since the tracer was created
  double end_s = 0;
  double duration_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // Opens a span and returns its id; -1 (and no record) when disabled.
  int begin(std::string name, int64_t trace, int parent = -1);
  void end(int id);

  std::vector<Span> spans() const;
  // Duration of span `id`, 0 for -1.
  double duration_s(int id) const;
  // One JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  double now_s() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t trace, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), trace, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
