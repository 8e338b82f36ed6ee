#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(4096);
}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::begin(std::string name, int64_t trace, int parent) {
  if (!enabled_) return -1;
  double start = now_s();
  std::lock_guard lock(mu_);
  Span span;
  span.name = std::move(name);
  span.trace = trace;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.start_s = start;
  span.end_s = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  double end = now_s();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double Tracer::duration_s(int id) const {
  if (id < 0) return 0;
  std::lock_guard lock(mu_);
  return spans_[static_cast<std::size_t>(id)].duration_s();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  for (const auto& span : spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"trace\":%lld,\"id\":%d,\"parent\":%d,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 span.name.c_str(), static_cast<long long>(span.trace), span.id,
                 span.parent, span.start_s, span.end_s);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
