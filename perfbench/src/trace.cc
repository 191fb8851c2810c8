#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

uint32_t Tracer::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

Tracer::Span Tracer::Open(uint32_t name, uint64_t count) {
  if (!enabled_) return Span(nullptr, -1);
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.count = count;
  const auto index = static_cast<int32_t>(records_.size());
  records_.push_back(r);
  open_.push_back(index);
  records_.back().start_ns = NowNs();
  return Span(this, index);
}

void Tracer::Close(int32_t index) {
  records_[index].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Add(uint32_t name, int64_t start_ns, int64_t end_ns,
                 uint64_t count) {
  if (!enabled_) return;
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.count = count;
  records_.push_back(r);
}

Tracer::Totals Tracer::TotalsFor(std::string_view name) const {
  Totals t;
  uint32_t id = 0;
  while (id < names_.size() && names_[id] != name) ++id;
  if (id == names_.size()) return t;
  for (const Record& r : records_) {
    if (r.name != id) continue;
    t.ns += r.end_ns - r.start_ns;
    t.count += r.count;
    ++t.spans;
  }
  return t;
}

double Tracer::NsPerCount(std::string_view name) const {
  const Totals t = TotalsFor(name);
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.ns) /
                            static_cast<double>(t.count);
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tparent\tstart_ns\tend_ns\tcount\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu\t%s\t%d\t%lld\t%lld\t%llu\n", i,
                 names_[r.name].c_str(), r.parent,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
