#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end <= start) return 0;
  for (auto& [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    const int64_t from = std::max(s, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

uint32_t SpanRecorder::Intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

int32_t SpanRecorder::Record(uint32_t name, int64_t start_ns, int64_t end_ns,
                             int32_t parent, uint64_t request_id) {
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t SpanRecorder::Open(uint32_t name, int32_t parent,
                           uint64_t request_id) {
  const int64_t now = NowNs();
  return Record(name, now, now, parent, request_id);
}

void SpanRecorder::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SelfTimeNs(spans_[i].start_ns, spans_[i].end_ns,
                         std::move(children[i]));
  }
  return self;
}

std::map<std::string, LayerTime> SpanRecorder::ByName() const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& t = out[names_[spans_[i].name]];
    ++t.spans;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  if (spans_.empty()) origin = 0;
  std::fprintf(f, "{\"names\": [");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u, %lld, %lld, %d, %llu]", i == 0 ? "" : ",\n",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
