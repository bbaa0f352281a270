// Span recording and allocation counting for the traced run.
//
// Spans are recorded only around the driver's own calls into the library
// (the library itself is not instrumented). Each span is kept on its
// thread until it ends, then appended to one in-memory list under a
// mutex; WriteChrome dumps the list as Chrome trace-event JSON, which
// trace_summary.py reads.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "e2e.h"
#include "util/clock.h"

namespace lshensemble {
namespace e2e {
namespace trace {
namespace {

struct SpanRecord {
  int id;
  int parent;
  const char* name;
  int64_t wave;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t end_ns;
  std::vector<std::pair<const char*, double>> args;
};

std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_id{0};
std::atomic<uint32_t> g_next_tid{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

/// The calling thread's open spans, innermost last.
thread_local std::vector<SpanRecord> t_open;
thread_local const uint32_t t_tid = g_next_tid.fetch_add(1);

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void CountOne() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void SetEnabled(bool on) {
  {
    // Room for a whole run's spans up front, so no append in the middle of
    // a replay stalls on a reallocation.
    std::lock_guard lock(g_mutex);
    g_spans.reserve(1 << 18);
  }
  g_enabled.store(on);
}
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, int64_t wave) {
  if (!enabled() || name == nullptr) return;
  id_ = g_next_id.fetch_add(1);
  const int parent = t_open.empty() ? -1 : t_open.back().id;
  t_open.push_back({id_, parent, name, wave, t_tid, 0, 0, {}});
  t_open.back().start_ns = SteadyNowNanos();
}

Span::~Span() {
  if (id_ < 0) return;
  const uint64_t end = SteadyNowNanos();
  // Spans are scoped objects, so the innermost open span is this one.
  SpanRecord record = std::move(t_open.back());
  t_open.pop_back();
  record.end_ns = end;
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(record));
}

void Span::Arg(const char* key, double value) {
  if (id_ < 0) return;
  for (SpanRecord& open : t_open) {
    if (open.id == id_) open.args.emplace_back(key, value);
  }
}

void CountAllocs(bool on) { g_count_allocs.store(on); }
uint64_t Allocs() { return g_allocs.load(); }

bool WriteChrome(const std::string& path) {
  std::lock_guard lock(g_mutex);
  std::sort(g_spans.begin(), g_spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  const uint64_t origin = g_spans.empty() ? 0 : g_spans.front().start_ns;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %d, \"parent\": %d, \"wave\": %lld",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, static_cast<long long>(s.wave));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ", \"%s\": %.17g", key, value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace e2e
}  // namespace lshensemble

// Allocation counting: a process-wide operator new replacement that counts
// only while trace::CountAllocs(true) is in effect. Array and nothrow forms
// forward to these by the standard's default definitions.
void* operator new(std::size_t size) {
  lshensemble::e2e::trace::CountOne();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  lshensemble::e2e::trace::CountOne();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
