// In-memory span recorder for the GSINO benchmark's traced runs.
//
// A span is one timed call into a layer's public function (or the
// benchmark's own op / set-up scope around such calls). Each span records
// its name, wall start and end, process CPU seconds, the process peak RSS
// seen while it was open, its parent span and the op it belongs to.
// Spans stay in memory; gsino_bench reads them after the run.
//
// Self time is the span's duration minus the time covered by its direct
// children. The recorder also clocks its own cost (the time spent inside
// begin()/end(), RSS probes included), which is what tracing adds to an
// op: overhead_s().
//
// Peak RSS per span: begin() folds the current high-water mark into every
// open span and then resets the kernel's mark (/proc/self/clear_refs "5"),
// so a child's reset never hides memory an enclosing span already saw.
// Single-threaded use only (the benchmark's main thread).
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  ///< index into spans(), -1 for a root span
  int op = -1;      ///< op id, -1 for set-up / check scopes
  double start_s = 0.0, end_s = 0.0;
  double cpu_start_s = 0.0, cpu_end_s = 0.0;
  double rss_start_mib = 0.0;  ///< process RSS when the span opened
  double rss_peak_mib = 0.0;

  double wall_s() const { return end_s - start_s; }
  double cpu_s() const { return cpu_end_s - cpu_start_s; }
};

/// Monotonic wall clock, seconds.
double wall_now();
/// Process user + system CPU seconds (all threads).
double cpu_now();
/// Process peak resident set (VmHWM), MiB.
double peak_rss_mib();
/// Process resident set now (VmRSS), MiB.
double rss_mib();

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open one; returns its id, or -1
  /// when recording is off.
  int begin(const char* name, int op);
  /// Close span `id` (must be the innermost open span).
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `id` minus the time covered by its direct children.
  double self_s(int id) const;
  /// Seconds spent inside begin()/end() so far.
  double overhead_s() const { return overhead_s_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double overhead_s_ = 0.0;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, int op)
      : rec_(rec), id_(rec.begin(name, op)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
