#include "span_trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

/// One "/proc/self/status" field in MiB (0 when unreadable).
double status_mib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  const std::size_t len = std::strlen(field);
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kib = std::atof(line + len);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Reset the kernel's peak-RSS mark to the current RSS.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }

double rss_mib() { return status_mib("VmRSS:"); }

int SpanRecorder::begin(const char* name, int op) {
  if (!enabled_) return -1;
  const double t0 = wall_now();
  const double hwm = peak_rss_mib();
  for (const int id : open_) {
    spans_[static_cast<std::size_t>(id)].rss_peak_mib =
        std::max(spans_[static_cast<std::size_t>(id)].rss_peak_mib, hwm);
  }
  reset_peak_rss();
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.rss_start_mib = rss_mib();
  s.cpu_start_s = cpu_now();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  const double t1 = wall_now();
  spans_.back().start_s = t1;
  overhead_s_ += t1 - t0;
  return id;
}

void SpanRecorder::end(int id) {
  if (!enabled_ || id < 0) return;
  const double t0 = wall_now();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = t0;
  s.cpu_end_s = cpu_now();
  const double hwm = peak_rss_mib();
  open_.pop_back();
  s.rss_peak_mib = std::max(s.rss_peak_mib, hwm);
  for (const int p : open_) {
    spans_[static_cast<std::size_t>(p)].rss_peak_mib =
        std::max(spans_[static_cast<std::size_t>(p)].rss_peak_mib, hwm);
  }
  overhead_s_ += wall_now() - t0;
}

double SpanRecorder::self_s(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  double covered = 0.0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) covered += spans_[i].wall_s();
  }
  return s.wall_s() - covered;
}

}  // namespace perfbench
