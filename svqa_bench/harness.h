#ifndef SVQA_BENCH_HARNESS_H_
#define SVQA_BENCH_HARNESS_H_

// Measurement plumbing for svqa_bench: host clocks, percentiles, the
// core-clock probe, per-window statistics, the in-memory span recorder
// behind `--trace 1`, and the metric report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace svqa_bench {

/// Host wall clock, microseconds on the steady clock.
inline double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double CpuMicros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}
/// CPU time of the whole process (every thread), microseconds.
inline double ProcessCpuMicros() { return CpuMicros(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread, microseconds.
inline double ThreadCpuMicros() { return CpuMicros(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set size of this process so far, MiB.
inline double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// \brief The core clock the host gives this process, sampled right after
/// each timed operation. On a shared virtual machine the clock drifts by
/// a tenth or more within seconds to minutes, and every time the program
/// takes drifts with it, so the end-to-end times are reported at a
/// nominal clock: each raw duration times the factor Sample() returns.
class ClockProbe {
 public:
  static constexpr double kNominalGHz = 2.5;

  /// Times three chains of 2^18 dependent 64-bit multiplies (each 3 core
  /// cycles on x86-64; about 1 ms in all) and records the median clock
  /// they imply, so that one interrupt does not skew it. Returns the
  /// factor that turns a duration measured just before into one at
  /// kNominalGHz.
  double Sample() {
    std::vector<double> ghz;
    for (int rep = 0; rep < 3; ++rep) {
      constexpr int kSteps = 1 << 18;
      const double t0 = NowMicros();
      auto x = static_cast<uint64_t>(t0) | 3;  // unknown until t0 is read
      for (int i = 0; i < kSteps; ++i) x *= x;
      asm volatile("" : "+r"(x));  // the chain ends before t1 is read
      const double t1 = NowMicros();
      ghz.push_back(3.0 * kSteps / ((t1 - t0) * 1e3));
    }
    ghz_.push_back(Median(std::move(ghz)));
    return ghz_.back() / kNominalGHz;
  }

  std::size_t samples() const { return ghz_.size(); }
  double MedianGHz() const { return Median(ghz_); }

 private:
  std::vector<double> ghz_;
};

/// One timed operation: when it started (or was due) and what it measured.
struct Sample {
  double at_micros;
  double value;
};

/// Windows in a measured phase of `seconds`: about one a second.
inline std::size_t WindowsIn(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
}

/// Cuts `n` items, in time order, into `windows` consecutive windows of
/// equal count (at least one, at most n) and returns fn(begin, end) of
/// each.
template <typename Fn>
std::vector<double> PerWindow(std::size_t n, std::size_t windows, Fn&& fn) {
  windows = std::max<std::size_t>(1, std::min(windows, n));
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    out.push_back(fn(w * n / windows, (w + 1) * n / windows));
  }
  return out;
}

/// What a windowed end-to-end metric reports: of its per-window values,
/// the lower quartile for a cost, the upper quartile for a rate. On a
/// shared host the program runs a third slower for stretches of seconds
/// that cover none, some or most of a run, and they only ever make a
/// window worse; the quartile on the good side reads the windows they
/// left alone, unless they covered three quarters of the run.
inline double WindowQuartile(std::vector<double> per_window,
                             bool lower_is_better) {
  return Percentile(std::move(per_window), lower_is_better ? 0.25 : 0.75);
}

/// Percentile p of a measured phase: the samples, in start order, are cut
/// into `windows` windows, and WindowQuartile of the per-window
/// percentiles is returned; with one window it is the pooled percentile.
inline double WindowedPercentile(std::vector<Sample> samples, double p,
                                 std::size_t windows) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.at_micros < b.at_micros;
            });
  return WindowQuartile(
      PerWindow(samples.size(), windows,
                [&](std::size_t begin, std::size_t end) {
                  std::vector<double> v;
                  for (std::size_t i = begin; i < end; ++i) {
                    v.push_back(samples[i].value);
                  }
                  return Percentile(std::move(v), p);
                }),
      /*lower_is_better=*/true);
}

/// The timed operations of a closed loop, each doing `work` units (queries
/// or images), with wall and CPU time at the nominal clock.
struct ClosedLoopOps {
  explicit ClosedLoopOps(double work_per_op) : work(work_per_op) {}

  double work;
  std::vector<Sample> wall_ms;
  std::vector<double> cpu_micros;

  void Add(double at_micros, double wall_micros, double cpu) {
    wall_ms.push_back({at_micros, wall_micros / 1e3});
    cpu_micros.push_back(cpu);
  }
  /// Work per second of operation time, per window.
  double Rate(std::size_t windows) const {
    return WindowQuartile(
        PerWindow(wall_ms.size(), windows,
                  [&](std::size_t begin, std::size_t end) {
                    double ms = 0;
                    for (std::size_t i = begin; i < end; ++i) {
                      ms += wall_ms[i].value;
                    }
                    return work * static_cast<double>(end - begin) * 1e3 / ms;
                  }),
        /*lower_is_better=*/false);
  }
  /// CPU microseconds per unit of work, per window.
  double CpuPerWork(std::size_t windows) const {
    return WindowQuartile(
        PerWindow(cpu_micros.size(), windows,
                  [&](std::size_t begin, std::size_t end) {
                    double cpu = 0;
                    for (std::size_t i = begin; i < end; ++i) cpu += cpu_micros[i];
                    return cpu / (work * static_cast<double>(end - begin));
                  }),
        /*lower_is_better=*/true);
  }
};

/// \brief In-memory span recorder. Spans carry a name, host start/end
/// (microseconds), a parent span and a request id (`tid`); they are
/// written as Chrome trace JSON, the format `svqa_trace aggregate`
/// reads. Disabled recorders drop everything, so call sites need no
/// branch of their own.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }

  bool enabled() const { return enabled_; }

  /// Records [start, end] under `parent` (0 = root) and returns the new
  /// span's id, which is unique in the whole trace.
  uint32_t Add(const char* name, uint64_t tid, double start, double end,
               uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({name, tid, start, end, ++last_id_, parent});
    return last_id_;
  }

  /// Writes the spans as a Chrome trace JSON array, timestamps relative
  /// to the earliest span. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    double origin = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      origin = i == 0 ? spans_[i].start : std::min(origin, spans_[i].start);
    }
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %u, \"parent\": %u}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<unsigned long long>(s.tid), s.start - origin,
                   std::max(0.0, s.end - s.start), s.id, s.parent);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal
    uint64_t tid;
    double start;
    double end;
    uint32_t id;
    uint32_t parent;
  };
  bool enabled_;
  uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// \brief The metrics one run reports, printed as `name value unit`
/// lines and as the final JSON object.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Every value is finite (a NaN or infinity marks a broken metric).
  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  /// One-line JSON result. Values keep all their digits (%.17g).
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace svqa_bench

#endif  // SVQA_BENCH_HARNESS_H_
