// Shared pieces of the perfbench program: clocks, seeded random numbers,
// order statistics, the in-memory span recorder, metric output, and child
// processes.  Everything here lives outside src/: the benchmark measures
// each layer by timing calls into its public functions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the only randomness source, so a seed fixes every input.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : s(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double normal() {
    const double u1 = 1.0 - uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * uniform());
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample.
inline double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
inline double median(const std::vector<double>& v) { return pct(v, 50); }

// Fast-end statistics.  A shared host takes CPU from the benchmark in
// bursts of milliseconds and slows a whole core for seconds at a time, so
// a timing pooled over a run follows the host's state more than the code.
// Gated timings are therefore taken over short blocks of work (one
// operation, a sweep, a run of short calls), and the metric is the
// fastest 2% of the blocks: the code's speed while the host leaves it
// a CPU.  The code cannot run faster than it is, so this end of the
// distribution is bounded and settles from run to run.
constexpr double kFastPct = 2;
/// A block that needs several CPUs at once (a 4-thread sweep) is fast only
/// when the host frees all of them together, so its fastest 2% are a few
/// coincidences; the fastest tenth has five times the blocks beyond it.
constexpr double kFastPctParallel = 10;
inline double fast_time(const std::vector<double>& blocks, double fast_pct = kFastPct) {
  return pct(blocks, fast_pct);
}
inline double fast_rate(const std::vector<double>& blocks, double fast_pct = kFastPct) {
  return pct(blocks, 100 - fast_pct);
}

// ---------------------------------------------------------------- output

/// One reported number.  `samples` is printed in the human-readable
/// report (the final JSON line carries only value + unit).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Correctness ledger: every independent output check goes through here.
struct Checks {
  std::size_t passed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (ok)
      ++passed;
    else
      failures.push_back(what);
  }
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder: name, start, end, parent.  Spans are recorded
/// from the benchmark's own code around each call into a layer and written
/// out when the run ends.  Disabled, a Scope costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t t0 = 0, t1 = 0;  // ns since the tracer was created
  };
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on_) return;
      idx_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, t_.open_, t_.now(), 0});
      t_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      t_.spans_[static_cast<std::size_t>(idx_)].t1 = t_.now();
      t_.open_ = t_.spans_[static_cast<std::size_t>(idx_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += static_cast<double>(spans_[i].t1 - spans_[i].t0 - child[i]) * 1e-9;
    return out;
  }
  /// Total duration of root spans (the traced end-to-end time).
  double root_seconds() const {
    std::int64_t total = 0;
    for (const auto& s : spans_)
      if (s.parent < 0) total += s.t1 - s.t0;
    return static_cast<double>(total) * 1e-9;
  }
  bool write_json(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------- processes

/// Spawn `argv` with stdout captured (stderr discarded).  Returns the pid
/// and the read end of the stdout pipe.
struct Child {
  int pid = -1;
  int out_fd = -1;
};
Child spawn(const std::vector<std::string>& argv, bool capture_stdout);
/// Read the rest of fd until EOF, then close it.
std::string read_all(int fd);
/// Wait for pid; returns the exit code, or 128+signal.
int wait_child(int pid);
/// SIGKILL and reap every spawned child not yet waited for (error exits).
void kill_children();
/// VmHWM of a process in MiB (pid 0 = self).
double peak_rss_mb(int pid = 0);

void write_file(const std::string& path, const std::string& text);

}  // namespace pb
