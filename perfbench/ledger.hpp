// Measurement plumbing shared by the perfbench workloads: host-time
// samples, the one-line result document, and the stepped engine drive that
// attributes host time to layers from outside the program (public counters
// and gauges only — nothing inside src/ is instrumented).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/simtime.hpp"
#include "pool/pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host time of one call, in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start);
}

/// A bag of measurements with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile (q in [0, 1]) of the samples so far, the
  /// same rule as numpy's default; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Host time spent in repeated calls of one operation; reported as the
/// mean per call, so a layer's cost reads the same however many inputs the
/// workload handed it.
struct OpCost {
  double seconds = 0;
  std::uint64_t calls = 0;

  /// Time `calls` invocations of `fn` as one block.
  template <typename Fn>
  void add_block(std::uint64_t n, Fn&& fn) {
    seconds += time_s(fn);
    calls += n;
  }
  [[nodiscard]] double us_per_call() const {
    return calls == 0 ? 0 : seconds * 1e6 / static_cast<double>(calls);
  }
};

/// What one benchmark process prints: verdict, counts, fingerprint and
/// metrics, as a single JSON line. A failed check empties the metrics, so a
/// broken run can never be read as a number.
class ResultDoc {
 public:
  void fail(const std::string& why);
  [[nodiscard]] bool ok() const { return errors_.empty(); }

  void count_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Record a fingerprint field; a later batch that disagrees fails the run.
  void fingerprint(const std::string& name, const std::string& json_value);
  void fingerprint(const std::string& name, std::uint64_t value) {
    fingerprint(name, std::to_string(value));
  }
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] std::string json(const std::string& workload,
                                 std::uint64_t seed, int trace,
                                 int batches) const;

 private:
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> fingerprint_;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// The end-to-end metrics of an untraced run: medians of the per-batch
/// set-up and run times, and the work one batch completed.
void report_end_to_end(ResultDoc& doc, const Samples& setup_s,
                       const Samples& run_s, std::uint64_t events,
                       std::uint64_t terminal_jobs, double peak_mb);

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string digest_hex(const std::string& text);

/// Per-layer figures gathered while stepping a pool's engine by hand.
struct StepLedger {
  /// Read the O(n) fabric gauges once per this many events; per-event
  /// sampling distorts a 2000-machine run by about a fifth.
  static constexpr std::uint64_t kGaugeEvery = 1024;

  Samples step_us;
  Samples negotiate_ms;  ///< steps where the matchmaker's counters moved
  double negotiate_s = 0;
  double run_s = 0;
  std::size_t queue_max = 0;
  std::size_t queued_max = 0;
  std::size_t conns_max = 0;

  /// Drive `pool` (booted, jobs submitted) one Engine::step() at a time
  /// under Pool::run_until_done's done-predicate and limit. Returns whether
  /// every job reached a terminal state. Figures accumulate across calls.
  bool run(esg::pool::Pool& pool, esg::SimTime limit);
};

}  // namespace perfbench
