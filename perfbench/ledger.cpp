#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void ResultDoc::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  errors_.push_back(why);
}

void ResultDoc::fingerprint(const std::string& name,
                            const std::string& json_value) {
  for (const auto& [have, value] : fingerprint_) {
    if (have != name) continue;
    if (value != json_value) {
      fail("fingerprint " + name + " drifted between batches: " + value +
           " then " + json_value);
    }
    return;
  }
  fingerprint_.emplace_back(name, json_value);
}

void ResultDoc::metric(const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    return;
  }
  metrics_.push_back({name, value, unit});
}

std::string ResultDoc::json(const std::string& workload, std::uint64_t seed,
                            int trace, int batches) const {
  std::string out = "{\"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + std::to_string(trace) +
                    ", \"batches\": " + std::to_string(batches) +
                    ", \"correct\": " + (ok() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + json_string(errors_[i]);
  }
  out += "], \"fingerprint\": {";
  for (std::size_t i = 0; i < fingerprint_.size(); ++i) {
    out += (i ? ", " : "") + json_string(fingerprint_[i].first) + ": " +
           fingerprint_[i].second;
  }
  out += "}, \"metrics\": {";
  if (ok()) {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      out += (i ? ", " : "") + json_string(metrics_[i].name) +
             ": {\"value\": " + value +
             ", \"unit\": " + json_string(metrics_[i].unit) + "}";
    }
  }
  return out + "}}";
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void report_end_to_end(ResultDoc& doc, const Samples& setup_s,
                       const Samples& run_s, std::uint64_t events,
                       std::uint64_t terminal_jobs, double peak_mb) {
  const double run = run_s.median();
  doc.metric("setup_s", setup_s.median(), "s");
  doc.metric("run_s", run, "s");
  doc.metric("events_per_s", static_cast<double>(events) / run, "1/s");
  doc.metric("jobs_per_s", static_cast<double>(terminal_jobs) / run, "1/s");
  doc.metric("peak_rss_mb", peak_mb, "MB");
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool StepLedger::run(esg::pool::Pool& pool, esg::SimTime limit) {
  esg::sim::Engine& engine = pool.engine();
  const esg::daemons::Matchmaker& mm = pool.matchmaker();
  const esg::net::NetworkFabric& fabric = pool.fabric();
  const auto done = [&pool] { return pool.schedd().all_done(); };
  const esg::SimTime until = engine.now() + limit;

  const Clock::time_point start = Clock::now();
  bool finished = done();
  Clock::time_point before = start;
  while (!finished) {
    const std::uint64_t evals = mm.match_evals();
    const std::uint64_t matches = mm.matches_made();
    if (!engine.step(until)) break;
    finished = done();
    const Clock::time_point after = Clock::now();
    const double step_s = std::chrono::duration<double>(after - before).count();
    step_us.add(step_s * 1e6);
    if (mm.match_evals() != evals || mm.matches_made() != matches) {
      negotiate_s += step_s;
      negotiate_ms.add(step_s * 1e3);
    }
    queue_max = std::max(queue_max, engine.pending());
    before = after;
    if (engine.executed() % kGaugeEvery == 0) {
      queued_max = std::max(queued_max, fabric.queued_deliveries());
      conns_max = std::max(conns_max, fabric.open_connections());
      before = Clock::now();  // keep the gauge walk out of the next step
    }
  }
  run_s += seconds_since(start);
  return finished;
}

}  // namespace perfbench
