// scale_tiered and readvertise: one tiered pool (pool::make_scale_machines
// × pool::make_scale_workload) driven to completion on a single engine.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "daemons/config.hpp"
#include "jvm/program.hpp"
#include "layers.hpp"
#include "pool/pool.hpp"
#include "pool/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace esg;

namespace {

struct PoolShape {
  int machines = 0;
  int jobs = 0;
  daemons::Timeouts timeouts;
  SimTime mean_compute = SimTime::minutes(5);
  SimTime limit = SimTime::hours(48);
  /// Simulated span of the traced run's obs/chaos/pool cells: the boot,
  /// first advertisements and first negotiation cycles of this pool.
  SimTime prefix = SimTime::sec(30);
  /// Coalesced ads withdraw a job as soon as it is claimed, so every job is
  /// matched exactly once. Without coalescing the matchmaker re-offers
  /// claimed jobs until the next periodic ad (stale matches, DESIGN.md
  /// "Ad-traffic knobs"); there the fingerprint pins the exact count.
  bool one_match_per_job = false;
  /// Draw compute times uniform in [0.5, 1.5) × mean_compute instead of
  /// exponential, so the batch's length does not hinge on its single
  /// longest job: with 5 jobs per machine that tail made run_s swing about
  /// ±13% from seed to seed.
  bool uniform_compute = false;
};

PoolShape shape_for(const Options& opt) {
  PoolShape shape;
  if (opt.workload == "scale_tiered") {
    // pool_bench --scale's large-pool tuning: event-driven ad pushes with a
    // slow periodic backstop, coalesced submitter ads, a deep job window.
    shape.machines = 2000;
    shape.jobs = 20000;
    shape.timeouts.matchmaker_interval = SimTime::sec(10);
    shape.timeouts.advertise_interval = SimTime::sec(300);
    shape.timeouts.ad_lifetime = SimTime::sec(900);
    shape.timeouts.advertise_max_jobs = 1000;
    shape.timeouts.advertise_coalesce = SimTime::sec(2);
    shape.one_match_per_job = true;
  } else {
    // readvertise: default Timeouts — every startd re-sends an unchanged
    // ad every 5 s over a fresh connection.
    shape.machines = 400;
    shape.jobs = 2000;
    shape.uniform_compute = true;
  }
  if (opt.machines > 0) shape.machines = opt.machines;
  if (opt.jobs > 0) shape.jobs = opt.jobs;
  if (opt.limit_sec > 0) shape.limit = SimTime::sec(opt.limit_sec);
  return shape;
}

pool::PoolConfig pool_config(const PoolShape& shape, std::uint64_t seed) {
  pool::PoolConfig config;
  config.seed = seed;
  config.discipline = daemons::DisciplineConfig::scoped();
  config.timeouts = shape.timeouts;
  config.machines = pool::make_scale_machines(shape.machines);
  return config;
}

std::vector<daemons::JobDescription> pool_jobs(const PoolShape& shape,
                                               std::uint64_t seed) {
  Rng rng(seed);
  pool::WorkloadOptions options;
  options.count = shape.jobs;
  options.mean_compute = shape.mean_compute;
  std::vector<daemons::JobDescription> jobs =
      pool::make_scale_workload(options, rng);
  if (shape.uniform_compute) {
    const auto mean_us = static_cast<double>(shape.mean_compute.as_usec());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto us = static_cast<std::int64_t>(rng.uniform(0.5, 1.5) * mean_us);
      jobs[i].program = jvm::ProgramBuilder("Job" + std::to_string(i))
                            .compute(SimTime::usec(us))
                            .build();
    }
  }
  return jobs;
}

/// Generate inputs, build the pool, submit, boot: everything setup_s counts.
std::unique_ptr<pool::Pool> set_up(const PoolShape& shape, std::uint64_t seed) {
  auto pool = std::make_unique<pool::Pool>(pool_config(shape, seed));
  for (daemons::JobDescription& job : pool_jobs(shape, seed)) {
    pool->submit(std::move(job));
  }
  pool->boot();
  return pool;
}

/// Set up a pool and step it, untimed, through its first `events` events,
/// so the timed batches do not pay for a cold heap and cold caches. A fixed
/// count, not a host-time budget, keeps the heap the first batch inherits —
/// and so peak_rss_mb — the same from run to run.
void warm_up(const PoolShape& shape, std::uint64_t seed, std::uint64_t events) {
  std::unique_ptr<pool::Pool> pool = set_up(shape, seed);
  while (!pool->schedd().all_done() && pool->engine().executed() < events &&
         pool->engine().step()) {
  }
}

/// Every job completed, one match each, and the fingerprint of the run.
/// Returns the number of completed jobs.
std::uint64_t check_pool(const PoolShape& shape, pool::Pool& pool,
                         bool finished, ResultDoc& doc) {
  const std::uint64_t jobs = pool.schedd().jobs().size();
  std::uint64_t completed = 0;
  for (const auto& [id, record] : pool.schedd().jobs()) {
    if (record.state == daemons::JobState::kCompleted) ++completed;
  }
  doc.count_attempts(jobs, jobs - completed);
  if (!finished) doc.fail("the pool did not finish within its simulated limit");
  if (completed != jobs) {
    doc.fail(std::to_string(jobs - completed) + " of " + std::to_string(jobs) +
             " jobs did not complete");
  }
  const std::uint64_t matches = pool.matchmaker().matches_made();
  if (shape.one_match_per_job ? matches != jobs : matches < jobs) {
    doc.fail(std::to_string(matches) + " matches for " + std::to_string(jobs) +
             " jobs");
  }
  doc.fingerprint("sim.events", pool.engine().executed());
  doc.fingerprint("daemons.matches", matches);
  doc.fingerprint("daemons.match_evals", pool.matchmaker().match_evals());
  doc.fingerprint("net.messages", pool.fabric().total_messages());
  doc.fingerprint("net.bytes", pool.fabric().total_bytes());
  return completed;
}

int run_end_to_end(const PoolShape& shape, const Options& opt, ResultDoc& doc) {
  Samples setup_s;
  Samples run_s;
  std::unique_ptr<pool::Pool> pool;
  const Clock::time_point start = Clock::now();
  int batches = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  double peak_mb = 0;
  constexpr std::uint64_t kWarmUpEvents = 100000;
  warm_up(shape, opt.seed, kWarmUpEvents);
  while (true) {
    setup_s.add(time_s([&] { pool = set_up(shape, opt.seed); }));
    bool finished = false;
    const double s = time_s([&] { finished = pool->run_until_done(shape.limit); });
    run_s.add(s);
    std::fprintf(stderr, "perfbench: batch %d run_s %.3f\n", batches + 1, s);
    completed = check_pool(shape, *pool, finished, doc);
    events = pool->engine().executed();
    pool.reset();
    // The peak of one batch, so it does not depend on how many fit.
    if (batches++ == 0) peak_mb = peak_rss_mb();
    // Start another batch only if it should end inside the window.
    if (seconds_since(start) + s > opt.seconds) break;
  }
  // Set-ups that are not run, so setup_s is a median of at least nine.
  constexpr int kExtraSetups = 8;
  for (int i = 0; i < kExtraSetups; ++i) {
    setup_s.add(time_s([&] { pool = set_up(shape, opt.seed); }));
    pool.reset();
  }

  report_end_to_end(doc, setup_s, run_s, events, completed, peak_mb);
  return batches;
}

int run_layers(const PoolShape& shape, const Options& opt, ResultDoc& doc) {
  // Untraced runs on either side of the stepped one — the base of
  // ledger.overhead_frac, with the first-run warm-up split evenly.
  const auto plain_run = [&] {
    std::unique_ptr<pool::Pool> pool = set_up(shape, opt.seed);
    bool finished = false;
    const double s = time_s([&] { finished = pool->run_until_done(shape.limit); });
    (void)check_pool(shape, *pool, finished, doc);
    return s;
  };
  const double plain_before = plain_run();

  // The same inputs stepped by hand: same fingerprint, or the run fails.
  std::unique_ptr<pool::Pool> pool = set_up(shape, opt.seed);
  StepTotals steps;
  const bool finished = steps.ledger.run(*pool, shape.limit);
  (void)check_pool(shape, *pool, finished, doc);
  steps.count(*pool);
  AdReplay ads;
  ads.run(*pool, doc);
  pool.reset();
  const double plain_after = plain_run();
  std::fprintf(stderr, "perfbench: run_until_done %.3f s, stepped %.3f s, "
               "run_until_done %.3f s\n", plain_before, steps.ledger.run_s,
               plain_after);
  const double plain_s = (plain_before + plain_after) / 2;

  // Tracing, journal, oracle and sweep costs on this pool's own inputs:
  // one traced prefix cell per sweep thread.
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  pool::SweepCell cell;
  cell.config = pool_config(shape, opt.seed);
  cell.config.trace = true;
  cell.config.trace_capacity = 1 << 16;
  cell.limit = shape.prefix;
  cell.label = "prefix";
  cell.setup = [shape, seed = opt.seed](pool::Pool& p) {
    for (daemons::JobDescription& job : pool_jobs(shape, seed)) {
      p.submit(std::move(job));
    }
  };
  CellProbe cells;
  cells.run(std::vector<pool::SweepCell>(threads, cell), threads, doc);
  if (std::adjacent_find(cells.engine_events.begin(), cells.engine_events.end(),
                         std::not_equal_to<>()) != cells.engine_events.end()) {
    doc.fail("identical prefix cells ran different numbers of events");
  }

  steps.report(doc, plain_s);
  ads.report(doc);
  cells.report(doc);
  return 1;
}

}  // namespace

int run_pool_workload(const Options& opt, ResultDoc& doc) {
  const PoolShape shape = shape_for(opt);
  return opt.trace ? run_layers(shape, opt, doc)
                   : run_end_to_end(shape, opt, doc);
}

}  // namespace perfbench
