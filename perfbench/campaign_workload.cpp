// chaos_campaign: chaos::CampaignRunner under the scoped discipline, many
// small traced pools fanned over a pool::SweepRunner.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "layers.hpp"
#include "pool/pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace esg;

namespace {

constexpr int kPlans = 1024;
/// Plans the traced run replays one at a time, evenly spaced.
constexpr int kSampled = 128;

chaos::CampaignOptions campaign_options(const Options& opt) {
  chaos::CampaignOptions options;
  options.seed = opt.seed;
  options.plans = opt.plans > 0 ? opt.plans : kPlans;
  options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  options.shrink = false;
  if (!opt.discipline.empty()) options.shape.discipline = opt.discipline;
  return options;
}

/// The runner's default draw and cell stages, wrapped to add their host
/// time to `setup_s`. The draw mirrors CampaignRunner's built-in one.
chaos::CampaignHooks timed_hooks(double& setup_s) {
  chaos::CampaignHooks hooks;
  hooks.draw = [&setup_s](std::uint64_t seed, const chaos::CampaignOptions& o) {
    const Clock::time_point start = Clock::now();
    chaos::PlanShape bounds = o.bounds;
    bounds.hosts.clear();
    for (int i = 0; i < o.shape.machines; ++i) {
      bounds.hosts.push_back(strfmt("exec%d", i));
    }
    chaos::FaultPlan plan = chaos::make_random_plan(seed, bounds);
    setup_s += seconds_since(start);
    return plan;
  };
  hooks.cell = [&setup_s](const chaos::FaultPlan& plan, std::string label) {
    const Clock::time_point start = Clock::now();
    pool::SweepCell cell = chaos::CampaignRunner::make_cell(plan, std::move(label));
    setup_s += seconds_since(start);
    return cell;
  };
  return hooks;
}

/// Draw and build every cell the way CampaignRunner::run does, without
/// running them: an extra setup_s sample.
double set_up_only(const chaos::CampaignOptions& options) {
  double setup_s = 0;
  const chaos::CampaignHooks hooks = timed_hooks(setup_s);
  Rng seeds(options.seed);
  std::vector<pool::SweepCell> cells;
  for (int i = 0; i < options.plans; ++i) {
    chaos::FaultPlan plan = hooks.draw(seeds.next_u64(), options);
    plan.shape = options.shape;
    cells.push_back(hooks.cell(plan, strfmt("plan%d", i)));
  }
  return setup_s;
}

struct CampaignTotals {
  std::uint64_t events = 0;
  std::uint64_t terminal_jobs = 0;
};

/// Zero red cells, every cell finished, and the campaign's fingerprint.
CampaignTotals check_campaign(const chaos::CampaignResult& result,
                              ResultDoc& doc) {
  CampaignTotals totals;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  int unfinished = 0;
  const chaos::CellVerdict* first_red = nullptr;
  for (const chaos::CellVerdict& cell : result.cells) {
    totals.events += cell.engine_events;
    totals.terminal_jobs +=
        static_cast<std::uint64_t>(cell.report.jobs_total - cell.report.unfinished);
    messages += cell.report.network_messages;
    bytes += cell.report.network_bytes;
    if (!cell.finished) ++unfinished;
    if (!cell.oracles.ok() && first_red == nullptr) first_red = &cell;
  }
  doc.count_attempts(result.cells.size(),
                     static_cast<std::uint64_t>(result.failing));
  if (result.failing > 0) {
    doc.fail(std::to_string(result.failing) + " of " +
             std::to_string(result.cells.size()) +
             " campaign cells failed an oracle; first: " + first_red->str());
  }
  if (unfinished > 0) {
    doc.fail(std::to_string(unfinished) + " campaign cells did not finish");
  }
  doc.fingerprint("sim.events", totals.events);
  doc.fingerprint("net.messages", messages);
  doc.fingerprint("net.bytes", bytes);
  doc.fingerprint("chaos.json_digest", "\"" + digest_hex(result.json()) + "\"");
  return totals;
}

int run_end_to_end(const Options& opt, ResultDoc& doc) {
  const chaos::CampaignOptions options = campaign_options(opt);
  Samples setup_s;
  Samples run_s;
  const Clock::time_point start = Clock::now();
  int batches = 0;
  CampaignTotals totals;
  double peak_mb = 0;
  // Untimed warm-up: a campaign of the first eighth of the plans.
  chaos::CampaignOptions warm = options;
  warm.plans = std::max(1, options.plans / 8);
  (void)chaos::CampaignRunner(warm).run();
  while (true) {
    double hook_s = 0;
    const chaos::CampaignHooks hooks = timed_hooks(hook_s);
    chaos::CampaignResult result;
    const double s =
        time_s([&] { result = chaos::CampaignRunner(options).run(hooks); });
    setup_s.add(hook_s);
    run_s.add(s - hook_s);
    std::fprintf(stderr, "perfbench: batch %d run_s %.3f\n", batches + 1, s - hook_s);
    totals = check_campaign(result, doc);
    // The peak of one batch, so it does not depend on how many fit.
    if (batches++ == 0) peak_mb = peak_rss_mb();
    if (seconds_since(start) + s > opt.seconds) break;
  }
  // Setting up a campaign takes milliseconds; take the median of many.
  constexpr int kExtraSetups = 64;
  for (int i = 0; i < kExtraSetups; ++i) setup_s.add(set_up_only(options));

  report_end_to_end(doc, setup_s, run_s, totals.events, totals.terminal_jobs,
                    peak_mb);
  return batches;
}

int run_layers(const Options& opt, ResultDoc& doc) {
  const chaos::CampaignOptions options = campaign_options(opt);
  double hook_s = 0;
  const chaos::CampaignResult result =
      chaos::CampaignRunner(options).run(timed_hooks(hook_s));
  (void)check_campaign(result, doc);

  // Evenly spaced plans, replayed serially: their engine events must equal
  // the parallel campaign's, cell for cell.
  const std::size_t n = result.cells.size();
  const std::size_t sampled = std::min<std::size_t>(n, kSampled);
  std::vector<const chaos::CellVerdict*> picked;
  std::vector<pool::SweepCell> cells;
  for (std::size_t k = 0; k < sampled; ++k) {
    const chaos::CellVerdict& verdict = result.cells[k * n / sampled];
    picked.push_back(&verdict);
    cells.push_back(chaos::CampaignRunner::make_cell(
        verdict.plan, strfmt("plan%zu", verdict.index)));
  }
  CellProbe probe;
  probe.run(cells, options.threads, doc);

  // The same cells stepped by hand, for the sim/net/daemons figures, and
  // their ads replayed for the classad/daemons ones.
  StepTotals steps;
  AdReplay ads;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    pool::Pool pool(cells[k].config);
    cells[k].setup(pool);
    pool.boot();
    (void)steps.ledger.run(pool, cells[k].limit);
    steps.count(pool);
    ads.run(pool, doc);
    const std::uint64_t events = pool.engine().executed();
    if (events != picked[k]->engine_events ||
        probe.engine_events[k] != picked[k]->engine_events) {
      doc.fail(cells[k].label + ": serial replays ran " +
               std::to_string(probe.engine_events[k]) + " and " +
               std::to_string(events) + " events, the campaign " +
               std::to_string(picked[k]->engine_events));
    }
  }

  // ledger.overhead_frac compares against the same cells' traced
  // run_until_done, which the probe timed.
  steps.report(doc, probe.pool_on_s);
  ads.report(doc);
  probe.report(doc);
  return 1;
}

}  // namespace

int run_campaign_workload(const Options& opt, ResultDoc& doc) {
  return opt.trace ? run_layers(opt, doc) : run_end_to_end(opt, doc);
}

}  // namespace perfbench
