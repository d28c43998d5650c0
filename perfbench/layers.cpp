#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "chaos/oracle.hpp"
#include "classad/classad.hpp"
#include "classad/expr.hpp"
#include "classad/index.hpp"
#include "classad/match.hpp"
#include "daemons/wire.hpp"
#include "obs/export.hpp"

namespace perfbench {

using namespace esg;

void AdReplay::run(pool::Pool& pool, ResultDoc& doc) {
  std::uint64_t bad = 0;

  std::vector<const daemons::Startd*> startds;
  for (const pool::MachineSpec& spec : pool.config().machines) {
    if (const daemons::Startd* startd = pool.startd(spec.name)) {
      startds.push_back(startd);
    }
  }
  const std::size_t nm = startds.size();
  std::vector<classad::ClassAd> machines(nm);
  machine_ad.add_block(nm, [&] {
    for (std::size_t i = 0; i < nm; ++i) machines[i] = startds[i]->machine_ad();
  });

  std::vector<const daemons::JobDescription*> jobs;
  for (const auto& [id, record] : pool.schedd().jobs()) {
    jobs.push_back(&record.description);
  }
  const std::size_t nj = jobs.size();
  std::vector<classad::ClassAd> summaries(nj);
  std::vector<classad::ClassAd> fulls(nj);
  summary_ad.add_block(nj, [&] {
    for (std::size_t i = 0; i < nj; ++i) {
      Result<classad::ClassAd> ad = jobs[i]->to_summary_ad();
      if (ad.ok()) summaries[i] = std::move(ad).value(); else ++bad;
    }
  });
  full_ad.add_block(nj, [&] {
    for (std::size_t i = 0; i < nj; ++i) {
      Result<classad::ClassAd> ad = jobs[i]->to_full_ad();
      if (ad.ok()) fulls[i] = std::move(ad).value(); else ++bad;
    }
  });

  // The two ad-carrying messages of a job's life: the startd's periodic
  // update, and the shadow's ACTIVATE_CLAIM with the full job ad nested.
  std::vector<daemons::WireMessage> messages;
  messages.reserve(nm + nj);
  for (const classad::ClassAd& ad : machines) {
    messages.push_back({daemons::kCmdUpdateStartdAd, ad});
  }
  for (std::size_t i = 0; i < nj; ++i) {
    classad::ClassAd body;
    body.set("ClaimId", static_cast<std::int64_t>(i + 1));
    body.insert("Job", std::make_unique<classad::Literal>(classad::Value::ad(
                           std::make_shared<classad::ClassAd>(fulls[i]))));
    messages.push_back({daemons::kCmdActivateClaim, std::move(body)});
  }
  std::vector<std::string> wires(messages.size());
  wire_encode.add_block(messages.size(), [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      wires[i] = messages[i].encode();
    }
  });
  wire_decode.add_block(wires.size(), [&] {
    for (const std::string& wire : wires) {
      if (!daemons::WireMessage::parse(wire).ok()) ++bad;
    }
  });

  std::vector<const classad::ClassAd*> ads;
  for (const classad::ClassAd& ad : machines) ads.push_back(&ad);
  for (const classad::ClassAd& ad : summaries) ads.push_back(&ad);
  std::vector<std::string> texts(ads.size());
  unparse.add_block(ads.size(), [&] {
    for (std::size_t i = 0; i < ads.size(); ++i) texts[i] = ads[i]->str();
  });
  parse.add_block(texts.size(), [&] {
    for (const std::string& text : texts) {
      if (!classad::parse_classad(text).ok()) ++bad;
    }
  });

  const SimTime now = pool.engine().now();
  std::vector<classad::RequirementsProfile> profiles(nj);
  profile.add_block(nj, [&] {
    for (std::size_t i = 0; i < nj; ++i) {
      profiles[i] = classad::profile_requirements(summaries[i], now);
    }
  });

  // Fill, drain and refill the index: the upkeep an ad churns through.
  classad::AdIndex index;
  const auto fill = [&] {
    for (std::size_t i = 0; i < nm; ++i) {
      index.insert(static_cast<std::uint32_t>(i), machines[i]);
    }
  };
  index_insert.add_block(nm, fill);
  index_erase.add_block(nm, [&] {
    for (std::size_t i = 0; i < nm; ++i) index.erase(static_cast<std::uint32_t>(i));
  });
  index_insert.add_block(nm, fill);

  std::vector<std::vector<std::uint32_t>> picks(nj);
  std::vector<std::uint32_t> out;
  std::uint64_t pairs = 0;
  candidates.add_block(nj, [&] {
    for (std::size_t j = 0; j < nj; ++j) {
      if (index.candidates(profiles[j], out)) {
        candidates_found += out.size();
        out.resize(std::min(out.size(), kMatchesPerJob));
        picks[j] = out;
      } else {
        // Nothing indexable: the matchmaker would scan every machine.
        candidates_found += nm;
        for (std::size_t i = 0; i < std::min(nm, kMatchesPerJob); ++i) {
          picks[j].push_back(static_cast<std::uint32_t>(i));
        }
      }
      pairs += picks[j].size();
    }
  });
  std::uint64_t matched = 0;
  match.add_block(pairs, [&] {
    for (std::size_t j = 0; j < nj; ++j) {
      for (std::uint32_t slot : picks[j]) {
        matched += classad::symmetric_match(summaries[j], machines[slot], now)
                       .matched;
      }
    }
  });

  if (bad > 0) doc.fail("ad replay: " + std::to_string(bad) + " ad(s) failed");
  if (pairs > 0 && matched == 0) {
    doc.fail("ad replay: no index candidate matched its job");
  }
}

void AdReplay::report(ResultDoc& doc) const {
  doc.metric("daemons.machine_ad_us", machine_ad.us_per_call(), "us");
  doc.metric("daemons.summary_ad_us", summary_ad.us_per_call(), "us");
  doc.metric("daemons.full_ad_us", full_ad.us_per_call(), "us");
  doc.metric("daemons.wire_encode_us", wire_encode.us_per_call(), "us");
  doc.metric("daemons.wire_decode_us", wire_decode.us_per_call(), "us");
  doc.metric("classad.parse_us", parse.us_per_call(), "us");
  doc.metric("classad.unparse_us", unparse.us_per_call(), "us");
  doc.metric("classad.profile_us", profile.us_per_call(), "us");
  doc.metric("classad.index_insert_us", index_insert.us_per_call(), "us");
  doc.metric("classad.index_erase_us", index_erase.us_per_call(), "us");
  doc.metric("classad.candidates_us", candidates.us_per_call(), "us");
  doc.metric("classad.candidates_per_job",
             candidates.calls == 0
                 ? 0
                 : static_cast<double>(candidates_found) /
                       static_cast<double>(candidates.calls),
             "count");
  doc.metric("classad.match_us", match.us_per_call(), "us");
}

namespace {

/// Host time of Pool::run_until_done on a fresh pool built from `cell`
/// (construction and setup excluded); `events` receives the engine count.
double time_pool_run(const pool::SweepCell& cell, bool trace,
                     std::uint64_t& events) {
  pool::PoolConfig config = cell.config;
  config.trace = trace;
  pool::Pool pool(std::move(config));
  if (cell.setup) cell.setup(pool);
  pool.boot();
  const double s = time_s([&] { (void)pool.run_until_done(cell.limit); });
  events = pool.engine().executed();
  return s;
}

}  // namespace

void CellProbe::run(const std::vector<pool::SweepCell>& cells, unsigned threads,
                    ResultDoc& doc) {
  double serial_s = 0;
  for (const pool::SweepCell& cell : cells) {
    pool::SweepReport one;
    const double s = time_s([&] { one = pool::SweepRunner(1).run({cell}); });
    serial_s += s;
    cell_ms.add(s * 1e3);
    const pool::CellOutcome& outcome = one.cells.front();
    engine_events.push_back(outcome.engine_events);
    journal_bytes += static_cast<double>(outcome.journal.size());

    std::optional<obs::Journal> journal;
    journal_parse.add_block(1, [&] { journal = obs::parse_journal(outcome.journal); });
    if (!journal.has_value()) {
      doc.fail("cell " + outcome.label + ": its journal does not parse");
      continue;
    }
    oracle.add_block(1, [&] {
      (void)chaos::evaluate_oracles(outcome.report, outcome.finished,
                                    journal->events);
    });

    // Alternate which goes first, so warm-up does not favour one side.
    std::uint64_t on_events = 0;
    std::uint64_t off_events = 0;
    if (cell_ms.size() % 2 == 0) {
      pool_on_s += time_pool_run(cell, true, on_events);
      pool_off_s += time_pool_run(cell, false, off_events);
    } else {
      pool_off_s += time_pool_run(cell, false, off_events);
      pool_on_s += time_pool_run(cell, true, on_events);
    }
    if (on_events != outcome.engine_events || off_events != on_events) {
      doc.fail("cell " + outcome.label + ": engine events differ between the " +
               "sweep (" + std::to_string(outcome.engine_events) +
               "), trace on (" + std::to_string(on_events) +
               ") and trace off (" + std::to_string(off_events) + ")");
    }
  }

  const pool::SweepReport sweep = pool::SweepRunner(threads).run(cells);
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    if (sweep.cells[i].engine_events != engine_events[i]) {
      doc.fail("cell " + sweep.cells[i].label +
               ": the parallel sweep ran a different number of events");
    }
  }
  sweep_eff = serial_s / (sweep.wall_seconds * sweep.threads_used);
}

void CellProbe::report(ResultDoc& doc) const {
  doc.metric("obs.trace_overhead_frac", pool_on_s / pool_off_s - 1, "frac");
  doc.metric("obs.journal_kb_per_cell",
             journal_bytes / 1024.0 / static_cast<double>(cell_ms.size()),
             "KiB");
  doc.metric("obs.journal_parse_us", journal_parse.us_per_call(), "us");
  doc.metric("chaos.cell_ms_p50", cell_ms.quantile(0.5), "ms");
  doc.metric("chaos.cell_ms_p99", cell_ms.quantile(0.99), "ms");
  doc.metric("chaos.oracle_us", oracle.us_per_call(), "us");
  doc.metric("pool.sweep_eff", sweep_eff, "frac");
}

void StepTotals::count(pool::Pool& pool) {
  events += pool.engine().executed();
  messages += pool.fabric().total_messages();
  bytes += pool.fabric().total_bytes();
  matches += pool.matchmaker().matches_made();
  match_evals += pool.matchmaker().match_evals();
  attempts += pool.schedd().total_attempts();
  claims_denied += pool.schedd().claims_denied();
}

void StepTotals::report(ResultDoc& doc, double plain_s) const {
  const auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  doc.metric("sim.events", static_cast<double>(events), "count");
  doc.metric("sim.step_us_p50", ledger.step_us.quantile(0.5), "us");
  doc.metric("sim.step_us_p99", ledger.step_us.quantile(0.99), "us");
  doc.metric("sim.queue_max", static_cast<double>(ledger.queue_max), "count");
  doc.metric("net.messages", static_cast<double>(messages), "count");
  doc.metric("net.bytes", static_cast<double>(bytes), "B");
  doc.metric("net.bytes_per_msg",
             ratio(static_cast<double>(bytes), static_cast<double>(messages)),
             "B/msg");
  doc.metric("net.queued_max", static_cast<double>(ledger.queued_max), "count");
  doc.metric("net.conns_max", static_cast<double>(ledger.conns_max), "count");
  doc.metric("daemons.negotiate_share", ratio(ledger.negotiate_s, ledger.run_s),
             "frac");
  doc.metric("daemons.negotiate_ms_p50", ledger.negotiate_ms.quantile(0.5), "ms");
  doc.metric("daemons.matches", static_cast<double>(matches), "count");
  doc.metric("daemons.match_evals", static_cast<double>(match_evals), "count");
  doc.metric("daemons.evals_per_match",
             ratio(static_cast<double>(match_evals), static_cast<double>(matches)),
             "count");
  doc.metric("daemons.claim_success",
             1 - ratio(static_cast<double>(claims_denied),
                       static_cast<double>(attempts)),
             "frac");
  doc.metric("ledger.overhead_frac", ratio(ledger.run_s, plain_s) - 1, "frac");
}

}  // namespace perfbench
