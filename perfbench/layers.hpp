// Layer replays: the public functions of classad, daemons, obs, chaos and
// pool timed one layer at a time, on the inputs and outputs of a workload's
// own runs. These are outside-in spans — the benchmark times its calls into
// each layer; nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <vector>

#include "ledger.hpp"
#include "pool/sweep.hpp"

namespace perfbench {

/// Ad building, wire coding, ClassAd text and index/match costs, replayed
/// on every startd and every job record of finished pools.
struct AdReplay {
  OpCost machine_ad;     ///< Startd::machine_ad
  OpCost summary_ad;     ///< JobDescription::to_summary_ad
  OpCost full_ad;        ///< JobDescription::to_full_ad
  OpCost wire_encode;    ///< WireMessage::encode, startd-ad and job-ad messages
  OpCost wire_decode;    ///< WireMessage::parse of the same bytes
  OpCost unparse;        ///< ClassAd::str of machine and job summary ads
  OpCost parse;          ///< classad::parse_classad of that text
  OpCost profile;        ///< classad::profile_requirements per job
  OpCost index_insert;   ///< AdIndex::insert, first fill and re-insert
  OpCost index_erase;    ///< AdIndex::erase
  OpCost candidates;     ///< AdIndex::candidates per job profile
  OpCost match;          ///< classad::symmetric_match, job × candidates
  std::uint64_t candidates_found = 0;

  /// Most candidates per job that go on to a full symmetric_match.
  static constexpr std::size_t kMatchesPerJob = 8;

  void run(esg::pool::Pool& pool, ResultDoc& doc);
  void report(ResultDoc& doc) const;
};

/// Whole-cell, tracing, journal, oracle and sweep costs over a set of
/// traced sweep cells.
struct CellProbe {
  Samples cell_ms;        ///< serial SweepRunner(1) run of one cell
  OpCost journal_parse;   ///< obs::parse_journal of the cell's journal
  OpCost oracle;          ///< chaos::evaluate_oracles on the cell's outputs
  double journal_bytes = 0;
  double pool_on_s = 0;   ///< Pool::run_until_done, config.trace on
  double pool_off_s = 0;  ///< the same, trace off
  double sweep_eff = 0;
  /// Engine events of each serial run, in cell order (determinism checks).
  std::vector<std::uint64_t> engine_events;

  /// `cells` must have config.trace set. `threads` is the sweep width.
  void run(const std::vector<esg::pool::SweepCell>& cells, unsigned threads,
           ResultDoc& doc);
  void report(ResultDoc& doc) const;
};

/// The sim/net/daemons figures a StepLedger run yields, with the pool
/// counters they are read against, summed over one or more stepped pools.
struct StepTotals {
  StepLedger ledger;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t matches = 0;
  std::uint64_t match_evals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t claims_denied = 0;

  /// Add the counters of a pool that `ledger` just stepped.
  void count(esg::pool::Pool& pool);
  /// `plain_s`: host time of the same runs through Pool::run_until_done,
  /// the base of ledger.overhead_frac.
  void report(ResultDoc& doc, double plain_s) const;
};

}  // namespace perfbench
