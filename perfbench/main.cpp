// perfbench: runs one benchmark workload and prints one JSON line —
// verdict, fingerprint and metrics. perfbench/run.py builds this program,
// checks the fingerprint against the recorded one and prints the result.
//
//   perfbench --workload scale_tiered|readvertise|chaos_campaign
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate per-layer run, which reports its own overhead.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload scale_tiered|readvertise|"
               "chaos_campaign --seed N --seconds S --trace 0|1\n"
               "       [--machines N --jobs N --limit-sec N] "
               "[--plans N --discipline scoped|naive]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) return usage("every flag takes a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (flag == "--machines") {
      opt.machines = std::atoi(value);
    } else if (flag == "--jobs") {
      opt.jobs = std::atoi(value);
    } else if (flag == "--plans") {
      opt.plans = std::atoi(value);
    } else if (flag == "--limit-sec") {
      opt.limit_sec = std::atoi(value);
    } else if (flag == "--discipline") {
      opt.discipline = value;
    } else {
      return usage("unknown flag");
    }
  }

  perfbench::ResultDoc doc;
  int batches = 0;
  if (opt.workload == "scale_tiered" || opt.workload == "readvertise") {
    batches = perfbench::run_pool_workload(opt, doc);
  } else if (opt.workload == "chaos_campaign") {
    batches = perfbench::run_campaign_workload(opt, doc);
  } else {
    return usage("unknown workload");
  }
  std::printf("%s\n",
              doc.json(opt.workload, opt.seed, opt.trace ? 1 : 0, batches).c_str());
  return doc.ok() ? 0 : 1;
}
