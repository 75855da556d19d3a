// vsbench, the tuner benchmark binary: runs one workload and prints its result ledger
// as the last line of stdout.
//
//   vsbench --workload <session_drift|rdfs_search|daemon_mixed> --seed <n>
//           --seconds <s> --trace <0|1> --workdir <dir>
//
// Exit status: 0 when every operation and correctness check passed, 1 when
// any failed (the ledger is still printed, with "correct": false), 2 on
// bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "ledger.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: vsbench --workload <session_drift|rdfs_search|"
               "daemon_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in --key value pairs");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  // Cache directories and the daemon socket live under the workdir; work
  // from inside it so socket paths stay short.
  std::filesystem::create_directories(args.workdir);
  std::filesystem::current_path(args.workdir);
  args.workdir = ".";

  perfbench::Ledger ledger;
  try {
    if (args.workload == "session_drift") {
      perfbench::RunSessionDrift(args, &ledger);
    } else if (args.workload == "rdfs_search") {
      perfbench::RunRdfsSearch(args, &ledger);
    } else if (args.workload == "daemon_mixed") {
      perfbench::RunDaemonMixed(args, &ledger);
    } else {
      return Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    ledger.Check(false, std::string("uncaught exception: ") + e.what());
  }
  ledger.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  ledger.Set("error_rate",
             perfbench::Ratio(static_cast<double>(ledger.failed()),
                              static_cast<double>(ledger.attempted())),
             "ratio");
  std::printf("%s\n", ledger.Json().c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}
