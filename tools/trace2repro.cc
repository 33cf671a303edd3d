// trace2repro: converts a real trace slice (blktrace text or MSR CSV) into
// a stress repro file that `stress_runner --replay` re-executes
// byte-identically.
//
// Usage:
//   trace2repro TRACE [--out FILE] [--seed N] [--sched NAME]
//               [--control NAME] [--max-ops N] [--no-minimize]
//
// A healthy slice records the reserved oracle "clean" (replay then asserts
// the slice keeps passing every invariant oracle). To demonstrate a
// failing repro end to end, inject a negative control: with e.g.
// `--control drop-completion` the recorded oracle is a real failure, the
// reconstructed program is ddmin-minimized before packaging, and replay
// compares the failure detail byte-for-byte.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "src/core/sched_factory.h"
#include "src/stress/runner.h"
#include "src/stress/trace_repro.h"
#include "src/workload/trace/parse.h"

int main(int argc, char** argv) {
  using namespace splitio;
  std::string trace_path;
  std::string out_path;
  TraceReproOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next("--seed"), nullptr, 0);
    } else if (arg == "--sched") {
      const char* name = next("--sched");
      if (!SetStackSched(name, &options.stack)) {
        std::fprintf(stderr, "trace2repro: %s\n",
                     UnknownSchedMessage(name).c_str());
        return 2;
      }
    } else if (arg == "--control") {
      const char* name = next("--control");
      if (!NegativeControlFromName(name, &options.stack.control)) {
        std::fprintf(stderr, "unknown negative control %s\n", name);
        return 2;
      }
    } else if (arg == "--max-ops") {
      options.reconstruct.max_ops =
          std::strtoull(next("--max-ops"), nullptr, 0);
    } else if (arg == "--max-shrink-evals") {
      options.max_shrink_evals =
          static_cast<int>(std::strtol(next("--max-shrink-evals"), nullptr, 0));
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--no-content-diff") {
      options.oracle.run_content_differential = false;
    } else if (arg == "--no-mq-equiv") {
      options.oracle.run_mq_equivalence = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: trace2repro TRACE [--out FILE] [--seed N] "
                  "[--sched NAME] [--control NAME] [--max-ops N] "
                  "[--max-shrink-evals N] [--no-minimize] "
                  "[--no-content-diff] [--no-mq-equiv]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
      return 2;
    } else {
      trace_path = arg;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "no trace given (see --help)\n");
    return 2;
  }

  ingest::ParsedTrace parsed;
  ingest::TraceError terr;
  if (!ingest::LoadTraceFile(trace_path, ingest::TraceFormat::kAuto, &parsed,
                             &terr)) {
    std::fprintf(stderr, "trace2repro: %s: %s\n", trace_path.c_str(),
                 terr.Describe().c_str());
    return 2;
  }

  StressFailure repro;
  std::string error;
  if (!TraceToRepro(parsed, options, &repro, &error)) {
    std::fprintf(stderr, "trace2repro: %s\n", error.c_str());
    return 2;
  }

  std::string json = ReproToJson(repro);
  if (out_path.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    out << json << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "trace2repro: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
  }
  std::fprintf(stderr,
               "trace2repro: %llu records -> %zu ops, oracle \"%s\"%s%s\n",
               static_cast<unsigned long long>(parsed.records.size()),
               repro.scenario.program.ops.size(), repro.oracle.c_str(),
               repro.minimized ? " (minimized)" : "",
               out_path.empty() ? "" : (", wrote " + out_path).c_str());
  return 0;
}
