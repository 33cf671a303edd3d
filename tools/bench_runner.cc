// Bench runner: executes bench binaries, measures them, and emits a single
// machine-readable BENCH_results.json so perf changes can be compared
// run-over-run.
//
// Usage:
//   bench_runner [--out results.json] [--outdir dir] [--only substr]
//                [--jobs N] <bench binary>...
//   bench_runner --compare old.json new.json [--threshold 0.10]
//   bench_runner --validate results.json
//
// For each bench the runner forks/execs the binary with stdout+stderr
// redirected to <outdir>/<name>.txt (the paper-fidelity output, kept for
// eyeballing), measures wall-clock time and peak RSS (wait4 rusage), and
// parses the BENCHJSON line the bench harness prints at exit (total
// simulator events, per-layer counters, named metrics). The derived
// headline metric is events_per_sec = events_processed / wall seconds.
//
// --jobs N forks up to N benches concurrently (0 = one per core). Each
// bench is still its own process with its own capture file, and the results
// array stays in input order, so the JSON is independent of completion
// order. Wall-clock and events/sec of co-scheduled benches contend for
// cores, so keep the default (sequential) wherever the numbers feed a perf
// gate; parallel mode is for turnaround (bench_all_parallel, local dev).
//
// --compare reads two BENCH_results.json files produced by this runner and
// reports per-bench deltas; it exits non-zero if any bench's events_per_sec
// regressed by more than --threshold (default 10%), which is what CI gates
// on. Each row also shows the events and wall_ms behind the rate (old ->
// new): a change that removes futile wake-ups lowers events/sec by
// construction, even when the bench gets faster. The allocs column (old ->
// new, from each entry's counters; `-` where a file has none) is shown
// only, not gated.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

struct BenchResult {
  std::string name;
  int exit_code = -1;
  double wall_ms = 0;
  long max_rss_kb = 0;
  double events_processed = 0;
  double events_per_sec = 0;
  // Raw counters and named metrics parsed from the BENCHJSON line,
  // preserved verbatim (key -> value).
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> metrics;
  // Per-stack counter deltas (label -> flat counter object), present only
  // when the bench recorded them (bench/common/report.h "per_stack").
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      per_stack;
};

double MonotonicMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Finds `"key"` at or after `from` and returns the index of its value (just
// past the colon, whitespace skipped), so styled JSON (spaces/newlines after
// colons, e.g. from a Python or jq round-trip) parses the same as the
// compact form this tool writes. Returns npos if the key is absent.
size_t FindValuePos(const std::string& s, const std::string& key,
                    size_t from = 0) {
  std::string needle = "\"" + key + "\"";
  size_t pos = s.find(needle, from);
  while (pos != std::string::npos) {
    size_t p = pos + needle.size();
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
    if (p < s.size() && s[p] == ':') {
      ++p;
      while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
        ++p;
      }
      return p;
    }
    // Matched inside a string value rather than a key; keep looking.
    pos = s.find(needle, pos + 1);
  }
  return std::string::npos;
}

// Finds `"key": <number>` at or after `from`; returns true and the number.
bool FindNumber(const std::string& s, const std::string& key, double* out,
                size_t from = 0) {
  size_t pos = FindValuePos(s, key, from);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(s.c_str() + pos, nullptr);
  return true;
}

// Parses the `"name":{...}` object at/after `from` into key/value pairs.
// Assumes the flat `"key":number` layout the bench harness emits.
std::vector<std::pair<std::string, double>> ParseFlatObject(
    const std::string& s, const std::string& name, size_t from) {
  std::vector<std::pair<std::string, double>> pairs;
  std::string needle = "\"" + name + "\":{";
  size_t pos = s.find(needle, from);
  if (pos == std::string::npos) {
    return pairs;
  }
  pos += needle.size();
  size_t end = s.find('}', pos);
  if (end == std::string::npos) {
    return pairs;
  }
  while (pos < end) {
    size_t kq1 = s.find('"', pos);
    if (kq1 == std::string::npos || kq1 >= end) {
      break;
    }
    size_t kq2 = s.find('"', kq1 + 1);
    if (kq2 == std::string::npos || kq2 >= end) {
      break;
    }
    std::string key = s.substr(kq1 + 1, kq2 - kq1 - 1);
    size_t colon = s.find(':', kq2);
    if (colon == std::string::npos || colon >= end) {
      break;
    }
    double value = std::strtod(s.c_str() + colon + 1, nullptr);
    pairs.emplace_back(key, value);
    size_t comma = s.find(',', colon);
    if (comma == std::string::npos || comma >= end) {
      break;
    }
    pos = comma + 1;
  }
  return pairs;
}

// Parses `"per_stack":{"label":{flat},...}` at/after `from`: one level of
// nesting, each inner object flat (the layout bench/common/report.h emits).
std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
ParsePerStack(const std::string& s, size_t from) {
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      stacks;
  std::string needle = "\"per_stack\":{";
  size_t pos = s.find(needle, from);
  if (pos == std::string::npos) {
    return stacks;
  }
  pos += needle.size();
  while (pos < s.size() && s[pos] == '"') {
    size_t label_end = s.find('"', pos + 1);
    if (label_end == std::string::npos) {
      break;
    }
    std::string label = s.substr(pos + 1, label_end - pos - 1);
    size_t brace = s.find('{', label_end);
    if (brace == std::string::npos) {
      break;
    }
    size_t close = s.find('}', brace);
    if (close == std::string::npos) {
      break;
    }
    // Reuse the flat-object parser on the inner "<label>":{...} span.
    stacks.emplace_back(label, ParseFlatObject(s, label, pos));
    pos = close + 1;
    if (pos < s.size() && s[pos] == ',') {
      ++pos;
    }
  }
  return stacks;
}

void ParseBenchJson(const std::string& output, BenchResult* r) {
  // Use the last BENCHJSON line in case the bench printed one mid-run.
  size_t pos = output.rfind("BENCHJSON ");
  if (pos == std::string::npos) {
    return;
  }
  size_t eol = output.find('\n', pos);
  std::string line = output.substr(pos, eol == std::string::npos
                                            ? std::string::npos
                                            : eol - pos);
  FindNumber(line, "events_processed", &r->events_processed);
  r->counters = ParseFlatObject(line, "counters", 0);
  r->metrics = ParseFlatObject(line, "metrics", 0);
  r->per_stack = ParsePerStack(line, 0);
}

bool RunOne(const std::string& path, const std::string& outdir,
            BenchResult* r) {
  r->name = Basename(path);
  std::string capture = outdir + "/" + r->name + ".txt";
  double start_ms = MonotonicMs();
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    int fd = open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("wait4");
    return false;
  }
  r->wall_ms = MonotonicMs() - start_ms;
  r->max_rss_kb = ru.ru_maxrss;  // KB on Linux
  r->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  ParseBenchJson(ReadFile(capture), r);
  if (r->wall_ms > 0) {
    r->events_per_sec = r->events_processed / (r->wall_ms / 1e3);
  }
  return true;
}

void WriteJson(const std::string& out_path,
               const std::vector<BenchResult>& results) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::perror("fopen");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema_version\": 1,\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"bench\":\"%s\",\"exit_code\":%d,"
                 "\"wall_ms\":%.1f,\"events_processed\":%.0f,"
                 "\"events_per_sec\":%.1f,\"max_rss_kb\":%ld",
                 r.name.c_str(), r.exit_code, r.wall_ms, r.events_processed,
                 r.events_per_sec, r.max_rss_kb);
    std::fprintf(f, ",\"counters\":{");
    for (size_t j = 0; j < r.counters.size(); ++j) {
      std::fprintf(f, "%s\"%s\":%.0f", j > 0 ? "," : "",
                   r.counters[j].first.c_str(), r.counters[j].second);
    }
    std::fprintf(f, "},\"metrics\":{");
    for (size_t j = 0; j < r.metrics.size(); ++j) {
      std::fprintf(f, "%s\"%s\":%.17g", j > 0 ? "," : "",
                   r.metrics[j].first.c_str(), r.metrics[j].second);
    }
    std::fprintf(f, "}");
    if (!r.per_stack.empty()) {
      std::fprintf(f, ",\"per_stack\":{");
      for (size_t j = 0; j < r.per_stack.size(); ++j) {
        std::fprintf(f, "%s\"%s\":{", j > 0 ? "," : "",
                     r.per_stack[j].first.c_str());
        const auto& pairs = r.per_stack[j].second;
        for (size_t k = 0; k < pairs.size(); ++k) {
          std::fprintf(f, "%s\"%s\":%.0f", k > 0 ? "," : "",
                       pairs[k].first.c_str(), pairs[k].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// ---- compare mode ----

struct CompareEntry {
  double wall_ms = 0;
  double events_processed = 0;
  double events_per_sec = 0;
  std::string allocs = "-";  // the entry's counters.allocs, if it has one
};

std::map<std::string, CompareEntry> LoadResults(const std::string& path) {
  std::map<std::string, CompareEntry> entries;
  std::string s = ReadFile(path);
  size_t pos = 0;
  while ((pos = FindValuePos(s, "bench", pos)) != std::string::npos) {
    if (pos >= s.size() || s[pos] != '"') {
      continue;  // not a string value; resume after this occurrence
    }
    size_t name_start = pos + 1;
    size_t name_end = s.find('"', name_start);
    if (name_end == std::string::npos) {
      break;
    }
    std::string name = s.substr(name_start, name_end - name_start);
    CompareEntry e;
    FindNumber(s, "wall_ms", &e.wall_ms, name_end);
    FindNumber(s, "events_processed", &e.events_processed, name_end);
    FindNumber(s, "events_per_sec", &e.events_per_sec, name_end);
    // Only this entry's own counters object: stop at the next entry.
    size_t next = FindValuePos(s, "bench", name_end);
    size_t counters = FindValuePos(s, "counters", name_end);
    if (counters < next && counters < s.size() && s[counters] == '{') {
      size_t allocs = FindValuePos(s, "allocs", counters);
      if (allocs < s.find('}', counters)) {
        char text[32];
        std::snprintf(text, sizeof(text), "%.0f",
                      std::strtod(s.c_str() + allocs, nullptr));
        e.allocs = text;
      }
    }
    entries[name] = e;
    pos = name_end;
  }
  return entries;
}

int Compare(const std::string& old_path, const std::string& new_path,
            double threshold) {
  auto olds = LoadResults(old_path);
  auto news = LoadResults(new_path);
  if (olds.empty() || news.empty()) {
    std::fprintf(stderr, "compare: could not load results (%zu old, %zu new)\n",
                 olds.size(), news.size());
    return 2;
  }
  std::printf("%-36s %25s %21s %25s %10s %10s %8s\n", "bench",
              "events (old -> new)", "wall_ms (old -> new)",
              "allocs (old -> new)", "old ev/s", "new ev/s", "delta");
  int regressions = 0;
  for (const auto& [name, n] : news) {
    auto it = olds.find(name);
    if (it == olds.end()) {
      std::printf("%-36s %11s -> %-10.0f %9s -> %-8.1f %11s -> %-10s %10s "
                  "%10.0f %8s\n",
                  name.c_str(), "(new)", n.events_processed, "-", n.wall_ms,
                  "-", n.allocs.c_str(), "-", n.events_per_sec, "-");
      continue;
    }
    const CompareEntry& o = it->second;
    double delta = o.events_per_sec > 0
                       ? (n.events_per_sec - o.events_per_sec) /
                             o.events_per_sec
                       : 0;
    bool regressed = delta < -threshold;
    regressions += regressed ? 1 : 0;
    std::printf("%-36s %11.0f -> %-10.0f %9.1f -> %-8.1f %11s -> %-10s "
                "%10.0f %10.0f %+7.1f%%%s\n",
                name.c_str(), o.events_processed, n.events_processed,
                o.wall_ms, n.wall_ms, o.allocs.c_str(), n.allocs.c_str(),
                o.events_per_sec, n.events_per_sec, delta * 100,
                regressed ? "  REGRESSION" : "");
  }
  if (regressions > 0) {
    std::printf("\n%d bench(es) regressed more than %.0f%% in events/sec\n",
                regressions, threshold * 100);
    return 1;
  }
  std::printf("\nno events/sec regression beyond %.0f%%\n", threshold * 100);
  return 0;
}

// ---- validate mode ----

// Structural check of a results file (CI's smoke gate): at least one bench
// entry, every entry exited 0, and every entry carries a positive
// events_per_sec. Replaces the old shell greps, which matched substrings of
// the raw JSON and silently passed on empty or truncated files.
int Validate(const std::string& path) {
  std::string s = ReadFile(path);
  if (s.empty()) {
    std::fprintf(stderr, "validate: %s is missing or empty\n", path.c_str());
    return 1;
  }
  int entries = 0;
  int bad = 0;
  size_t pos = 0;
  while ((pos = FindValuePos(s, "bench", pos)) != std::string::npos) {
    if (pos >= s.size() || s[pos] != '"') {
      continue;
    }
    size_t name_start = pos + 1;
    size_t name_end = s.find('"', name_start);
    if (name_end == std::string::npos) {
      break;
    }
    std::string name = s.substr(name_start, name_end - name_start);
    ++entries;
    double exit_code = -1;
    double events_per_sec = 0;
    bool has_exit = FindNumber(s, "exit_code", &exit_code, name_end);
    bool has_eps = FindNumber(s, "events_per_sec", &events_per_sec, name_end);
    if (!has_exit || exit_code != 0) {
      std::fprintf(stderr, "validate: %s: exit_code %s\n", name.c_str(),
                   has_exit ? std::to_string(static_cast<int>(exit_code)).c_str()
                            : "missing");
      ++bad;
    }
    if (!has_eps || events_per_sec <= 0) {
      std::fprintf(stderr, "validate: %s: events_per_sec %s\n", name.c_str(),
                   has_eps ? "not positive" : "missing");
      ++bad;
    }
    pos = name_end;
  }
  if (entries == 0) {
    std::fprintf(stderr, "validate: no bench entries in %s\n", path.c_str());
    return 1;
  }
  if (bad > 0) {
    std::fprintf(stderr, "validate: %d problem(s) across %d bench(es)\n", bad,
                 entries);
    return 1;
  }
  std::printf("validate: %d bench(es) ok in %s\n", entries, path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_results.json";
  std::string outdir = "bench_out";
  std::string only;
  std::string compare_old;
  std::string compare_new;
  std::string validate_path;
  double threshold = 0.10;
  int jobs = 1;
  std::vector<std::string> benches;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out = next("--out");
    } else if (arg == "--outdir") {
      outdir = next("--outdir");
    } else if (arg == "--only") {
      only = next("--only");
    } else if (arg == "--threshold") {
      threshold = std::strtod(next("--threshold").c_str(), nullptr);
    } else if (arg == "--jobs") {
      jobs = std::atoi(next("--jobs").c_str());
    } else if (arg == "--compare") {
      compare_old = next("--compare");
      compare_new = next("--compare");
    } else if (arg == "--validate") {
      validate_path = next("--validate");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_runner [--out FILE] [--outdir DIR] [--only SUBSTR] "
          "[--jobs N] BENCH...\n       bench_runner --compare OLD NEW "
          "[--threshold FRACTION]\n       bench_runner --validate RESULTS\n");
      return 0;
    } else {
      benches.push_back(arg);
    }
  }

  if (!compare_old.empty()) {
    return Compare(compare_old, compare_new, threshold);
  }
  if (!validate_path.empty()) {
    return Validate(validate_path);
  }
  if (benches.empty()) {
    std::fprintf(stderr, "no bench binaries given (see --help)\n");
    return 2;
  }
  mkdir(outdir.c_str(), 0755);  // EEXIST is fine

  std::vector<std::string> selected;
  for (const std::string& path : benches) {
    if (!only.empty() && Basename(path).find(only) == std::string::npos) {
      continue;
    }
    selected.push_back(path);
  }

  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs = std::max(1, std::min<int>(jobs, static_cast<int>(selected.size())));

  // Slot per selected bench, filled in any completion order; the results
  // array is assembled in input order afterwards so the JSON (and the
  // --compare table keyed off it) never depends on scheduling.
  std::vector<BenchResult> slots(selected.size());
  std::vector<char> ran(selected.size(), 0);
  std::atomic<size_t> next_index{0};
  std::mutex print_mutex;
  auto worker = [&]() {
    for (;;) {
      size_t i = next_index.fetch_add(1);
      if (i >= selected.size()) {
        return;
      }
      BenchResult r;
      bool ok = RunOne(selected[i], outdir, &r);
      std::lock_guard<std::mutex> lock(print_mutex);
      std::printf("[%2zu/%zu] %-40s ", i + 1, selected.size(),
                  Basename(selected[i]).c_str());
      if (ok) {
        std::printf("%8.0f ms  %12.0f events  %10.0f ev/s  rss %ld KB%s\n",
                    r.wall_ms, r.events_processed, r.events_per_sec,
                    r.max_rss_kb, r.exit_code == 0 ? "" : "  FAILED");
      } else {
        std::printf("%8s\n", "ERROR");
      }
      std::fflush(stdout);
      slots[i] = std::move(r);
      ran[i] = ok ? 1 : 0;
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  std::vector<BenchResult> results;
  int failures = 0;
  for (size_t i = 0; i < selected.size(); ++i) {
    if (!ran[i]) {
      ++failures;
      continue;
    }
    failures += slots[i].exit_code == 0 ? 0 : 1;
    results.push_back(std::move(slots[i]));
  }
  if (results.empty() && failures == 0) {
    // A typo'd --only would otherwise write an empty results file and
    // report success, silently masking every bench in CI.
    std::fprintf(stderr, "--only '%s' matched no bench binaries\n",
                 only.c_str());
    return 2;
  }
  WriteJson(out, results);
  std::printf("\nwrote %s (%zu benches, %d failed)\n", out.c_str(),
              results.size(), failures);
  return failures == 0 ? 0 : 1;
}
