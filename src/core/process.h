// Simulated process: identity, I/O priority, token account, deadline
// settings, and proxy state (§3.1).
//
// A process that does I/O work on behalf of others (the writeback daemon,
// the journal commit task) is marked as a *proxy* for the set of processes
// it is serving; while marked, any data it dirties or submits is attributed
// to that set rather than to the proxy itself.
#ifndef SRC_CORE_PROCESS_H_
#define SRC_CORE_PROCESS_H_

#include <string>

#include "src/core/causes.h"
#include "src/sim/time.h"

namespace splitio {

// Linux ionice classes. The paper's experiments use best-effort 0..7 and
// idle; real-time is supported for completeness (strictly above BE).
enum class IoClass { kRealTime, kBestEffort, kIdle };

inline constexpr int kDefaultPriority = 4;  // Linux default (like writeback).

class Process {
 public:
  Process(int32_t pid, std::string name)
      : pid_(pid), name_(std::move(name)), self_(CauseSet::Identity(pid)) {}

  int32_t pid() const { return pid_; }
  const std::string& name() const { return name_; }

  IoClass io_class() const { return io_class_; }
  void set_io_class(IoClass c) { io_class_ = c; }

  // 0 = highest, 7 = lowest (Linux ionice best-effort levels).
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  // Token-bucket account; processes sharing an account share a rate limit.
  // -1 means unthrottled.
  int account() const { return account_; }
  void set_account(int a) { account_ = a; }

  // Per-process deadline settings (Table 3). kNanosMax = no deadline.
  Nanos read_deadline() const { return read_deadline_; }
  void set_read_deadline(Nanos d) { read_deadline_ = d; }
  Nanos write_deadline() const { return write_deadline_; }
  void set_write_deadline(Nanos d) { write_deadline_ = d; }
  Nanos fsync_deadline() const { return fsync_deadline_; }
  void set_fsync_deadline(Nanos d) { fsync_deadline_ = d; }

  // Proxy state. While a proxy, Causes() reports the served set.
  bool is_proxy() const { return is_proxy_; }
  void BeginProxy(const CauseSet& served) {
    is_proxy_ = true;
    proxy_causes_ = served;
  }
  void AddProxyCause(const CauseSet& more) { proxy_causes_.Merge(more); }
  void EndProxy() {
    is_proxy_ = false;
    proxy_causes_.Clear();
  }

  // The set of processes responsible for work this process performs now.
  // The reference is invalidated by the next BeginProxy, AddProxyCause or
  // EndProxy on this process.
  const CauseSet& Causes() const {
    if (is_proxy_ && !proxy_causes_.empty()) {
      return proxy_causes_;
    }
    return self_;
  }

 private:
  int32_t pid_;
  std::string name_;
  CauseSet self_;
  IoClass io_class_ = IoClass::kBestEffort;
  int priority_ = kDefaultPriority;
  int account_ = -1;
  Nanos read_deadline_ = kNanosMax;
  Nanos write_deadline_ = kNanosMax;
  Nanos fsync_deadline_ = kNanosMax;
  bool is_proxy_ = false;
  CauseSet proxy_causes_;
};

}  // namespace splitio

#endif  // SRC_CORE_PROCESS_H_
