// Deterministic, seed-driven fault injection for the device and block
// layers.
//
// The injector implements the device layer's `DeviceFaultHook` (transient
// EIO and latency spikes decided per request, in dispatch order, from one
// explicit-seed RNG stream) and provides a block-layer hook for failing
// requests before they reach the device. A second, independent RNG stream
// drives crash-image sampling (which volatile writes survive, which are
// torn) so toggling transient faults does not perturb crash exploration.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/block/request.h"
#include "src/device/device.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace splitio {

struct FaultConfig {
  uint64_t seed = 1;
  // Per-request probability of a transient I/O error (-EIO).
  double write_eio_rate = 0;
  double read_eio_rate = 0;
  // Per-request probability of a latency spike (slow media retry).
  double latency_spike_rate = 0;
  Nanos latency_spike = Msec(50);
  // Controller time consumed by a request that fails with EIO.
  Nanos eio_latency = Usec(100);
  // Crash-image model: probability that a volatile (unflushed) write
  // survives the crash at all, and — given it survives and spans more than
  // one sector — that it is torn, leaving only a proper sector prefix.
  double volatile_survival_rate = 0.5;
  double torn_write_rate = 0.25;

  // The transient fault mix crash exploration runs with (RunCrashSweep,
  // the stress executor): EIO on 2% of writes and 1% of reads, a latency
  // spike on 1% of requests.
  void EnableTransientFaults() {
    write_eio_rate = 0.02;
    read_eio_rate = 0.01;
    latency_spike_rate = 0.01;
  }
};

class FaultInjector : public DeviceFaultHook {
 public:
  explicit FaultInjector(const FaultConfig& config);

  // DeviceFaultHook: decides EIO / latency spike for one device request.
  Outcome OnDeviceRequest(const DeviceRequest& req) override;

  // Block-layer hook flavour: same transient-EIO model applied before the
  // request reaches the device (install with BlockLayer::set_fault_hook via
  // [this](const BlockRequest& r) { return inj.OnBlockRequest(r); }).
  int OnBlockRequest(const BlockRequest& req);

  // Gate transient faults (EIO + spikes) without disturbing either RNG
  // stream's relationship to the seed. Crash sampling is unaffected.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  const FaultConfig& config() const { return config_; }
  // RNG stream reserved for crash-image sampling (CrashMonitor::Snapshot).
  Rng& crash_rng() { return crash_rng_; }

  uint64_t requests_seen() const { return requests_seen_; }
  uint64_t eios_injected() const { return eios_injected_; }
  uint64_t spikes_injected() const { return spikes_injected_; }

 private:
  Outcome Decide(bool is_write);

  FaultConfig config_;
  Rng rng_;
  Rng crash_rng_;
  bool enabled_ = true;
  uint64_t requests_seen_ = 0;
  uint64_t eios_injected_ = 0;
  uint64_t spikes_injected_ = 0;
};

}  // namespace splitio

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
