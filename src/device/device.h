// Storage device models.
//
// `BlockDevice` offers two execution contracts:
//  - `Execute` services one request at a time (queue depth 1), the
//    historical serial contract every figure bench was calibrated against;
//  - `ExecuteQueued` admits up to `queue_depth()` outstanding commands and
//    serves them by the model's own selection policy — NCQ-style
//    shortest-positioning-time for the HDD, FIFO across `channels` parallel
//    flash channels for the SSD. The blk-mq block layer dispatches through
//    this path.
// The two models correspond to the paper's testbed: a 7200 RPM hard disk
// (WD AAKX class) and an early SATA SSD (Intel X25-M class). Absolute
// numbers are approximate; what the experiments rely on is the *ratio*
// between sequential and random I/O cost, which these models preserve.
//
// The base class additionally models *persistence*: with the volatile write
// cache enabled, a completed write is merely "written" — it becomes durable
// only when a subsequent Flush() retires it. A simulated crash therefore
// yields exactly the durable image: everything up to the last flush, plus an
// arbitrary (fault-model-chosen) subset of the still-volatile writes. With
// the cache disabled (the default, and the historical behaviour) every
// completed write is immediately durable and no tracking happens.
#ifndef SRC_DEVICE_DEVICE_H_
#define SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <deque>

#include "src/metrics/counters.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace splitio {

inline constexpr uint32_t kSectorSize = 512;
inline constexpr uint32_t kPageSize = 4096;

struct DeviceRequest {
  uint64_t sector = 0;
  uint32_t bytes = 0;
  bool is_write = false;
  // Trace identity of the originating block request (0 = untraced / direct
  // device access); lets dev_start/dev_done events correlate with the
  // block-level span. Deliberately last so existing three-field aggregate
  // initializers keep compiling.
  uint64_t request_id = 0;
};

// Outcome of a device request: modeled service time plus an errno-style
// result (0 on success, negative errno such as -EIO on failure).
struct DeviceResult {
  Nanos service = 0;
  int error = 0;
  // Media sequence number assigned when a write completes (0 for reads and
  // failed writes). Completion consumers use it to correlate a request with
  // the device's persistence log even when commands retire out of
  // submission order (queue depth > 1).
  uint64_t write_seq = 0;
};

// Pluggable fault model consulted before each request is serviced
// (src/fault/fault_injector.h implements it). Kept here so the device layer
// has no dependency on the fault subsystem.
class DeviceFaultHook {
 public:
  virtual ~DeviceFaultHook() = default;

  struct Outcome {
    Nanos extra_latency = 0;  // added before (or instead of) service
    int error = 0;            // nonzero: fail the request, skip the model
  };
  virtual Outcome OnDeviceRequest(const DeviceRequest& req) = 0;
};

class BlockDevice {
 public:
  // One completed-but-not-yet-flushed write (volatile cache entry).
  struct WriteRecord {
    uint64_t seq = 0;  // completion order, 1-based
    uint64_t sector = 0;
    uint32_t bytes = 0;
  };

  virtual ~BlockDevice() = default;

  // Services the request, advancing simulated time. Non-virtual: wraps the
  // model with fault injection and persistence bookkeeping. Serial
  // contract: the caller awaits completion before issuing the next request
  // (the legacy single-queue dispatch loop).
  Task<DeviceResult> Execute(const DeviceRequest& req);

  // --- Command queuing (blk-mq dispatch path) ---
  // Number of commands the device accepts concurrently (NCQ depth / NVMe
  // queue slots). Depth 1, the default, keeps the historical serial
  // behaviour even through the queued path.
  void set_queue_depth(uint32_t depth) {
    queue_depth_ = depth > 0 ? depth : 1;
  }
  uint32_t queue_depth() const { return queue_depth_; }

  // Queued submission: waits for a queue slot, then for the command's
  // completion. Outstanding commands are served by the model's selection
  // policy (HDD: shortest positioning time among queued commands; SSD:
  // FIFO onto the first idle flash channel). Safe to call from many
  // coroutines concurrently.
  Task<DeviceResult> ExecuteQueued(const DeviceRequest& req);

  // Commands admitted through ExecuteQueued but not yet completed.
  uint32_t queued_outstanding() const { return queued_outstanding_; }

  // Flushes the device write cache (barrier): drains every outstanding
  // queued command, then every previously completed write becomes durable.
  // Returns the service time.
  Task<Nanos> Flush();

  // Cost estimate for scheduling decisions; does not change device state.
  virtual Nanos EstimateCost(const DeviceRequest& req) const = 0;

  virtual bool is_rotational() const = 0;
  virtual uint64_t capacity_sectors() const = 0;

  // Sustained sequential bandwidth, bytes/second (used by cost models).
  virtual double sequential_bw() const = 0;

  uint64_t total_bytes_read() const { return bytes_read_; }
  uint64_t total_bytes_written() const { return bytes_written_; }
  Nanos busy_time() const { return busy_time_; }

  // --- Persistence model ---
  // Enables the volatile write cache: writes become durable only at Flush().
  // Off by default — every write is durable on completion, nothing tracked.
  void set_volatile_cache(bool on) { volatile_cache_ = on; }

  // Sequence number of the most recently completed write (0 = none yet).
  uint64_t last_write_seq() const { return write_seq_; }
  // All writes with seq <= durable_seq() are on stable media.
  uint64_t durable_seq() const {
    return volatile_cache_ ? durable_seq_ : write_seq_;
  }
  // Completed writes still sitting in the volatile cache, oldest first.
  const std::deque<WriteRecord>& volatile_writes() const {
    return volatile_writes_;
  }
  uint64_t flushes() const { return flushes_; }

  // Attaches a fault model (nullptr detaches). Not owned.
  void set_fault_hook(DeviceFaultHook* hook) { fault_hook_ = hook; }

 protected:
  // Model-specific service: advance simulated time, return the service time.
  virtual Task<Nanos> ExecuteModel(const DeviceRequest& req) = 0;
  virtual Task<Nanos> FlushModel() = 0;

  // One command admitted through ExecuteQueued, waiting for service.
  struct QueuedCmd {
    DeviceRequest req;
    DeviceResult result;
    Latch done;
  };

  // How many commands the model can service concurrently (SSD: flash
  // channels). The queued path runs this many service pumps.
  virtual int service_channels() const { return 1; }

  // Picks which queued command an idle pump services next (index into
  // `queue`, never empty). Base policy is FIFO; the HDD overrides it with
  // shortest-positioning-time selection among the outstanding commands
  // (NCQ). Starvation of far commands is possible, as on real NCQ drives.
  virtual size_t SelectQueuedCommand(
      const std::deque<QueuedCmd*>& queue) const {
    (void)queue;
    return 0;
  }

 private:
  // Shared service body: fault injection, the model, traffic accounting,
  // and persistence bookkeeping. Both Execute and the queued pumps go
  // through here (nested task awaits are symmetric transfers, so the
  // indirection adds no simulator events).
  Task<DeviceResult> ServiceCommand(const DeviceRequest& req);
  // One service pump: repeatedly selects and services queued commands.
  // `service_channels()` pumps run concurrently in the queued path.
  Task<void> ServicePump();

  void RecordTraffic(const DeviceRequest& req, Nanos service) {
    if (req.is_write) {
      bytes_written_ += req.bytes;
    } else {
      bytes_read_ += req.bytes;
    }
    busy_time_ += service;
    counters().device_busy_ns += static_cast<uint64_t>(service);
  }

  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  Nanos busy_time_ = 0;

  bool volatile_cache_ = false;
  uint64_t write_seq_ = 0;
  uint64_t durable_seq_ = 0;
  uint64_t flushes_ = 0;
  std::deque<WriteRecord> volatile_writes_;
  DeviceFaultHook* fault_hook_ = nullptr;

  // --- Command queue state (ExecuteQueued path only) ---
  uint32_t queue_depth_ = 1;
  uint32_t queued_outstanding_ = 0;  // admitted: queued or in service
  bool pumps_started_ = false;
  std::deque<QueuedCmd*> cmd_queue_;  // admitted, awaiting a pump
  Event cmd_arrived_;
  Event slot_freed_;
  Event queue_drained_;  // notified when queued_outstanding_ reaches 0
};

struct HddConfig {
  // Cost of a device cache flush (0 = write cache disabled / free flush).
  Nanos flush_latency = 0;
  uint64_t capacity_sectors = 500ULL * 1000 * 1000 * 1000 / kSectorSize;
  double sequential_bw = 110.0 * 1000 * 1000;  // bytes/sec
  Nanos min_seek = Usec(500);                  // track-to-track
  Nanos max_seek = Msec(14);                   // full stroke
  Nanos rotation_period = Msec(8) + Usec(333); // 7200 RPM
  // Requests within this many sectors of the last position count as
  // near-sequential and skip the seek (settle only).
  uint64_t near_threshold = 2048;
};

// Seek + rotation + transfer model with head-position state.
class HddModel : public BlockDevice {
 public:
  explicit HddModel(const HddConfig& config = HddConfig()) : config_(config) {}

  Nanos EstimateCost(const DeviceRequest& req) const override;
  bool is_rotational() const override { return true; }
  uint64_t capacity_sectors() const override {
    return config_.capacity_sectors;
  }
  double sequential_bw() const override { return config_.sequential_bw; }

  uint64_t head_position() const { return head_; }

 protected:
  Task<Nanos> ExecuteModel(const DeviceRequest& req) override;
  Task<Nanos> FlushModel() override;
  // NCQ: among the outstanding commands, serve the one with the shortest
  // positioning time from the current head position.
  size_t SelectQueuedCommand(
      const std::deque<QueuedCmd*>& queue) const override;

 private:
  Nanos ServiceTime(const DeviceRequest& req, uint64_t head) const;

  HddConfig config_;
  uint64_t head_ = 0;
};

struct SsdConfig {
  // Cost of a device cache flush (0 = free flush).
  Nanos flush_latency = 0;
  uint64_t capacity_sectors = 80ULL * 1000 * 1000 * 1000 / kSectorSize;
  double read_bw = 250.0 * 1000 * 1000;
  double write_bw = 170.0 * 1000 * 1000;
  Nanos read_latency = Usec(60);
  Nanos write_latency = Usec(90);
  // Random (non-contiguous) writes pay a modest FTL penalty.
  double random_write_penalty = 2.0;
  // Independent flash channels: commands on different channels are serviced
  // concurrently. Only the queued (blk-mq) dispatch path can exploit more
  // than one channel; the serial Execute contract never has two commands
  // outstanding. 1 preserves the historical single-stream behaviour.
  int channels = 1;
};

class SsdModel : public BlockDevice {
 public:
  explicit SsdModel(const SsdConfig& config = SsdConfig()) : config_(config) {}

  Nanos EstimateCost(const DeviceRequest& req) const override;
  bool is_rotational() const override { return false; }
  uint64_t capacity_sectors() const override {
    return config_.capacity_sectors;
  }
  double sequential_bw() const override { return config_.read_bw; }

 protected:
  Task<Nanos> ExecuteModel(const DeviceRequest& req) override;
  Task<Nanos> FlushModel() override;
  int service_channels() const override {
    return config_.channels > 0 ? config_.channels : 1;
  }

 private:
  Nanos ServiceTime(const DeviceRequest& req, uint64_t last_end) const;

  SsdConfig config_;
  uint64_t last_write_end_ = 0;
};

}  // namespace splitio

#endif  // SRC_DEVICE_DEVICE_H_
