#include "src/syscall/kernel.h"

#include <utility>

#include "src/obs/trace_sink.h"

namespace splitio {

namespace {

// syscall_enter / syscall_exit events: the trace's outermost frame. `bytes`
// is the requested length on enter and the transferred length on exit;
// `result` is the errno-style outcome (exit only). Only called under
// obs::TracingActive().
void EmitSyscall(obs::EventType type, Process& proc, obs::SyscallOp op,
                 int64_t ino, uint64_t bytes, int result) {
  obs::TraceEvent e;
  e.type = type;
  e.pid = proc.pid();
  e.ino = ino;
  e.bytes = static_cast<uint32_t>(bytes);
  e.aux = static_cast<uint64_t>(op);
  e.result = result;
  std::span<const int32_t> pids = proc.Causes().pids();
  e.causes.assign(pids.begin(), pids.end());
  obs::EmitEvent(std::move(e));
}

}  // namespace

Task<void> OsKernel::ChargeCpu(uint64_t len) {
  Nanos cost = config_.syscall_cpu +
               config_.per_page_cpu *
                   static_cast<Nanos>((len + kPageSize - 1) / kPageSize);
  if (sched_ != nullptr) {
    cost += config_.split_hook_cpu;
  }
  co_await cpu_->Consume(cost);
}

Task<int64_t> OsKernel::Creat(Process& proc, const std::string& path) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kCreat,
                -1, 0, 0);
  }
  if (sched_ != nullptr) {
    co_await sched_->OnMetaEntry(proc, MetaOp::kCreat, path);
  }
  co_await ChargeCpu(0);
  int64_t ino = co_await fs_->Create(proc, path);
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kCreat,
                ino, 0, 0);
  }
  co_return ino;
}

Task<int64_t> OsKernel::Mkdir(Process& proc, const std::string& path) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kMkdir,
                -1, 0, 0);
  }
  if (sched_ != nullptr) {
    co_await sched_->OnMetaEntry(proc, MetaOp::kMkdir, path);
  }
  co_await ChargeCpu(0);
  int64_t ino = co_await fs_->Mkdir(proc, path);
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kMkdir,
                ino, 0, 0);
  }
  co_return ino;
}

Task<void> OsKernel::Unlink(Process& proc, int64_t ino) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kUnlink,
                ino, 0, 0);
  }
  if (sched_ != nullptr) {
    co_await sched_->OnMetaEntry(proc, MetaOp::kUnlink, "");
  }
  co_await ChargeCpu(0);
  co_await fs_->Unlink(proc, ino);
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kUnlink,
                ino, 0, 0);
  }
}

Task<int> OsKernel::Rename(Process& proc, int64_t ino,
                           const std::string& new_path) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kRename,
                ino, 0, 0);
  }
  if (sched_ != nullptr) {
    co_await sched_->OnMetaEntry(proc, MetaOp::kRename, new_path);
  }
  co_await ChargeCpu(0);
  int result = co_await fs_->Rename(proc, ino, new_path);
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kRename,
                ino, 0, result);
  }
  co_return result;
}

Task<int64_t> OsKernel::Read(Process& proc, int64_t ino, uint64_t offset,
                             uint64_t len) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kRead,
                ino, len, 0);
  }
  if (admission_ != nullptr) {
    int admit = co_await admission_->Enter(proc);
    if (admit < 0) {
      if (obs::TracingActive()) {
        EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kRead,
                    ino, 0, admit);
      }
      co_return admit;
    }
  }
  if (sched_ != nullptr) {
    co_await sched_->OnReadEntry(proc, ino, offset, len);
  }
  co_await ChargeCpu(len);
  int64_t n = co_await fs_->Read(proc, ino, offset, len);
  if (admission_ != nullptr) {
    admission_->Exit(proc);
  }
  if (sched_ != nullptr) {
    sched_->OnReadExit(proc, ino, n < 0 ? 0 : static_cast<uint64_t>(n));
  }
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kRead,
                ino, n < 0 ? 0 : static_cast<uint64_t>(n),
                n < 0 ? static_cast<int>(n) : 0);
  }
  co_return n;
}

Task<int64_t> OsKernel::Write(Process& proc, int64_t ino, uint64_t offset,
                              uint64_t len) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kWrite,
                ino, len, 0);
  }
  if (admission_ != nullptr) {
    int admit = co_await admission_->Enter(proc);
    if (admit < 0) {
      if (obs::TracingActive()) {
        EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kWrite,
                    ino, 0, admit);
      }
      co_return admit;
    }
  }
  if (sched_ != nullptr) {
    co_await sched_->OnWriteEntry(proc, ino, offset, len);
  }
  co_await ChargeCpu(len);
  int64_t n = co_await fs_->Write(proc, ino, offset, len);
  if (admission_ != nullptr) {
    admission_->Exit(proc);
  }
  if (sched_ != nullptr) {
    sched_->OnWriteExit(proc, ino, n < 0 ? 0 : static_cast<uint64_t>(n));
  }
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kWrite,
                ino, n < 0 ? 0 : static_cast<uint64_t>(n),
                n < 0 ? static_cast<int>(n) : 0);
  }
  co_return n;
}

Task<int> OsKernel::Fsync(Process& proc, int64_t ino) {
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallEnter, proc, obs::SyscallOp::kFsync,
                ino, 0, 0);
  }
  if (admission_ != nullptr) {
    int admit = co_await admission_->Enter(proc);
    if (admit < 0) {
      // Rejected before reaching the file system: the fsync observer is
      // not notified — nothing was made (or promised) durable.
      if (obs::TracingActive()) {
        EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kFsync,
                    ino, 0, admit);
      }
      co_return admit;
    }
  }
  if (sched_ != nullptr) {
    co_await sched_->OnFsyncEntry(proc, ino);
  }
  co_await ChargeCpu(0);
  int result = co_await fs_->Fsync(proc, ino);
  if (admission_ != nullptr) {
    admission_->Exit(proc);
  }
  if (sched_ != nullptr) {
    sched_->OnFsyncExit(proc, ino);
  }
  if (fsync_observer_) {
    fsync_observer_(proc, ino, result);
  }
  if (obs::TracingActive()) {
    EmitSyscall(obs::EventType::kSyscallExit, proc, obs::SyscallOp::kFsync,
                ino, 0, result);
  }
  co_return result;
}

}  // namespace splitio
