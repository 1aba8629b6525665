// Worklists (paper Sec. 7.5).
//
// A centralized GlobalWorklist requires an atomic index per push/pop, which
// the paper identifies as a bottleneck and rejects; its one driver is the
// data-driven DMR arm (dmr::refine_gpu_datadriven). The paper's local
// worklists need no class of their own: in topology-driven processing
// (dmr::refine_gpu) each thread's chunk of the triangle array is its local
// worklist, and after the memory-layout pass (graph/layout.hpp) that chunk
// is its pseudo-partition.
//
// GlobalWorklist is safe for concurrent push/pop from any number of host
// threads (block-parallel execution, DeviceConfig::host_workers > 1). Index
// claims are CAS-bounded: a push can never reserve a slot past the capacity
// and an empty pop can never advance the head, so the invariant
// head <= commit <= tail <= capacity holds at all times.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace morph::gpu {

/// Centralized worklist; every push/pop is an atomic index claim charged to
/// the calling thread. Fixed capacity chosen at construction.
///
/// Concurrency: multi-producer multi-consumer. A push claims a slot with a
/// capacity-bounded CAS on `tail_`, writes the item, then publishes it by
/// advancing `commit_` in slot order; a pop claims an index with a
/// commit-bounded CAS on `head_`, so it can neither overrun the published
/// items nor observe a slot whose write is still in flight.
template <typename T>
class GlobalWorklist {
 public:
  /// `dev` (optional) arms fault injection: an armed campaign can force
  /// kWorklistFull at any push opportunity (FaultClass::kGlobalWlOverflow).
  explicit GlobalWorklist(std::size_t capacity, Device* dev = nullptr)
      : items_(capacity), dev_(dev), tail_(0), commit_(0), head_(0) {}

  /// Slot shadow is keyed by the list address; a successor list constructed
  /// at the same address must not inherit this one's slot states.
  ~GlobalWorklist() {
    if (analysis::Sanitizer* s = san()) s->on_wl_reset(this);
  }
  GlobalWorklist(const GlobalWorklist&) = delete;
  GlobalWorklist& operator=(const GlobalWorklist&) = delete;

  std::size_t capacity() const { return items_.size(); }

  /// Discards all content. Must not race with push/pop (call between
  /// kernel launches only).
  void reset() {
    tail_.store(0, std::memory_order_relaxed);
    commit_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    if (analysis::Sanitizer* s = san()) s->on_wl_reset(this);
  }

  /// Returns false when full (work is dropped to the next sweep). A failed
  /// push leaves the indices untouched.
  bool push(ThreadCtx& ctx, const T& v) { return try_push(ctx, v).ok(); }

  /// Typed-status push: kWorklistFull when the capacity is reached or when
  /// an armed fault campaign injects an overflow at this opportunity. A
  /// failed push leaves the indices untouched.
  Status try_push(ThreadCtx& ctx, const T& v) {
    // A contended worklist op: the shared-index claim costs an atomic (the
    // paper's Sec. 7.5 bottleneck), tallied as such for the contention bill.
    ctx.worklist_op();
    if (dev_ &&
        dev_->fault_should_fire(resilience::FaultClass::kGlobalWlOverflow)) {
      dev_->note_fault(resilience::FaultClass::kGlobalWlOverflow,
                       "global worklist overflow (injected), " +
                           std::to_string(size()) + " items enqueued");
      return Status(StatusCode::kWorklistFull,
                    "global worklist overflow (injected)");
    }
    std::uint64_t slot = tail_.load(std::memory_order_relaxed);
    do {
      if (slot >= items_.size()) {
        return Status(StatusCode::kWorklistFull,
                      "global worklist at capacity (" +
                          std::to_string(items_.size()) + ")");
      }
    } while (!tail_.compare_exchange_weak(slot, slot + 1,
                                          std::memory_order_relaxed));
    if (analysis::Sanitizer* s = san()) {
      s->on_wl_claim(this, "global", agent_of(ctx), slot);
    }
    items_[slot] = v;
    // The publish hook precedes the commit CAS: once commit_ covers the
    // slot a concurrent pop may legally claim it, so the shadow transition
    // must already have happened.
    if (analysis::Sanitizer* s = san()) s->on_wl_publish(this, "global", slot);
    // Publish in slot order so a concurrent pop never claims an index whose
    // item write has not completed.
    std::uint64_t expected = slot;
    while (!commit_.compare_exchange_weak(expected, slot + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      expected = slot;
    }
    return Status::Ok();
  }

  /// Claims and returns the oldest published item, or nullopt when empty.
  /// An empty pop never advances the head, so items pushed later are
  /// still delivered.
  std::optional<T> pop(ThreadCtx& ctx) {
    ctx.worklist_op();
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (h >= commit_.load(std::memory_order_acquire)) return std::nullopt;
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
        if (analysis::Sanitizer* s = san()) {
          s->on_wl_pop(this, "global", agent_of(ctx), h);
        }
        return items_[h];
      }
    }
  }

  /// Number of published elements currently enqueued. Safe to call
  /// concurrently; the head-behind-commit invariant is checked.
  std::size_t size() const {
    const std::uint64_t c = commit_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    MORPH_CHECK_MSG(h <= c, "GlobalWorklist: head overran committed tail");
    return static_cast<std::size_t>(c - h);
  }

 private:
  analysis::Sanitizer* san() const {
    return dev_ ? dev_->sanitizer() : nullptr;
  }
  /// Shadow-state agent: the executing block for device-side ops, the host
  /// sentinel for protocol-driving code running outside a launch.
  static std::uint32_t agent_of(const ThreadCtx& ctx) {
    return ctx.device() ? ctx.block() : analysis::Sanitizer::kHostAgent;
  }

  std::vector<T> items_;
  Device* dev_ = nullptr;
  std::atomic<std::uint64_t> tail_;    ///< next slot to reserve
  std::atomic<std::uint64_t> commit_;  ///< slots published, <= tail_
  std::atomic<std::uint64_t> head_;    ///< next index to pop, <= commit_
};

}  // namespace morph::gpu
