// Deterministic priority scheduler with admission control and batching.
//
// The scheduler is the serving layer's determinism anchor: every decision it
// makes — admit or reject, which jobs share a batch, the order batches
// dispatch in, and each job's modeled queue latency — is a pure function of
// the job *arrival sequence* (kinds, priorities, estimated costs, virtual
// arrival times, flush positions) plus the measured modeled cycles the
// executor feeds back. Nothing depends on wall-clock time, host workers, or
// the real-time interleaving of pool threads; batch composition and dispatch
// order do not even depend on the pool size. Replaying an arrival order
// therefore reproduces every scheduling decision byte for byte
// (docs/SERVER.md, "Determinism scope").
//
// Mechanics, all driven by the arrival sequence:
//
//  * Virtual time. Job i arrives at virtual cycle A_i: an explicitly
//    declared arrival offset, or A_{i-1} + default_gap_cycles. A_i is
//    monotone.
//  * Admission. A leaky bucket in virtual time: the backlog drains at
//    drain_rate cycles per virtual cycle (a pool-independent "reference
//    server" — pool size must not change admission decisions) and each
//    admitted job deposits its estimated cost. A job whose deposit would
//    push the backlog past queue_cap_cycles is rejected with
//    kAdmissionRejected, as is any single job estimated above
//    max_job_cycles.
//  * Batching. Small jobs (estimate <= small_job_cycles) of the same (kind,
//    priority) accumulate into an open batch; the batch seals when it
//    reaches batch_max jobs, when batch_linger further admissions pass
//    without filling it, or at a flush. Large jobs seal immediately as
//    singletons. Sealing order defines batch ids.
//  * Dispatch. A sealed batch becomes runnable immediately (real execution
//    order is free — results are order-independent); its *virtual*
//    placement is computed by a list-scheduling simulation over `pool`
//    slots: at each step the earliest-free slot takes the best
//    (priority, seal order) batch available at that virtual time. A batch
//    occupies its slot for dispatch_cycles + the sum of its jobs' measured
//    cycles — one dispatch overhead per batch is precisely the shared-launch
//    saving batching exists for.
//  * Emission. advance() walks the simulation as far as measured results
//    and arrival knowledge allow and returns jobs in virtual dispatch
//    order; the server streams results in exactly that order. A placement
//    beyond the latest seen arrival time is only final once a flush
//    guarantees no earlier-priority batch can still arrive.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "support/status.hpp"

namespace morph {
class CliArgs;
}

namespace morph::serve {

struct SchedulerConfig {
  std::uint32_t pool = 1;          ///< virtual device slots
  double queue_cap_cycles = 4e9;   ///< leaky-bucket admission cap
  double drain_rate = 1.0;         ///< backlog cycles drained per virtual cycle
  double max_job_cycles = 0.0;     ///< single-job estimate cap; 0 = unlimited
  std::uint32_t batch_max = 8;     ///< jobs per shared launch
  std::uint64_t batch_linger = 16; ///< admissions an open batch survives
  double small_job_cycles = 2e8;   ///< estimate at or below => batchable
  double dispatch_cycles = 20000.0;  ///< per-batch dispatch overhead
  double default_gap_cycles = 0.0;   ///< arrival spacing when undeclared
};

/// The flag names scheduler_config_from_args reads ("pool", "batch-max",
/// ...) — for CliArgs::warn_unknown known-lists.
const std::vector<std::string>& scheduler_cli_flags();

/// Reads --pool, --batch-max, --batch-linger, --queue-cap,
/// --max-job-cycles, --small-job, --dispatch-cycles and --default-gap over
/// the caller's `defaults` (the daemon serves with pool 1, the load test
/// with pool 2). A non-positive --pool or --batch-max exits with status 2.
SchedulerConfig scheduler_config_from_args(const CliArgs& args,
                                           SchedulerConfig defaults);

/// A sealed batch, ready for real execution. Jobs are listed in admission
/// order; the whole batch runs as one shared launch on one pool slot.
struct SealedBatch {
  std::uint64_t id = 0;        ///< seal order, dense from 0
  std::uint32_t priority = 0;  ///< dispatch priority (0 = most urgent)
  std::uint64_t seal_seq = 0;  ///< admission seq of the sealing event
  double seal_at = 0.0;        ///< virtual time the batch became runnable
  std::vector<std::uint64_t> jobs;  ///< admission seqs
};

/// Virtual placement of one job, emitted by advance() in dispatch order.
struct JobPlacement {
  std::uint64_t seq = 0;       ///< admission seq
  std::uint64_t batch = 0;     ///< SealedBatch::id
  std::uint32_t batch_size = 0;
  std::uint32_t slot = 0;      ///< pool slot in the virtual schedule
  double arrival_cycles = 0.0;
  double start_cycles = 0.0;   ///< virtual dispatch time of the batch
  double end_cycles = 0.0;     ///< virtual completion time of the batch
  double queue_cycles = 0.0;   ///< start - arrival
};

/// Single-threaded scheduling logic; the server serializes access. See the
/// file comment for the decision rules.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg);

  struct Submitted {
    bool accepted = false;
    Status reject;            ///< set when !accepted
    std::uint64_t seq = 0;    ///< admission seq (valid when accepted)
    double arrival_cycles = 0.0;
  };

  /// Processes one arrival. `at_cycles < 0` means "use the default gap".
  /// Sealed batches produced by this arrival (the job's own batch filling
  /// up, or older batches timing out their linger) are appended to the
  /// runnable queue — collect them with take_runnable().
  ///
  /// `deadline_cycles > 0` is a virtual-time latency deadline: the job is
  /// turned away with kDeadlineExceeded when the admission backlog already
  /// implies a start later than arrival + deadline on the pool-independent
  /// reference server (backlog / drain_rate virtual cycles of queued work
  /// ahead of it). Like admission itself, the decision never looks at the
  /// pool, so it is identical at every pool size.
  Submitted submit(JobKind kind, std::uint32_t priority, double est_cycles,
                   double at_cycles = -1.0, double deadline_cycles = 0.0);

  /// Cancels an admitted job that is still in an *open* batch (not yet
  /// sealed). Returns true and forgets the job when it was caught in time;
  /// false when the job already sealed (execution may be underway — the
  /// result will be emitted normally). Determinism: sealing is a pure
  /// function of the arrival sequence, so whether a cancel at arrival
  /// position p catches job s is too.
  bool cancel(std::uint64_t seq);

  /// Seals every open batch and finalizes the epoch: all placements for
  /// batches sealed so far may be emitted even past the latest arrival
  /// time (no earlier arrival can compete with them any more).
  void flush();

  /// Drains batches that became runnable since the last call, in seal
  /// order. Real execution order is the caller's choice; the deterministic
  /// *virtual* order is what advance() computes.
  std::vector<SealedBatch> take_runnable();

  /// Feeds back the measured modeled cycles of a batch's jobs (same order
  /// as SealedBatch::jobs).
  void record_measured(std::uint64_t batch_id,
                       const std::vector<double>& job_cycles);

  /// Advances the virtual placement simulation as far as it can and
  /// returns newly placed jobs in virtual dispatch order.
  std::vector<JobPlacement> advance();

  /// Serializes the scheduler's residual state (virtual clock, admission
  /// counters, leaky-bucket deposits, slot ready times) into a byte-stable
  /// blob for a journal checkpoint. Only valid at *quiescence* — no admitted
  /// job awaiting seal, execution, or placement (MORPH_CHECKed): at that
  /// point this blob plus the post-checkpoint arrival suffix reproduces
  /// every later decision, which is what lets checkpoint compaction drop
  /// the completed journal prefix without breaking replay byte-identity.
  std::string checkpoint_blob() const;

  /// Restores a checkpoint_blob() snapshot into a freshly constructed
  /// scheduler. Returns false (leaving the scheduler fresh) on a malformed
  /// blob or a pool-size mismatch — an operator who resizes the pool across
  /// a restart opts out of cross-restart continuity.
  bool restore_blob(const std::string& blob);

  // --- introspection ---
  const SchedulerConfig& config() const { return cfg_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t batches_sealed() const { return next_batch_id_; }
  std::uint64_t placed() const { return placed_jobs_; }
  double backlog_cycles() const { return bucket_; }
  double latest_arrival() const { return last_at_; }
  std::uint64_t deadline_rejected() const { return deadline_rejected_; }
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  struct JobEntry {
    JobKind kind;
    std::uint32_t priority;
    double est_cycles;
    double arrival_cycles;
  };
  struct OpenBatch {
    std::uint64_t first_seq = 0;  ///< admission seq that opened it
    std::vector<std::uint64_t> jobs;
  };
  struct PendingBatch {
    SealedBatch sealed;
    std::vector<double> measured;  ///< empty until record_measured
    bool has_measured = false;
  };

  void seal(JobKind kind, std::uint32_t priority, OpenBatch&& open);
  void seal_lingering();

  SchedulerConfig cfg_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deadline_rejected_ = 0;
  std::uint64_t cancelled_ = 0;
  double last_at_ = 0.0;
  double bucket_ = 0.0;
  bool saw_arrival_ = false;
  /// Live leaky-bucket deposits in admission order: (seq, remaining
  /// cycles). bucket_ caches their sum. Drain consumes front-first, so a
  /// cancel can subtract exactly the cancelled job's *undrained* remainder —
  /// refunding the full estimate would eat into other live jobs' deposits
  /// and skew the backlog the deadline_model_ms admission check reads.
  std::deque<std::pair<std::uint64_t, double>> deposits_;

  std::map<std::uint64_t, JobEntry> jobs_;  ///< admitted, not yet placed
  /// Open batches keyed by (priority, kind) — the batching compatibility
  /// class. std::map keeps linger sweeps deterministic.
  std::map<std::pair<std::uint32_t, JobKind>, OpenBatch> open_;

  std::uint64_t next_batch_id_ = 0;
  std::vector<SealedBatch> runnable_;         ///< not yet taken by the server
  std::map<std::uint64_t, PendingBatch> pending_;  ///< sealed, not yet placed
  /// Batches with id < this were sealed before the last flush: their
  /// placements are final even beyond the latest arrival time.
  std::uint64_t flush_watermark_ = 0;

  std::vector<double> slot_ready_;  ///< virtual ready time per pool slot
  std::uint64_t placed_jobs_ = 0;
};

}  // namespace morph::serve
