#include "dmr/refine.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/adaptive.hpp"
#include "gpu/worklist.hpp"
#include "dmr/cavity.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::dmr {

namespace {

/// Safety net on every driver's round loop; the benches' inputs converge
/// long before it.
constexpr std::uint64_t kMaxRounds = 1u << 20;

/// Threads per block of the first adaptive launch; the paper's DMR starts
/// at 64 and doubles (Sec. 7.4).
constexpr std::uint32_t kInitialTpb = 64;

/// Blocks per SM, proportional to the input size (Sec. 7.4). The divisor is
/// chosen so a thread's local worklist (its contiguous chunk, Sec. 7.5)
/// covers a few dozen triangles at full occupancy — the proportion the
/// paper's 3x..50x SM range implies for its inputs.
double blocks_per_sm(const Mesh& m, const gpu::DeviceConfig& cfg) {
  return std::clamp(
      static_cast<double>(m.num_slots()) / (16384.0 * cfg.num_sms), 3.0,
      50.0);
}

/// Charges one uncoalesced global access per neighborhood element whose slot
/// id is far from the candidate's — the effect the memory-layout
/// optimization (Sec. 6.1) buys back: after the BFS reorder, a cavity's
/// triangles have nearby ids and hit the same cache lines.
void charge_locality(gpu::ThreadCtx& ctx, Tri candidate,
                     std::span<const Tri> hood) {
  constexpr std::int64_t kWindow = 256;
  for (Tri t : hood) {
    const std::int64_t d = static_cast<std::int64_t>(t) -
                           static_cast<std::int64_t>(candidate);
    if (d > kWindow || d < -kWindow) ctx.global_access();
  }
}

/// The invariant gate for serialized-arbitration recovery: validates the
/// mesh, rolling back to `checkpoint` (when present) and failing with
/// kInvariantViolation if refinement corrupted it.
void gate_mesh_invariants(Mesh& m, std::optional<Mesh>& checkpoint,
                          const std::string& when) {
  std::string why;
  if (m.validate(&why)) return;
  if (checkpoint) m = std::move(*checkpoint);
  throw FaultError(Status(StatusCode::kInvariantViolation,
                          when + ": mesh invalid: " + why +
                              (checkpoint ? " (rolled back to checkpoint)"
                                          : "")));
}

/// The one cavity commit ("apply a cavity", Sec. 2). Every driver applies
/// its cavities here; the drivers differ only in which cavities they pick.
class CavityCommit {
 public:
  CavityCommit(Mesh& m, const RefineOptions& opts,
               analysis::Sanitizer* san = nullptr)
      : m_(m),
        cb_(cos_of_deg(opts.min_angle_deg)),
        recycle_(opts.recycle),
        recycler_(opts.recycle ? 1u << 22 : 0u) {
    recycler_.set_sanitizer(san);
  }

  double cos_bound() const { return cb_; }

  /// Retriangulates `c` into the mesh and hands its deleted slots back to
  /// the recycler; the new triangles land in `added`. `ctx` (a GPU or a
  /// multicore thread), when given, is charged one work unit per deleted
  /// and created triangle. A GPU thread that won neighborhood `hood` in
  /// `claimed` first shows the sanitizer it owns what it writes — the
  /// guarded mutation the 3-phase protocol exists to protect. Returns the
  /// change in the mesh's bad-triangle count.
  template <class Ctx = gpu::ThreadCtx>
  std::int64_t apply(const Cavity& c, std::vector<Tri>& added,
                     Ctx* ctx = nullptr,
                     const core::MarkTable* claimed = nullptr,
                     std::span<const Tri> hood = {}) {
    if constexpr (std::is_same_v<Ctx, gpu::ThreadCtx>) {
      analysis::Sanitizer* s = claimed ? ctx->san() : nullptr;
      if (s) s->on_guarded_write(claimed, ctx->block(), ctx->tid(), hood);
    }
    std::int64_t bad_in_cavity = 0;
    for (Tri d : c.tris) bad_in_cavity += m_.is_bad(d) ? 1 : 0;
    added.clear();
    const RetriangulateResult res =
        retriangulate(m_, c, cb_, added, recycle_ ? &recycler_ : nullptr);
    if (ctx) ctx->work(c.tris.size() + added.size());
    if (recycle_) {
      for (Tri d : c.tris) recycler_.give(d);
    }
    return static_cast<std::int64_t>(res.new_bad) - bad_in_cavity;
  }

 private:
  Mesh& m_;
  double cb_;
  bool recycle_;
  core::SlotRecycler recycler_;
};

/// What both GPU drivers share around their conflict rounds: the cavity
/// commit, the mark table, the launch-geometry rule and the live-lock
/// watchdog with its escalation ladder. The drivers differ only in how a
/// round picks its cavities (a thread's chunk of the triangle array, or a
/// pop from a worklist).
class GpuRefinement {
 public:
  GpuRefinement(const char* driver, Mesh& m, gpu::Device& dev,
                const RefineOptions& opts)
      : commit(m, opts, dev.sanitizer()),
        marks(m.num_slots()),
        sm_factor(blocks_per_sm(m, dev.config())),
        driver_(driver),
        m_(m),
        dev_(dev),
        opts_(opts),
        launcher_(kInitialTpb, 3, sm_factor),
        watchdog_(opts.watchdog_escalate_after, opts.watchdog_give_up_after) {}

  bool running() const { return bad_count > 0 && stats.rounds < kMaxRounds; }

  /// Opens a round: arms MarkTable::force_ties when the campaign injects a
  /// livelock at this round's opportunity, picks the launch geometry — the
  /// adaptive scheme (Sec. 7.4) or the fixed configuration it is ablated
  /// against — clears the mark table and gives every logical thread a
  /// cavity slot and a cleared `owns` flag.
  gpu::LaunchConfig begin_round(const char* label) {
    ++stats.rounds;
    injected_livelock_ =
        dev_.fault_should_fire(resilience::FaultClass::kLivelock);
    if (injected_livelock_) {
      marks.set_force_ties(true);
      dev_.note_fault(resilience::FaultClass::kLivelock,
                      "forced priority ties for round " +
                          std::to_string(stats.rounds));
    }
    gpu::LaunchConfig lc =
        opts_.adaptive
            ? launcher_.next(dev_.config())
            : core::fixed_config(dev_.config(), sm_factor, opts_.fixed_tpb);
    lc.label = label;
    const std::uint64_t nslots = m_.num_slots();
    if (marks.size() < nslots) marks.resize(nslots + nslots / 2);
    marks.reset();
    const std::uint64_t T = lc.total_threads();
    if (cav.size() < T) {
      cav.resize(T);
      hood.resize(T);
    }
    owns.assign(T, 0);
    return lc;
  }

  /// Closes a round. Live-lock watchdog (Sec. 7.3 + docs/RESILIENCE.md):
  /// the 3-phase protocol only terminates with high probability, so
  /// no-progress rounds are tracked and escalated. The default thresholds
  /// escalate on the first fully aborted round — the historical fallback —
  /// and never give up; campaigns tighten them to exercise the whole ladder.
  void end_round(std::uint64_t processed, std::uint64_t aborted) {
    if (injected_livelock_) marks.set_force_ties(false);
    stats.processed += processed;
    stats.aborted += aborted;
    const auto action = watchdog_.observe(processed > 0);
    if (action == resilience::LivelockWatchdog::Action::kGiveUp &&
        bad_count > 0) {
      throw FaultError(watchdog_.give_up_status(driver_));
    }
    if (action == resilience::LivelockWatchdog::Action::kEscalate &&
        bad_count > 0) {
      escalate();
      if (injected_livelock_) {
        dev_.note_recovery(
            "livelock watchdog escalated to serialized arbitration");
      }
    } else if (injected_livelock_) {
      dev_.note_recovery("retrying round after forced priority ties");
    }
  }

  /// Checks convergence, gates the result and fills the final stats.
  RefineStats finish(const Timer& timer) {
    MORPH_CHECK_MSG(bad_count == 0,
                    driver_ << ": refinement hit the round limit");
    if (opts_.validate_invariants) {
      std::optional<Mesh> no_checkpoint;
      gate_mesh_invariants(m_, no_checkpoint,
                           std::string(driver_) + " result");
    }
    stats.final_triangles = m_.num_live();
    stats.wall_seconds = timer.seconds();
    stats.modeled_cycles = dev_.stats().modeled_cycles;
    return stats;
  }

  CavityCommit commit;
  core::MarkTable marks;
  // Per-thread cavity state, kept across rounds so each logical thread
  // rebuilds its cavity and neighborhood in place; `added` is only touched
  // by the sequential commit phases.
  std::vector<Cavity> cav;
  std::vector<std::vector<Tri>> hood;
  std::vector<std::uint8_t> owns;
  std::vector<Tri> added;
  const double sm_factor;
  std::int64_t bad_count = 0;
  RefineStats stats;

 private:
  /// Serialized priority arbitration: refine one bad triangle with a
  /// single-thread kernel — trivially tie-free. The kernel is charged its
  /// scan, its cavity build and its commit, like any other GPU commit.
  /// When the invariant gate is on, the mesh is checkpointed first and
  /// rolled back if the escalation corrupts it.
  void escalate() {
    ++stats.fallbacks;
    std::optional<Mesh> checkpoint;
    if (opts_.validate_invariants) checkpoint = m_;
    dev_.launch({1, 1, "dmr.escalate"}, [&](gpu::ThreadCtx& ctx) {
      for (Tri t = 0; t < m_.num_slots(); ++t) {
        ctx.work(1);
        if (m_.is_deleted(t) || !m_.is_bad(t)) continue;
        Cavity c;
        build_refinement_cavity(m_, t, opts_.use_float, c);
        ctx.work(c.steps);
        bad_count += commit.apply(c, added, &ctx);
        ++stats.processed;
        break;
      }
    });
    if (opts_.validate_invariants) {
      gate_mesh_invariants(m_, checkpoint,
                           std::string(driver_) + " escalation");
    }
  }

  const char* driver_;
  Mesh& m_;
  gpu::Device& dev_;
  const RefineOptions& opts_;
  core::AdaptiveLauncher launcher_;
  resilience::LivelockWatchdog watchdog_;
  bool injected_livelock_ = false;
};

}  // namespace

RefineStats refine_serial(Mesh& m, const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  st.initial_bad = m.compute_all_bad(opts.min_angle_deg);

  CavityCommit commit(m, opts);
  std::vector<Tri> work;
  work.reserve(st.initial_bad);
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) work.push_back(t);
  }

  Cavity c;
  std::vector<Tri> added;
  while (!work.empty()) {
    const Tri t = work.back();
    work.pop_back();
    if (m.is_deleted(t) || !m.is_bad(t)) continue;
    build_refinement_cavity(m, t, opts.use_float, c);
    commit.apply(c, added);
    for (Tri a : added) {
      if (m.is_bad(a)) work.push_back(a);
    }
    // A segment split's cavity need not contain the bad triangle that
    // triggered it; requeue it until it is actually fixed.
    if (!m.is_deleted(t) && m.is_bad(t)) work.push_back(t);
    ++st.processed;
  }
  st.rounds = st.processed;
  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  return st;
}

RefineStats refine_multicore(Mesh& m, cpu::ParallelRunner& runner,
                             const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  st.initial_bad = m.compute_all_bad(opts.min_angle_deg);

  CavityCommit commit(m, opts);
  std::vector<Tri> candidates;
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) candidates.push_back(t);
  }

  std::vector<Tri> next;
  // The runner executes items one after another, so one cavity, one
  // neighborhood and one commit buffer serve every item.
  Cavity c;
  std::vector<Tri> hood;
  std::vector<Tri> added;
  // Speculation state, element -> claiming item index, valid for the round
  // it is stamped with; grown with the mesh.
  struct Claim {
    std::uint64_t round = 0;
    std::uint64_t item = 0;
  };
  std::vector<Claim> claims;
  while (!candidates.empty() && st.rounds < kMaxRounds) {
    ++st.rounds;
    next.clear();
    runner.round(candidates.size(), [&](cpu::WorkerCtx& ctx,
                                        std::uint64_t i) {
      const Tri t = candidates[i];
      ctx.work(1);
      if (m.is_deleted(t) || !m.is_bad(t)) return;
      build_refinement_cavity(m, t, opts.use_float, c);
      ctx.work(c.steps);
      c.neighborhood(hood);
      // Optimistic per-element locking, Galois style: abort on conflict.
      ctx.sync_op(hood.size());
      if (claims.size() < m.num_slots()) {
        claims.resize(m.num_slots() + m.num_slots() / 2);
      }
      for (Tri e : hood) {
        if (claims[e].round == st.rounds && claims[e].item != i) {
          ++st.aborted;
          next.push_back(t);  // retry next round
          return;
        }
      }
      for (Tri e : hood) claims[e] = {st.rounds, i};
      commit.apply(c, added, &ctx);
      for (Tri a : added) {
        if (m.is_bad(a)) next.push_back(a);
      }
      // Requeue a triangle left bad by a segment split (see refine_serial).
      if (!m.is_deleted(t) && m.is_bad(t)) next.push_back(t);
      ++st.processed;
    });
    candidates.swap(next);
  }
  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = runner.stats().modeled_cycles;
  return st;
}

RefineStats refine_gpu(Mesh& m, gpu::Device& dev, const RefineOptions& opts) {
  Timer timer;
  if (opts.layout_opt) m.compact_and_reorder();
  GpuRefinement run("dmr::refine_gpu", m, dev, opts);
  const double cb = run.commit.cos_bound();

  constexpr std::uint64_t kSlotBytes = 3 * sizeof(Vtx) + 3 * sizeof(Tri);
  const auto copy_mesh = [&] {
    dev.note_copy(m.num_slots() * kSlotBytes +
                  m.num_points() * 2 * sizeof(double));
  };
  copy_mesh();  // transfer of the initial mesh (main() in Fig. 3)

  // Memory strategy (Sec. 7.1). `reserved_slots` is the model-side view of
  // how much device storage has been cudaMalloc'ed for triangles; prealloc
  // reserves a generous static bound up front.
  std::uint64_t reserved_slots = m.num_slots() * (opts.prealloc ? 12 : 1);
  dev.note_host_alloc(reserved_slots * kSlotBytes);
  auto ensure_reserved = [&](std::uint64_t needed) {
    if (needed <= reserved_slots) return;
    const std::uint64_t bytes_now = m.num_slots() * kSlotBytes;
    reserved_slots = needed + needed / 2;
    dev.note_realloc(bytes_now);
    dev.note_host_alloc(reserved_slots * kSlotBytes);
  };

  // initialize_kernel: compute bad flags (real work, charged per slot).
  {
    gpu::LaunchConfig lc = core::fixed_config(dev.config(), run.sm_factor, 256);
    lc.label = "dmr.init";
    const std::uint64_t n = m.num_slots();
    const std::uint64_t T = lc.total_threads();
    std::atomic<std::int64_t> bad_total{0};
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      std::int64_t local = 0;
      for (std::uint64_t i = ctx.tid(); i < n; i += T) {
        ctx.work(1);
        if (m.is_deleted(static_cast<Tri>(i))) continue;
        const bool bad = opts.use_float
                             ? m.check_bad_f(static_cast<Tri>(i),
                                             static_cast<float>(cb))
                             : m.check_bad(static_cast<Tri>(i), cb);
        m.set_bad(static_cast<Tri>(i), bad);
        local += bad ? 1 : 0;
      }
      if (local) bad_total.fetch_add(local, std::memory_order_relaxed);
    });
    run.bad_count = bad_total.load();
  }
  run.stats.initial_bad = static_cast<std::uint64_t>(run.bad_count);

  std::vector<Cavity>& cav = run.cav;
  std::vector<std::vector<Tri>>& hood = run.hood;
  std::vector<std::uint8_t>& owns = run.owns;
  std::vector<std::uint8_t> active;
  while (run.running()) {
    const gpu::LaunchConfig lc = run.begin_round("dmr.refine");
    const std::uint64_t nslots = m.num_slots();
    const std::uint64_t T = lc.total_threads();

    // Host pre-calculation of the next kernel's memory needs (Host-Only).
    ensure_reserved(m.num_slots() +
                    static_cast<std::uint64_t>(
                        std::min<std::int64_t>(run.bad_count,
                                               static_cast<std::int64_t>(T))) *
                        8);

    const std::uint64_t chunk = (nslots + T - 1) / T;
    active.assign(T, 0);
    // Touched only in sequential commit phases (see below): plain counters.
    std::uint64_t round_processed = 0, round_aborted = 0;

    // --- phase 1: find a bad triangle, build its cavity, race-mark ---
    //
    // Topology-driven with local worklists (Sec. 7.5): thread t owns the
    // contiguous chunk [t*chunk, (t+1)*chunk) of the triangle array — a
    // pseudo-partition of the mesh after the layout optimization — and
    // refines the first bad triangle in it. With divergence sorting
    // (Sec. 7.6) the block has moved its bad triangles to one side, so the
    // pickup is O(1) + the thread's share of the block-level sort; without
    // it the thread scans its chunk, and scan lengths diverge across the
    // warp.
    auto phase_race = [&](gpu::ThreadCtx& ctx) {
      const std::uint32_t t = ctx.tid();
      Tri target = Mesh::kNone;
      const std::uint64_t lo = static_cast<std::uint64_t>(t) * chunk;
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, nslots);
      std::uint64_t scanned = 0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        ++scanned;
        if (!m.is_deleted(static_cast<Tri>(i)) &&
            m.is_bad(static_cast<Tri>(i))) {
          target = static_cast<Tri>(i);
          break;
        }
      }
      if (opts.divergence_sort) {
        // Uniform per-thread cost: sorted pickup plus sort share.
        std::uint64_t sort_share = 1;
        for (std::uint64_t c = chunk; c > 1; c >>= 1) ++sort_share;
        ctx.work(sort_share);
      } else {
        ctx.work(scanned);
      }
      if (target == Mesh::kNone) return;
      build_refinement_cavity(m, target, opts.use_float, cav[t]);
      // Single-precision containment tests (Fig. 8 row 7): half the
      // arithmetic and memory traffic of the double-precision path.
      ctx.work(opts.use_float ? cav[t].steps / 2 : cav[t].steps);
      cav[t].neighborhood(hood[t]);
      charge_locality(ctx, target, hood[t]);
      active[t] = 1;
      if (opts.scheme != core::ConflictScheme::kLocks) {
        run.marks.race_mark(ctx, t, hood[t]);
      }
    };

    // --- the apply step shared by all schemes ---
    //
    // Mesh mutation (and the slot allocation it performs) is inherently
    // serialized on the host, so every phase that calls apply() runs as a
    // *sequential* phase: blocks execute in ascending order on one host
    // thread. The modeled cost is unchanged; what it buys is a commit order
    // that does not depend on host-thread interleaving, which makes whole
    // refinement runs (mesh, stats, modeled cycles) deterministic for any
    // host_workers value. All parallel wall-clock gain lives in the cavity
    // building of the race phase, which stays block-parallel.
    auto apply = [&](gpu::ThreadCtx& ctx, std::uint32_t t) {
      run.bad_count +=
          run.commit.apply(cav[t], run.added, &ctx, &run.marks, hood[t]);
      ++round_processed;
    };

    std::vector<gpu::Phase> phases;
    phases.push_back({phase_race, /*sequential=*/false});
    switch (opts.scheme) {
      case core::ConflictScheme::kLocks: {
        // Single phase: claim per-element locks in id order, apply, done.
        // Lock claiming + apply is mutual exclusion — fully sequential.
        phases.clear();
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          phase_race(ctx);
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (run.marks.try_claim(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
            // Unlock at the end of the operation.
            ctx.atomic_op(hood[t].size());
          } else {
            // A real lock-based kernel spins before giving up; charge the
            // retries that make mutual exclusion "ill-suited for GPUs".
            constexpr std::uint64_t kSpinRetries = 8;
            ctx.atomic_op(kSpinRetries * hood[t].size());
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      }
      case core::ConflictScheme::kTwoPhaseRaceCheck:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (run.marks.exact_check(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
          } else {
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      case core::ConflictScheme::kTwoPhasePriority:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (run.marks.priority_check(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
          } else {
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      case core::ConflictScheme::kThreePhase:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          owns[t] = run.marks.priority_check(ctx, t, hood[t]) ? 1 : 0;
        }, /*sequential=*/false});
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (owns[t] && run.marks.final_check(ctx, t, hood[t])) {
            apply(ctx, t);
          } else {
            owns[t] = 0;
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
    }
    dev.launch_phases(lc, std::span<const gpu::Phase>(phases), opts.barrier);
    run.end_round(round_processed, round_aborted);
  }

  copy_mesh();  // transfer of the refined mesh back to the host
  return run.finish(timer);
}

RefineStats refine_gpu_datadriven(Mesh& m, gpu::Device& dev,
                                  const RefineOptions& opts) {
  Timer timer;
  if (opts.layout_opt) m.compact_and_reorder();
  GpuRefinement run("dmr::refine_gpu_datadriven", m, dev, opts);
  run.bad_count =
      static_cast<std::int64_t>(m.compute_all_bad(opts.min_angle_deg));
  run.stats.initial_bad = static_cast<std::uint64_t>(run.bad_count);

  // The centralized worklist. Sized generously; push failures fall back to
  // the next refill sweep. Attaching the device arms the overflow fault
  // class when a campaign is running.
  const std::size_t wl_cap =
      std::max<std::size_t>(1u << 16, m.num_slots() * 4);
  gpu::GlobalWorklist<Tri> worklist(wl_cap, &dev);
  // Host-side fill (charges are discarded).
  const auto seed_worklist = [&] {
    gpu::ThreadCtx seed_ctx;
    for (Tri t = 0; t < m.num_slots(); ++t) {
      if (m.is_deleted(t) || !m.is_bad(t)) continue;
      worklist.push(seed_ctx, t);
    }
  };
  seed_worklist();

  std::vector<Cavity>& cav = run.cav;
  std::vector<std::vector<Tri>>& hood = run.hood;
  std::vector<std::uint8_t>& owns = run.owns;
  std::vector<Tri>& added = run.added;
  std::vector<Tri> cand;
  while (run.running()) {
    const gpu::LaunchConfig lc = run.begin_round("dmr.refine.dd");
    const std::uint64_t T = lc.total_threads();

    cand.assign(T, Mesh::kNone);
    // Touched only in the sequential commit phase: plain counters.
    std::uint64_t round_processed = 0, round_aborted = 0;

    // Requeue a triangle for a later round; Status intentionally dropped on
    // a full list — the refill sweep below re-discovers lost work.
    auto requeue = [&](gpu::ThreadCtx& ctx, Tri v) {
      (void)worklist.push(ctx, v);
    };

    const gpu::Phase phases[3] = {
        // Pop + cavity building. Which thread pops which item would depend
        // on how host workers interleave on the shared index, so the phase
        // runs blocks in ascending order on one host thread (modeled cost is
        // unchanged); every downstream stat is then bit-identical for any
        // host_workers.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          // Pop until a live bad triangle appears (stale ids are skipped).
          for (;;) {
            const auto popped = worklist.pop(ctx);
            if (!popped) return;
            const Tri x = *popped;
            ctx.work(1);
            if (x < m.num_slots() && !m.is_deleted(x) && m.is_bad(x)) {
              cand[t] = x;
              break;
            }
          }
          build_refinement_cavity(m, cand[t], opts.use_float, cav[t]);
          ctx.work(opts.use_float ? cav[t].steps / 2 : cav[t].steps);
          cav[t].neighborhood(hood[t]);
          charge_locality(ctx, cand[t], hood[t]);
          run.marks.race_mark(ctx, t, hood[t]);
        }, /*sequential=*/true},
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (cand[t] == Mesh::kNone) return;
          owns[t] = run.marks.priority_check(ctx, t, hood[t]) ? 1 : 0;
        }, /*sequential=*/false},
        // Commit: mesh mutation and requeue pushes, in ascending thread
        // order on one host thread (see the topology-driven driver).
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (cand[t] == Mesh::kNone) return;
          if (owns[t] && run.marks.final_check(ctx, t, hood[t])) {
            run.bad_count +=
                run.commit.apply(cav[t], added, &ctx, &run.marks, hood[t]);
            for (Tri a : added) {
              if (m.is_bad(a)) requeue(ctx, a);
            }
            if (!m.is_deleted(cand[t]) && m.is_bad(cand[t])) {
              requeue(ctx, cand[t]);  // segment-split leftovers
            }
            ++round_processed;
          } else {
            requeue(ctx, cand[t]);  // aborted: requeue
            ++round_aborted;
          }
        }, /*sequential=*/true},
    };
    dev.launch_phases(lc, phases, opts.barrier);

    dev.note_counter("worklist.occupancy",
                     static_cast<double>(worklist.size()));

    // Refill sweep when pushes were dropped or the queue ran dry while bad
    // triangles remain (also the live-lock escape: the refill reorders).
    // This sweep is the recovery ladder for dropped/overflowed pushes: no
    // work is ever lost, because every still-bad triangle is rediscovered
    // from the mesh itself.
    if (run.bad_count > 0 && worklist.size() == 0) {
      worklist.reset();
      seed_worklist();
      ++run.stats.fallbacks;
      if (dev.faults_armed()) {
        dev.note_recovery("worklist refill sweep rediscovered bad triangles");
      }
    }
    run.end_round(round_processed, round_aborted);
  }
  return run.finish(timer);
}

}  // namespace morph::dmr
