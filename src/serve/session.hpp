// Incremental recompute sessions for the morph job server (docs/SERVER.md,
// "Sessions").
//
// A session is a named, long-lived unit of server state: a persistent
// gpu::Device plus incremental application state (mst::MstState or
// pta::PtaState) that survives across requests. Clients open a session once,
// then stream `session-update` batches — edge inserts/deletes for MST,
// new constraints for PTA — and each update resumes the incremental
// algorithm from the current state instead of recomputing from scratch, so
// the modeled cost scales with the size of the batch's touched region, not
// with the accumulated input.
//
// Execution model: session frames ride the arrival gate like every stamped
// frame, but they execute *inline* in arrival order rather than through the
// batching scheduler — the gate already serializes them, and a persistent
// state cannot be handed to racing pool workers. Each session is pinned to
// a virtual pool slot (`open arrival % pool`, an affinity/observability
// label reported in replies and stats). Because the inline execution is a
// pure function of the session's frame history and the incremental kernels
// are bit-deterministic across host workers, replaying a session's
// journaled history ('S' records) rebuilds its device stats and
// app state byte-identically — which is exactly how crash recovery restores
// open sessions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gpu/config.hpp"
#include "gpu/device.hpp"
#include "mst/incremental.hpp"
#include "pta/incremental.hpp"
#include "serve/job.hpp"
#include "support/status.hpp"
#include "telemetry/json.hpp"

namespace morph::serve {

class Session {
 public:
  /// Hard cap on session-open nodes/vars; bounds the memory one client can
  /// pin on the server with a single frame.
  static constexpr std::uint64_t kMaxElements = 1u << 22;

  /// Parses and validates a `session-open` frame and builds the session
  /// (empty state over `nodes`/`vars` elements; updates carry the actual
  /// edges/constraints). Returns kBadRequest without touching `out` on a
  /// malformed frame.
  ///
  ///   {"type":"session-open","id":1,"arrival":0,"session":"g1",
  ///    "kind":"mst","nodes":4096}
  ///   {"type":"session-open","id":2,"arrival":1,"session":"p1",
  ///    "kind":"pta","vars":1024}
  static Status Open(const telemetry::Json& msg, std::uint32_t slot,
                     const gpu::DeviceConfig& dev_cfg,
                     std::unique_ptr<Session>* out);

  /// Applies one `session-update` frame's batch on the persistent device and
  /// fills `*reply` with the `session-result` fields: the post-batch state
  /// digest, kind-specific aggregates, and the request's exec-stat *delta*
  /// (DeviceStats::delta_since against the persistent device's accumulated
  /// stats). Update rows are positional arrays:
  ///
  ///   mst: "updates":[[op,u,v,w],...]       op 1 = insert, 0 = delete
  ///   pta: "updates":[[kind,dst,src],...]   kind 0 = p=&q, 1 = p=q,
  ///                                         2 = p=*q, 3 = *p=q
  ///
  /// kBadRequest on a malformed batch; the state is untouched in that case.
  Status Update(const telemetry::Json& msg, telemetry::Json* reply);

  const std::string& name() const { return name_; }
  const std::string& kind() const { return kind_; }
  std::uint32_t slot() const { return slot_; }
  std::uint64_t updates_applied() const { return updates_; }
  /// State digest as a fixed-width hex string (a full 64-bit FNV-1a value
  /// does not survive a JSON number round-trip).
  std::string digest_hex() const;

 private:
  Session(std::string name, std::string kind, std::uint32_t slot,
          const gpu::DeviceConfig& dev_cfg);

  std::string name_;
  std::string kind_;  ///< "mst" | "pta"
  std::uint32_t slot_ = 0;
  gpu::Device dev_;  ///< persistent: stats accumulate across updates
  std::unique_ptr<mst::MstState> mst_;
  std::unique_ptr<pta::PtaState> pta_;
  std::uint64_t updates_ = 0;  ///< update rows applied over the lifetime
};

}  // namespace morph::serve
