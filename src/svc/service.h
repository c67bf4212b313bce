// The cfsd service core: model cache, session lifecycle, admission control,
// backpressure, and crash recovery -- everything the daemon does except the
// socket I/O (svc/server.h) so the whole robustness surface is testable
// in-process.
//
// ## Sessions
//
// A *session* is one fault-simulation campaign owned by a named tenant key.
// Its lifecycle:
//
//     open --> Queued --> Running --> Done
//                 |           |  \--> Failed
//                 |           \-----> Halted   (cancel / drain; resumable)
//                 \--> shed (backpressure / deadline_exceeded / draining)
//
// Running sessions persist their campaign through resil/ checkpoints inside
// a per-session state directory (manifest.json + circuit.bench + tests.txt
// + ck.bin + result.json, all written atomically), so a kill -9 of the
// daemon loses no admitted work: the restarted Service scans the state dir,
// re-admits every unfinished session, resumes each from its checkpoint, and
// the final campaign digest is bit-identical to an uninterrupted run.
//
// ## Admission control and backpressure
//
// Every session declares an element budget (its CsimOptions::max_elements,
// which bounds the concurrent-fault pool exactly as in PR 4's multi-pass
// degradation).  The Service admits sessions only while the sum of admitted
// budgets fits ServiceConfig::global_elements and fewer than max_sessions
// are running; everything else waits in a bounded FIFO queue.  A full queue
// refuses immediately (`backpressure`); a queued open that outlives its
// deadline is shed (`deadline_exceeded`); a session that could never fit
// the global budget is refused up front (`admission_refused`).  All three
// are structured protocol errors -- the daemon never aborts and other
// sessions never notice.
//
// ## Updates
//
// Each session carries a bounded ring of sequence-numbered update payloads
// (timeline samples in the --stats-json schema, plus lifecycle events).  A
// slow watcher does not block the campaign: when the ring wraps, the
// watcher's next read skips ahead and reports how many updates it missed.
// A `watch` blocks (up to its wait_ms) until there is news: an update past
// its cursor, a state other than the one it began in, or a terminal state.
// Watching a queued session therefore waits for its admission.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "faults/macro_map.h"
#include "netlist/circuit.h"
#include "netlist/macro_extract.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "resil/campaign.h"
#include "resil/containment.h"
#include "svc/wire.h"

namespace cfs::svc {

struct ServiceConfig {
  /// Per-session state root; created if absent.  Required.
  std::string state_dir;

  /// Admission budget: total concurrent-fault list elements across all
  /// running sessions (the unit of CsimOptions::max_elements).
  std::size_t global_elements = 1u << 22;
  /// Element budget assigned to a session that does not request one.
  std::size_t default_session_elements = 1u << 18;
  /// Concurrently *running* sessions (each runs its own sharded campaign).
  unsigned max_sessions = 4;
  /// Bounded admission queue: opens beyond this refuse with backpressure.
  unsigned queue_depth = 16;
  /// Default time a queued open waits before being shed (clients may ask
  /// for less, never more).
  std::uint32_t queue_deadline_ms = 30000;

  /// Per-session update-ring capacity (slow watchers skip, campaigns never
  /// block) and sampling stride in vectors.
  std::size_t update_ring = 256;
  std::uint64_t sample_every = 16;

  /// Campaign checkpoint stride (vectors) and write-retry policy.
  std::uint64_t checkpoint_every = 32;
  unsigned checkpoint_retries = 3;
  std::uint32_t checkpoint_backoff_ms = 1;

  /// Shard failure containment for every session (resil/containment.h):
  /// the campaign's retry budget per segment (failed attempts, each
  /// replaying the segment from its boundary) and the per-vector shard
  /// watchdog deadline, which steps the session one vector at a time.
  /// 0 deadline = no watchdog.
  unsigned shard_retries = 2;
  std::uint32_t session_stall_ms = 0;

  /// Chaos hooks (tests): injector sabotages shard workers and -- via
  /// set_snapshot_injector, which the Service installs when this is set --
  /// checkpoint writes.  trace adds one track per session to a shared
  /// chrome://tracing emitter.  Neither is owned.
  resil::FaultInjector* injector = nullptr;
  obs::TraceEmitter* trace = nullptr;
};

/// What a session runs, as supplied by the client and persisted in the
/// manifest.  Reconnecting with a different spec for the same name is a
/// spec_mismatch error.
struct SessionSpec {
  std::string name;          ///< [A-Za-z0-9._-]+, at most 64 chars
  std::string circuit_text;  ///< inline .bench netlist
  std::string tests_text;    ///< inline test-suite text (TestSuite::parse)
  std::string mode = "sa";   ///< sa | sa-macro | tr
  unsigned threads = 1;
  unsigned batch = 1;
  std::size_t elements = 0;  ///< element budget; 0 = config default
  bool reset0 = false;       ///< flip-flop init Zero instead of X

  /// FNV-1a over every field; the manifest stores it and reconnects must
  /// match.
  std::uint64_t fingerprint() const;
};

enum class SessionState : std::uint8_t {
  Queued, Running, Done, Failed, Halted
};

const char* to_string(SessionState s);

/// Per-service counters (the `svc` stats block).  Plain non-atomic fields:
/// all mutation happens under the Service mutex.
struct SvcCounters {
  std::uint64_t opened = 0;        ///< sessions created fresh
  std::uint64_t resumed = 0;       ///< sessions re-admitted from disk
  std::uint64_t attached = 0;      ///< opens that joined an existing session
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t halted = 0;        ///< cancel/drain stops (resumable)
  std::uint64_t admission_refused = 0;
  std::uint64_t backpressure_rejected = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t updates_shed = 0;  ///< ring entries slow watchers missed
  std::uint64_t protocol_errors = 0;
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_misses = 0;
  std::uint64_t checkpoint_write_retries = 0;
};

class Service {
 public:
  /// Creates state_dir if needed and re-admits every resumable session
  /// found in it (crash recovery).  Throws cfs::Error if the directory
  /// cannot be created.
  explicit Service(ServiceConfig cfg);
  /// Drains (stops sessions at their next segment end, joins workers).
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Dispatch one request payload (JSON text) to a response payload.
  /// Protocol-level problems come back as {"ok":false,"error":code,...};
  /// this never throws ProtocolError.  Blocking ops (open with a queue
  /// wait, watch) block the calling thread only.  `shutdown`, when given,
  /// is set to whether this request was a completed `shutdown` op: the
  /// transport stops only after writing that request's reply.
  std::string handle(const std::string& payload, bool* shutdown = nullptr);

  /// Count a protocol error detected outside handle() (framing, transport)
  /// so the svc stats block sees every malformed frame.
  void note_protocol_error();

  /// Stop admitting, stop running sessions at their next segment end, at
  /// most sample_every vectors away (each writes a final checkpoint --
  /// they stay resumable), and join all
  /// workers.  Idempotent; handle() keeps answering status/stats/watch
  /// during and after a drain, but open/cancel refuse with `draining`.
  void drain();
  bool draining() const;

  /// True once every admitted session has reached a terminal-or-halted
  /// state and the queue is empty (the daemon's idle-exit test hook).
  bool quiescent() const;

  const ServiceConfig& config() const { return cfg_; }

 private:
  struct ModelEntry;
  struct Session;

  // Request handlers (payload already parsed; all may throw ProtocolError,
  // which handle() converts to an error response).
  std::string op_hello(const JsonValue& req);
  std::string op_open(const JsonValue& req);
  std::string op_status(const JsonValue& req);
  std::string op_watch(const JsonValue& req);
  std::string op_stats(const JsonValue& req);
  std::string op_cancel(const JsonValue& req);
  std::string op_shutdown(const JsonValue& req);

  std::shared_ptr<Session> find_session(const std::string& name);
  /// Admit from the queue head while budget and slots allow (mu_ held).
  void admit_from_queue_locked();
  /// Start a Running session's worker thread (mu_ held).
  void start_worker_locked(const std::shared_ptr<Session>& s);
  /// Worker body: build (cached) model, run/resume the campaign, persist
  /// the result, release the budget.
  void run_session(std::shared_ptr<Session> s);
  /// Push one update payload into the session's ring (session mu held by
  /// caller).
  void push_update_locked(Session& s, const std::string& body);
  /// Parse + levelize through the cache.  Returns a SimModel whose aliased
  /// shared_ptr keeps the owning entry alive.
  std::shared_ptr<const SimModel> cached_model(const SessionSpec& spec,
                                               std::string* err);
  /// Recovery scan over state_dir (constructor only).
  void recover_sessions();
  /// Persist spec + manifest into the session's directory (atomic writes).
  void persist_session(const Session& s);
  std::string session_dir(const std::string& name) const;
  std::string session_status_json(Session& s, bool ok_field);

  ServiceConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  /// Admission queue: session names in FIFO order (sessions hold their own
  /// deadline; shed entries remove themselves).
  std::list<std::string> queue_;
  std::size_t elements_admitted_ = 0;
  unsigned running_ = 0;
  bool draining_ = false;
  SvcCounters counters_;
  std::uint32_t next_track_ = 1000;  ///< trace track ids for sessions

  // Model cache: netlist-hash+mode -> owning entry, LRU-evicted.
  std::map<std::string, std::shared_ptr<ModelEntry>> models_;
  std::list<std::string> model_lru_;
  static constexpr std::size_t kModelCacheCap = 8;
};

}  // namespace cfs::svc
