#include "svc/service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "netlist/bench_parser.h"
#include "obs/json_stats.h"
#include "resil/snapshot.h"

namespace fs = std::filesystem;

namespace cfs::svc {

namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xCBF29CE484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::Queued: return "queued";
    case SessionState::Running: return "running";
    case SessionState::Done: return "done";
    case SessionState::Failed: return "failed";
    case SessionState::Halted: return "halted";
  }
  return "?";
}

std::uint64_t SessionSpec::fingerprint() const {
  std::uint64_t h = fnv1a(name);
  h = fnv1a(circuit_text, h);
  h = fnv1a(tests_text, h);
  h = fnv1a(mode, h);
  h = fnv1a(std::to_string(threads) + ":" + std::to_string(batch) + ":" +
                std::to_string(elements) + ":" + (reset0 ? "1" : "0"),
            h);
  return h;
}

// ---------------------------------------------------------------------------
// Internal structs

/// A model-cache entry owns everything its SimModel borrows (the model
/// itself only holds pointers), so cached models outlive the open() that
/// built them.
struct Service::ModelEntry {
  std::optional<Circuit> circuit;
  std::optional<MacroExtraction> ext;
  std::optional<FaultUniverse> universe;
  std::optional<MacroFaultMap> mmap;
  std::shared_ptr<const SimModel> model;
};

struct Service::Session {
  SessionSpec spec;
  std::string dir;
  std::atomic<SessionState> state{SessionState::Queued};

  // Guarded by the Service mutex.
  bool on_disk = false;           ///< spec persisted (admitted at least once)
  bool resumed_from_disk = false; ///< re-admitted by crash recovery
  std::thread worker;
  std::uint32_t track = 0;        ///< trace track id (0 = none)

  std::atomic<bool> stop{false};

  // Update ring + live progress, guarded by umu.  ucv signals watchers on
  // new updates and on every state transition.
  std::mutex umu;
  std::condition_variable ucv;
  std::deque<std::string> updates;
  std::uint64_t first_seq = 1;
  std::uint64_t updates_shed = 0;
  std::uint64_t vectors = 0;
  std::uint64_t hard = 0;
  std::uint64_t potential = 0;
  std::uint64_t total_faults = 0;
  bool resumed_run = false;       ///< this (or last) run resumed a checkpoint
  std::uint64_t digest = 0;
  std::uint32_t passes = 0;
  std::uint64_t ckpt_retries = 0;
  std::string error;

  /// The only way `state` changes: stored under umu, so a watcher that has
  /// just tested its predicate under umu cannot miss the wakeup.  Callers
  /// that hold the Service mutex take it first (lock order mu_ -> umu).
  void set_state(SessionState st) {
    {
      std::lock_guard<std::mutex> lk(umu);
      state.store(st);
    }
    ucv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// Construction / recovery / teardown

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.state_dir.empty()) throw Error("cfsd: state_dir is required");
  std::error_code ec;
  fs::create_directories(cfg_.state_dir, ec);
  if (ec) {
    throw Error("cfsd: cannot create state dir " + cfg_.state_dir + ": " +
                ec.message());
  }
  if (cfg_.max_sessions == 0) cfg_.max_sessions = 1;
  if (cfg_.update_ring == 0) cfg_.update_ring = 1;
  if (cfg_.injector != nullptr) resil::set_snapshot_injector(cfg_.injector);
  recover_sessions();
}

Service::~Service() {
  drain();
  if (cfg_.injector != nullptr) resil::set_snapshot_injector(nullptr);
}

std::string Service::session_dir(const std::string& name) const {
  return cfg_.state_dir + "/" + name;
}

void Service::persist_session(const Session& s) {
  std::error_code ec;
  fs::create_directories(s.dir, ec);
  if (ec) throw Error("cannot create session dir " + s.dir);
  obs::atomic_write(s.dir + "/circuit.bench", s.spec.circuit_text, "session");
  obs::atomic_write(s.dir + "/tests.txt", s.spec.tests_text, "session");
  std::string m = "{\"name\":\"" + json_escape(s.spec.name) + "\",\"mode\":\"" +
                  json_escape(s.spec.mode) + "\"";
  m += ",\"threads\":" + std::to_string(s.spec.threads);
  m += ",\"batch\":" + std::to_string(s.spec.batch);
  m += ",\"elements\":" + std::to_string(s.spec.elements);
  m += std::string(",\"reset0\":") + (s.spec.reset0 ? "true" : "false");
  m += ",\"fingerprint\":\"" + hex64(s.spec.fingerprint()) + "\"}\n";
  // Manifest last: its presence marks the session directory complete, and
  // atomic_write makes "present" an all-or-nothing property.
  obs::atomic_write(s.dir + "/manifest.json", m, "session manifest");
}

void Service::recover_sessions() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.state_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string dir = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (!valid_session_name(name)) continue;
    if (!fs::exists(dir + "/manifest.json")) continue;  // torn create
    std::shared_ptr<Session> s;
    try {
      const JsonValue m = json_parse(read_file(dir + "/manifest.json"));
      s = std::make_shared<Session>();
      s->dir = dir;
      s->spec.name = name;
      s->spec.circuit_text = read_file(dir + "/circuit.bench");
      s->spec.tests_text = read_file(dir + "/tests.txt");
      s->spec.mode = m.req_string("mode");
      s->spec.threads = static_cast<unsigned>(m.req_u64("threads"));
      s->spec.batch = static_cast<unsigned>(m.req_u64("batch"));
      s->spec.elements = m.req_u64("elements");
      s->spec.reset0 = m.opt_bool("reset0", false);
      // A fingerprint mismatch means the directory's files do not belong
      // together (partial manual edits, corruption): skip rather than run
      // the wrong campaign.
      if (hex64(s->spec.fingerprint()) != m.req_string("fingerprint")) {
        continue;
      }
    } catch (const Error&) {
      continue;  // unreadable/corrupt session dir: leave it for inspection
    }
    s->on_disk = true;
    if (fs::exists(dir + "/result.json")) {
      // Finished before the crash: load the persisted result so clients
      // can still query it; nothing to re-run.
      try {
        const JsonValue r = json_parse(read_file(dir + "/result.json"));
        s->digest = std::stoull(r.req_string("digest"), nullptr, 16);
        s->hard = r.req_u64("hard");
        s->potential = r.req_u64("potential");
        s->total_faults = r.req_u64("total");
        s->vectors = r.req_u64("vectors");
        s->passes = static_cast<std::uint32_t>(r.req_u64("passes"));
        s->set_state(SessionState::Done);
        sessions_[name] = s;
      } catch (const Error&) {
        // Unreadable result with a valid manifest: re-run from checkpoint.
        s->resumed_from_disk = true;
        s->set_state(SessionState::Queued);
        sessions_[name] = s;
        queue_.push_back(name);
        ++counters_.resumed;
      }
      continue;
    }
    // Admitted but unfinished: re-admit.  Recovery entries bypass the
    // queue-depth cap -- this work was already accepted once.
    s->resumed_from_disk = true;
    sessions_[name] = s;
    queue_.push_back(name);
    ++counters_.resumed;
  }
  std::lock_guard<std::mutex> lk(mu_);
  admit_from_queue_locked();
}

void Service::drain() {
  std::vector<std::shared_ptr<Session>> to_join;
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    for (auto& [name, s] : sessions_) {
      if (s->state.load() == SessionState::Running) {
        s->stop.store(true, std::memory_order_relaxed);
      }
      if (s->worker.joinable()) to_join.push_back(s);
    }
    cv_.notify_all();
  }
  for (auto& s : to_join) {
    if (s->worker.joinable()) s->worker.join();
  }
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

bool Service::quiescent() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.empty() && running_ == 0;
}

// ---------------------------------------------------------------------------
// Model cache

std::shared_ptr<const SimModel> Service::cached_model(const SessionSpec& spec,
                                                      std::string* err) {
  const std::string key = hex64(fnv1a(spec.circuit_text)) + ":" + spec.mode;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = models_.find(key);
  if (it != models_.end()) {
    ++counters_.model_cache_hits;
    model_lru_.remove(key);
    model_lru_.push_back(key);
    return std::shared_ptr<const SimModel>(it->second,
                                           it->second->model.get());
  }
  ++counters_.model_cache_misses;
  auto e = std::make_shared<ModelEntry>();
  try {
    e->circuit.emplace(parse_bench(spec.circuit_text, spec.name));
    e->universe = spec.mode == "tr"
                      ? FaultUniverse::all_transition(*e->circuit)
                      : FaultUniverse::all_stuck_at(*e->circuit);
    if (spec.mode == "sa-macro") {
      e->ext = extract_macros(*e->circuit);
      e->mmap = map_faults_to_macros(*e->circuit, *e->ext, *e->universe);
    }
    const Circuit& simc = e->ext ? e->ext->circuit : *e->circuit;
    e->model = std::make_shared<SimModel>(
        simc, *e->universe, e->mmap ? &*e->mmap : nullptr);
  } catch (const Error& ex) {
    if (err != nullptr) *err = ex.what();
    return nullptr;
  }
  models_[key] = e;
  model_lru_.push_back(key);
  if (model_lru_.size() > kModelCacheCap) {
    // Evicting only drops the cache's reference; sessions still simulating
    // on the model keep their aliased shared_ptr alive.
    models_.erase(model_lru_.front());
    model_lru_.pop_front();
  }
  return std::shared_ptr<const SimModel>(e, e->model.get());
}

// ---------------------------------------------------------------------------
// Admission

void Service::admit_from_queue_locked() {
  while (!queue_.empty() && running_ < cfg_.max_sessions && !draining_) {
    const std::string name = queue_.front();
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) {  // shed while queued
      queue_.pop_front();
      continue;
    }
    std::shared_ptr<Session> s = it->second;
    if (s->state.load() != SessionState::Queued) {
      queue_.pop_front();
      continue;
    }
    // Strict FIFO: if the head does not fit the remaining budget, nothing
    // behind it runs either -- admission order stays deterministic and a
    // small session can never starve a big one.
    if (elements_admitted_ + s->spec.elements > cfg_.global_elements) break;
    queue_.pop_front();
    elements_admitted_ += s->spec.elements;
    ++running_;
    s->set_state(SessionState::Running);
    start_worker_locked(s);
  }
  cv_.notify_all();
}

void Service::start_worker_locked(const std::shared_ptr<Session>& s) {
  if (!s->on_disk) {
    persist_session(*s);
    s->on_disk = true;
  }
  if (cfg_.trace != nullptr && s->track == 0) {
    s->track = next_track_++;
    cfg_.trace->name_track(s->track, "session:" + s->spec.name);
  }
  if (s->worker.joinable()) s->worker.join();  // prior Halted run
  s->worker = std::thread([this, s] { run_session(s); });
}

// ---------------------------------------------------------------------------
// Session worker

void Service::push_update_locked(Session& s, const std::string& body) {
  if (s.updates.size() >= cfg_.update_ring) {
    // Bounded ring: the campaign never blocks on a slow watcher; the
    // watcher's next read skips ahead and reports the gap.
    s.updates.pop_front();
    ++s.first_seq;
    ++s.updates_shed;
  }
  s.updates.push_back(body);
  s.ucv.notify_all();
}

void Service::run_session(std::shared_ptr<Session> s) {
  const std::uint64_t t0 =
      cfg_.trace != nullptr ? cfg_.trace->now_us() : 0;
  std::string fail;
  resil::CampaignResult r;
  bool ran = false;
  try {
    std::string model_err;
    std::shared_ptr<const SimModel> model = cached_model(s->spec, &model_err);
    if (!model) throw Error("bad circuit: " + model_err);
    const TestSuite tests = TestSuite::parse(s->spec.tests_text);
    if (tests.empty()) throw Error("test suite contains no vectors");
    if (tests.num_inputs() != model->circuit().inputs().size()) {
      throw Error("test suite width does not match the circuit's inputs");
    }
    {
      std::lock_guard<std::mutex> lk(s->umu);
      s->total_faults = model->num_faults();
    }

    resil::CampaignOptions copt;
    copt.ff_init = s->spec.reset0 ? Val::Zero : Val::X;
    copt.sharded.num_threads = s->spec.threads;
    copt.sharded.batch_width = s->spec.batch;
    copt.sharded.csim.split_lists = true;
    copt.sharded.csim.max_elements = s->spec.elements;
    copt.sharded.resil.max_retries = cfg_.shard_retries;
    copt.sharded.resil.deadline_ms = cfg_.session_stall_ms;
    copt.sharded.resil.injector = cfg_.injector;
    copt.checkpoint_path = s->dir + "/ck.bin";
    copt.checkpoint_every = cfg_.checkpoint_every;
    copt.checkpoint_retries = cfg_.checkpoint_retries;
    copt.checkpoint_backoff_ms = cfg_.checkpoint_backoff_ms;
    copt.stop = &s->stop;
    copt.trace = cfg_.trace;
    const bool resume = fs::exists(s->dir + "/ck.bin");
    if (resume) copt.resume_path = s->dir + "/ck.bin";

    // Stream progress through the timeline sampler: every recorded sample
    // becomes one update in the --stats-json sample schema.
    obs::Timeline tl(cfg_.update_ring, cfg_.sample_every);
    tl.set_observer([this, &s](const obs::TimelineSample& sample) {
      std::ostringstream os;
      {
        obs::JsonWriter w(os);
        obs::Timeline::write_sample_json(w, sample);
      }
      std::lock_guard<std::mutex> lk(s->umu);
      s->vectors = sample.vec + 1;
      s->hard = sample.hard;
      s->potential = sample.potential;
      push_update_locked(*s, "{\"session\":\"" + json_escape(s->spec.name) +
                                 "\",\"sample\":" + os.str() + "}");
    });
    copt.timeline = &tl;

    {
      std::lock_guard<std::mutex> lk(s->umu);
      s->resumed_run = resume;
    }
    resil::CampaignRunner runner(model, tests, copt);
    r = runner.run();
    ran = true;
  } catch (const Error& ex) {
    fail = ex.what();
  } catch (const std::exception& ex) {
    fail = ex.what();
  }

  SessionState final_state;
  std::string final_update;
  {
    std::lock_guard<std::mutex> lk(s->umu);
    if (!ran) {
      final_state = SessionState::Failed;
      s->error = fail;
    } else if (r.halted) {
      // Cooperative stop (cancel / drain): checkpoint written, resumable.
      final_state = SessionState::Halted;
    } else {
      final_state = SessionState::Done;
      s->digest = r.digest();
      s->hard = r.coverage.hard;
      s->potential = r.coverage.potential;
      s->total_faults = r.coverage.total;
      if (r.vectors > s->vectors) s->vectors = r.vectors;
      s->passes = r.passes;
      s->ckpt_retries = r.checkpoint_write_retries;
      std::string res = "{\"digest\":\"" + hex64(s->digest) + "\"";
      res += ",\"hard\":" + std::to_string(r.coverage.hard);
      res += ",\"potential\":" + std::to_string(r.coverage.potential);
      res += ",\"total\":" + std::to_string(r.coverage.total);
      res += ",\"vectors\":" + std::to_string(r.vectors);
      res += ",\"passes\":" + std::to_string(r.passes) + "}\n";
      try {
        obs::atomic_write(s->dir + "/result.json", res, "session result");
      } catch (const Error& ex) {
        final_state = SessionState::Failed;
        s->error = ex.what();
      }
    }
    final_update = "{\"session\":\"" + json_escape(s->spec.name) +
                   "\",\"state\":\"" + to_string(final_state) + "\"";
    if (final_state == SessionState::Done) {
      final_update += ",\"digest\":\"" + hex64(s->digest) + "\"";
    } else if (final_state == SessionState::Failed) {
      final_update += ",\"message\":\"" + json_escape(s->error) + "\"";
    }
    final_update += "}";
    push_update_locked(*s, final_update);
  }

  if (cfg_.trace != nullptr && s->track != 0) {
    cfg_.trace->complete(s->track, "campaign:" + s->spec.name, t0,
                         cfg_.trace->now_us() - t0);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    elements_admitted_ -= s->spec.elements;
    --running_;
    switch (final_state) {
      case SessionState::Done: ++counters_.completed; break;
      case SessionState::Failed: ++counters_.failed; break;
      default: ++counters_.halted; break;
    }
    if (ran) counters_.checkpoint_write_retries += r.checkpoint_write_retries;
    s->stop.store(false, std::memory_order_relaxed);
    s->set_state(final_state);
    admit_from_queue_locked();
  }
}

// ---------------------------------------------------------------------------
// Request dispatch

std::shared_ptr<Service::Session> Service::find_session(
    const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::string Service::session_status_json(Session& s, bool ok_field) {
  std::lock_guard<std::mutex> lk(s.umu);
  const SessionState st = s.state.load();
  std::string out = "{";
  if (ok_field) out += "\"ok\":true,";
  out += "\"session\":\"" + json_escape(s.spec.name) + "\"";
  out += ",\"state\":\"" + std::string(to_string(st)) + "\"";
  out += std::string(",\"resumed\":") +
         ((s.resumed_run || s.resumed_from_disk) ? "true" : "false");
  out += ",\"vectors\":" + std::to_string(s.vectors);
  out += ",\"hard\":" + std::to_string(s.hard);
  out += ",\"potential\":" + std::to_string(s.potential);
  out += ",\"total\":" + std::to_string(s.total_faults);
  out += ",\"elements\":" + std::to_string(s.spec.elements);
  out += ",\"next_seq\":" + std::to_string(s.first_seq + s.updates.size());
  if (st == SessionState::Done) {
    out += ",\"digest\":\"" + hex64(s.digest) + "\"";
    out += ",\"passes\":" + std::to_string(s.passes);
    out += ",\"checkpoint_write_retries\":" + std::to_string(s.ckpt_retries);
  }
  if (st == SessionState::Failed) {
    out += ",\"message\":\"" + json_escape(s.error) + "\"";
  }
  out += "}";
  return out;
}

std::string Service::handle(const std::string& payload, bool* shutdown) {
  if (shutdown != nullptr) *shutdown = false;
  try {
    const JsonValue req = json_parse(payload);
    if (!req.is_object()) {
      throw ProtocolError("bad_request", "request must be a JSON object");
    }
    const std::string op = req.req_string("op");
    if (op == "hello") return op_hello(req);
    if (op == "open") return op_open(req);
    if (op == "status") return op_status(req);
    if (op == "watch") return op_watch(req);
    if (op == "stats") return op_stats(req);
    if (op == "cancel") return op_cancel(req);
    if (op == "shutdown") {
      std::string resp = op_shutdown(req);
      if (shutdown != nullptr) *shutdown = true;
      return resp;
    }
    throw ProtocolError("unknown_op", "unknown op '" + op + "'");
  } catch (const ProtocolError& pe) {
    note_protocol_error();
    return error_response(pe.code(), pe.what());
  } catch (const Error& ex) {
    note_protocol_error();
    return error_response("bad_request", ex.what());
  } catch (const std::exception& ex) {
    note_protocol_error();
    return error_response("internal", ex.what());
  }
}

void Service::note_protocol_error() {
  std::lock_guard<std::mutex> lk(mu_);
  ++counters_.protocol_errors;
}

std::string Service::op_hello(const JsonValue&) {
  return "{\"ok\":true,\"server\":\"cfsd\",\"proto\":1,\"max_frame\":" +
         std::to_string(kMaxFrameBytes) + "}";
}

std::string Service::op_open(const JsonValue& req) {
  SessionSpec spec;
  spec.name = req.req_string("session");
  if (!valid_session_name(spec.name)) {
    throw ProtocolError("bad_request",
                        "session names are [A-Za-z0-9._-]+, at most 64 "
                        "chars, not starting with '.'");
  }
  spec.circuit_text = req.req_string("circuit");
  spec.tests_text = req.req_string("tests");
  spec.mode = req.opt_string("mode", "sa");
  if (spec.mode != "sa" && spec.mode != "sa-macro" && spec.mode != "tr") {
    throw ProtocolError("bad_request", "mode must be sa, sa-macro, or tr");
  }
  // Range-check before narrowing: 2^32 + 1 threads must not become 1.
  const std::uint64_t threads = req.opt_u64("threads", 1);
  const std::uint64_t batch = req.opt_u64("batch", 1);
  if (threads == 0 || threads > 64 || batch == 0 || batch > 64) {
    throw ProtocolError("bad_request", "threads and batch must be 1..64");
  }
  spec.threads = static_cast<unsigned>(threads);
  spec.batch = static_cast<unsigned>(batch);
  spec.elements = req.opt_u64("elements", 0);
  if (spec.elements == 0) spec.elements = cfg_.default_session_elements;
  spec.reset0 = req.opt_bool("reset0", false);
  const auto wait_ms = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(req.opt_u64("wait_ms", cfg_.queue_deadline_ms),
                              cfg_.queue_deadline_ms));

  std::shared_ptr<Session> s;
  bool fresh = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (draining_) {
      throw ProtocolError("draining", "daemon is draining; try again later");
    }
    const auto it = sessions_.find(spec.name);
    if (it != sessions_.end()) {
      s = it->second;
      if (s->spec.fingerprint() != spec.fingerprint()) {
        throw ProtocolError(
            "spec_mismatch",
            "session '" + spec.name +
                "' exists with a different circuit/suite/configuration");
      }
      ++counters_.attached;
      if (s->state.load() == SessionState::Halted) {
        // Reconnect to a halted (cancelled/drained) session: re-admit it.
        s->set_state(SessionState::Queued);
        queue_.push_back(spec.name);
        admit_from_queue_locked();
      }
    } else {
      if (spec.elements > cfg_.global_elements) {
        ++counters_.admission_refused;
        throw ProtocolError(
            "admission_refused",
            "session needs " + std::to_string(spec.elements) +
                " elements but the global budget is " +
                std::to_string(cfg_.global_elements));
      }
      if (queue_.size() >= cfg_.queue_depth) {
        ++counters_.backpressure_rejected;
        throw ProtocolError("backpressure",
                            "admission queue is full (" +
                                std::to_string(cfg_.queue_depth) +
                                " waiting); try again later");
      }
      s = std::make_shared<Session>();
      s->spec = spec;
      s->dir = session_dir(spec.name);
      sessions_[spec.name] = s;
      queue_.push_back(spec.name);
      ++counters_.opened;
      fresh = true;
      admit_from_queue_locked();
    }

    // Wait (bounded) for admission.  Sessions that were admitted at least
    // once (on disk) survive a timed-out waiter; never-admitted ones are
    // shed entirely.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
    while (s->state.load() == SessionState::Queued && !draining_) {
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
          s->state.load() == SessionState::Queued) {
        ++counters_.deadline_shed;
        if (fresh && !s->on_disk) {
          queue_.remove(spec.name);
          sessions_.erase(spec.name);
        }
        throw ProtocolError("deadline_exceeded",
                            "not admitted within " + std::to_string(wait_ms) +
                                " ms");
      }
    }
    if (s->state.load() == SessionState::Queued && draining_) {
      if (fresh && !s->on_disk) {
        queue_.remove(spec.name);
        sessions_.erase(spec.name);
      }
      throw ProtocolError("draining", "daemon is draining; try again later");
    }
  }
  return session_status_json(*s, /*ok_field=*/true);
}

std::string Service::op_status(const JsonValue& req) {
  const std::string name = req.req_string("session");
  std::shared_ptr<Session> s = find_session(name);
  if (!s) {
    throw ProtocolError("unknown_session", "no session '" + name + "'");
  }
  return session_status_json(*s, /*ok_field=*/true);
}

std::string Service::op_watch(const JsonValue& req) {
  const std::string name = req.req_string("session");
  const std::uint64_t after = req.opt_u64("after", 0);
  const auto wait_ms = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(req.opt_u64("wait_ms", 1000),
                              std::numeric_limits<std::uint32_t>::max()));
  std::shared_ptr<Session> s = find_session(name);
  if (!s) {
    throw ProtocolError("unknown_session", "no session '" + name + "'");
  }

  std::unique_lock<std::mutex> lk(s->umu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  // News: an update past `after`, a state other than the one this watch
  // began in (a queued session's admission), or a terminal state.
  const SessionState seen = s->state.load();
  const auto have_news = [&] {
    const SessionState st = s->state.load();
    return s->first_seq + s->updates.size() > after + 1 || st != seen ||
           (st != SessionState::Queued && st != SessionState::Running);
  };
  while (!have_news()) {
    if (s->ucv.wait_until(lk, deadline) == std::cv_status::timeout) break;
  }

  // Slow watcher: the ring may have advanced past `after`; skip ahead and
  // report the gap instead of blocking the session.
  std::uint64_t cursor = after + 1;
  std::uint64_t skipped = 0;
  if (cursor < s->first_seq) {
    skipped = s->first_seq - cursor;
    cursor = s->first_seq;
  }
  std::string out = "{\"ok\":true,\"session\":\"" + json_escape(name) + "\"";
  out += ",\"state\":\"" + std::string(to_string(s->state.load())) + "\"";
  out += ",\"skipped\":" + std::to_string(skipped);
  out += ",\"updates\":[";
  bool first = true;
  std::uint64_t last = after;
  for (; cursor < s->first_seq + s->updates.size(); ++cursor) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(cursor) + ",\"update\":" +
           s->updates[static_cast<std::size_t>(cursor - s->first_seq)] + "}";
    last = cursor;
  }
  out += "],\"next\":" + std::to_string(last) + "}";
  return out;
}

std::string Service::op_stats(const JsonValue&) {
  std::ostringstream os;
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t shed = counters_.updates_shed;
  std::string sess = "[";
  bool first = true;
  for (auto& [name, s] : sessions_) {
    std::lock_guard<std::mutex> ulk(s->umu);
    shed += s->updates_shed;
    if (!first) sess += ",";
    first = false;
    sess += "{\"session\":\"" + json_escape(name) + "\",\"state\":\"" +
            to_string(s->state.load()) + "\",\"vectors\":" +
            std::to_string(s->vectors) + ",\"hard\":" +
            std::to_string(s->hard) + ",\"elements\":" +
            std::to_string(s->spec.elements) + "}";
  }
  sess += "]";
  os << "{\"ok\":true,\"svc\":{"
     << "\"draining\":" << (draining_ ? "true" : "false")
     << ",\"sessions\":" << sessions_.size()
     << ",\"running\":" << running_
     << ",\"queued\":" << queue_.size()
     << ",\"elements_admitted\":" << elements_admitted_
     << ",\"elements_budget\":" << cfg_.global_elements
     << ",\"opened\":" << counters_.opened
     << ",\"resumed\":" << counters_.resumed
     << ",\"attached\":" << counters_.attached
     << ",\"completed\":" << counters_.completed
     << ",\"failed\":" << counters_.failed
     << ",\"halted\":" << counters_.halted
     << ",\"admission_refused\":" << counters_.admission_refused
     << ",\"backpressure_rejected\":" << counters_.backpressure_rejected
     << ",\"deadline_shed\":" << counters_.deadline_shed
     << ",\"updates_shed\":" << shed
     << ",\"protocol_errors\":" << counters_.protocol_errors
     << ",\"model_cache_hits\":" << counters_.model_cache_hits
     << ",\"model_cache_misses\":" << counters_.model_cache_misses
     << ",\"checkpoint_write_retries\":"
     << counters_.checkpoint_write_retries
     << "},\"sessions\":" << sess << "}";
  return os.str();
}

std::string Service::op_cancel(const JsonValue& req) {
  const std::string name = req.req_string("session");
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) {
    throw ProtocolError("draining", "daemon is draining");
  }
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw ProtocolError("unknown_session", "no session '" + name + "'");
  }
  std::shared_ptr<Session> s = it->second;
  const SessionState st = s->state.load();
  if (st == SessionState::Running) {
    // Cooperative: the campaign stops at its next segment end (at most
    // sample_every vectors away), writes a final checkpoint, and the
    // session lands in Halted (resumable).
    s->stop.store(true, std::memory_order_relaxed);
  } else if (st == SessionState::Queued) {
    queue_.remove(name);
    if (s->on_disk) {
      s->set_state(SessionState::Halted);
    } else {
      sessions_.erase(name);
    }
    cv_.notify_all();
  }
  return "{\"ok\":true,\"session\":\"" + json_escape(name) +
         "\",\"state\":\"" + to_string(s->state.load()) + "\"}";
}

std::string Service::op_shutdown(const JsonValue&) {
  // Synchronous graceful drain: every running session checkpoints and
  // halts; the response confirms completion.  The transport layer exits
  // its accept loop once it has written this response.
  drain();
  return "{\"ok\":true,\"draining\":true}";
}

}  // namespace cfs::svc
