// Shard failure containment: configuration knobs, the watchdog's error,
// and the test-only fault injector.
//
// Header-only on purpose -- sim/sharded_sim.h includes this so ShardedOptions
// can carry the containment configuration without a cfs_sharded -> cfs_resil
// link cycle; the heavier parts of the resilience subsystem (snapshot
// serialization, the campaign runner) live in cfs_resil, which links
// cfs_sharded the normal way round.
//
// Containment is the campaign's retry of one vector from its pre-vector
// boundary snapshot -- the one its element budget already rolls back to
// (resil/campaign.cpp): every shard is restored and the vector rerun, with
// exponential backoff, up to max_retries times.  ShardedSim adds only the
// watchdog: with a deadline each shard runs on its own thread, and a shard
// still running when it expires is parked (engine and thread, until the
// simulator is destroyed), rebuilt, and reported as ShardDeadlineExceeded.
// Retries never change which shard owns which fault, so the deterministic
// merge is untouched.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

namespace cfs::resil {

/// The error a `throw` injection raises inside a shard worker; distinct so
/// tests can assert the containment path (and not some real bug) fired.
struct InjectedShardFailure : Error {
  InjectedShardFailure(unsigned shard, std::uint64_t vector)
      : Error("injected failure on shard " + std::to_string(shard) +
              " at vector " + std::to_string(vector)) {}
};

/// Thrown by ShardedSim::apply_vector when a shard is still running at the
/// watchdog deadline.  The hung shard's engine has already been replaced by
/// a fresh one, so the caller must restore a boundary before going on.
struct ShardDeadlineExceeded : Error {
  ShardDeadlineExceeded(unsigned shard, std::uint64_t vector,
                        std::uint32_t deadline_ms)
      : Error("shard " + std::to_string(shard) + " still running " +
              std::to_string(deadline_ms) + " ms into vector " +
              std::to_string(vector)) {}
};

/// One scripted failure.  Shard faults (`Throw`, `Stall`) fire on shard
/// `shard` right before it simulates the driver's vector number `vector`:
/// either throw or stall for `stall_ms`.  I/O faults (`ShortWrite`,
/// `Enospc`, `RenameFail`) sabotage checkpoint writes instead: they fire on
/// the `vector`-th (0-based) snapshot save attempt of the process and every
/// later one while budget remains.  All specs fire at most `times` times (a
/// fault that repeats past the retry budget would otherwise hang the
/// campaign it is supposed to exercise).
struct InjectionSpec {
  enum class Action : std::uint8_t {
    Throw, Stall, ShortWrite, Enospc, RenameFail
  };
  Action action = Action::Throw;
  unsigned shard = 0;
  std::uint64_t vector = 0;
  std::uint32_t stall_ms = 0;
  std::uint32_t times = 1;

  static bool is_io(Action a) {
    return a == Action::ShortWrite || a == Action::Enospc ||
           a == Action::RenameFail;
  }
};

/// What an I/O injection wants to happen to the current snapshot save.
enum class IoFail : std::uint8_t { None, ShortWrite, Enospc, RenameFail };

/// Test-only sabotage hook.  ShardedSim calls maybe_fire() from every shard
/// worker when an injector is configured; production runs never construct
/// one.  Thread-safe: workers on different shards consult it concurrently.
class FaultInjector {
 public:
  void add(const InjectionSpec& spec) {
    std::lock_guard<std::mutex> lk(mu_);
    specs_.push_back(Armed{spec, 0});
  }

  /// Called by shard worker `shard` before simulating driver vector
  /// `vector`.  Stalls happen outside the lock so a sleeping shard never
  /// blocks the others' checks.
  void maybe_fire(unsigned shard, std::uint64_t vector) {
    bool do_throw = false;
    std::uint32_t stall = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (Armed& a : specs_) {
        if (InjectionSpec::is_io(a.spec.action)) continue;
        if (a.spec.shard != shard || a.spec.vector != vector) continue;
        if (a.fired >= a.spec.times) continue;
        ++a.fired;
        if (a.spec.action == InjectionSpec::Action::Throw) {
          do_throw = true;
        } else if (a.spec.stall_ms > stall) {
          stall = a.spec.stall_ms;
        }
      }
    }
    if (stall != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    if (do_throw) throw InjectedShardFailure(shard, vector);
  }

  /// Called by resil::save_checkpoint() once per save attempt (when this
  /// injector is installed via set_snapshot_injector).  Consumes one firing
  /// of the first armed I/O spec whose `vector` (the 0-based save ordinal)
  /// has been reached.  Counting attempts here -- retries included -- lets a
  /// spec like `enospc:0:2` fail the first two attempts and then let the
  /// bounded-retry path succeed on the third.
  IoFail maybe_fail_save() {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t n = io_saves_++;
    for (Armed& a : specs_) {
      if (!InjectionSpec::is_io(a.spec.action)) continue;
      if (n < a.spec.vector || a.fired >= a.spec.times) continue;
      ++a.fired;
      switch (a.spec.action) {
        case InjectionSpec::Action::ShortWrite: return IoFail::ShortWrite;
        case InjectionSpec::Action::Enospc: return IoFail::Enospc;
        default: return IoFail::RenameFail;
      }
    }
    return IoFail::None;
  }

  /// Total injections that have fired (all specs).
  std::uint64_t fired() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t n = 0;
    for (const Armed& a : specs_) n += a.fired;
    return n;
  }

  /// Parse a comma-separated spec list, each entry
  ///   throw:SHARD:VECTOR[:TIMES]
  ///   stall:SHARD:VECTOR:MS[:TIMES]
  ///   short-write:NTH[:TIMES] | enospc:NTH[:TIMES] | rename-fail:NTH[:TIMES]
  /// e.g. "throw:1:3", "stall:0:2:400,throw:2:5:2", or "enospc:0:2" (fail
  /// the first two checkpoint save attempts).  Throws cfs::Error on
  /// malformed input.  This is the grammar behind the CLI's --inject flag.
  /// (Returns specs rather than an injector: the mutex member makes the
  /// class itself immovable.)
  static std::vector<InjectionSpec> parse(const std::string& text) {
    std::vector<InjectionSpec> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      std::size_t end = text.find(',', pos);
      if (end == std::string::npos) end = text.size();
      const std::string entry = text.substr(pos, end - pos);
      pos = end + 1;
      if (entry.empty()) {
        if (pos > text.size()) break;
        throw Error("--inject: empty entry");
      }
      std::vector<std::string> f;
      std::size_t p = 0;
      while (p <= entry.size()) {
        std::size_t e = entry.find(':', p);
        if (e == std::string::npos) e = entry.size();
        f.push_back(entry.substr(p, e - p));
        p = e + 1;
      }
      auto num = [&](const std::string& s) -> std::uint64_t {
        if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
          throw Error("--inject: bad number '" + s + "' in '" + entry + "'");
        }
        return std::stoull(s);
      };
      InjectionSpec spec;
      if (f[0] == "throw" && (f.size() == 3 || f.size() == 4)) {
        spec.action = InjectionSpec::Action::Throw;
        spec.shard = static_cast<unsigned>(num(f[1]));
        spec.vector = num(f[2]);
        if (f.size() == 4) spec.times = static_cast<std::uint32_t>(num(f[3]));
      } else if (f[0] == "stall" && (f.size() == 4 || f.size() == 5)) {
        spec.action = InjectionSpec::Action::Stall;
        spec.shard = static_cast<unsigned>(num(f[1]));
        spec.vector = num(f[2]);
        spec.stall_ms = static_cast<std::uint32_t>(num(f[3]));
        if (f.size() == 5) spec.times = static_cast<std::uint32_t>(num(f[4]));
      } else if ((f[0] == "short-write" || f[0] == "enospc" ||
                  f[0] == "rename-fail") &&
                 (f.size() == 2 || f.size() == 3)) {
        spec.action = f[0] == "short-write"
                          ? InjectionSpec::Action::ShortWrite
                          : f[0] == "enospc" ? InjectionSpec::Action::Enospc
                                             : InjectionSpec::Action::RenameFail;
        spec.vector = num(f[1]);
        if (f.size() == 3) spec.times = static_cast<std::uint32_t>(num(f[2]));
      } else {
        throw Error("--inject: expected throw:SHARD:VEC[:TIMES], "
                    "stall:SHARD:VEC:MS[:TIMES], or "
                    "short-write|enospc|rename-fail:NTH[:TIMES], got '" +
                    entry + "'");
      }
      out.push_back(spec);
    }
    return out;
  }

 private:
  struct Armed {
    InjectionSpec spec;
    std::uint32_t fired = 0;
  };
  mutable std::mutex mu_;
  std::vector<Armed> specs_;
  std::uint64_t io_saves_ = 0;  ///< snapshot save attempts observed
};

/// Shard failure containment configuration (carried by ShardedOptions).
/// The campaign (resil/campaign.h) reads max_retries and backoff_ms;
/// ShardedSim reads deadline_ms and injector.
struct ResilOptions {
  /// Times one segment is retried from its boundary before the failure
  /// propagates (a failed attempt counts once, however many shards
  /// failed in it).  0 = no containment: any shard exception aborts the
  /// campaign.
  unsigned max_retries = 0;
  /// Watchdog deadline per vector attempt (ms).  A shard still running when
  /// it expires is declared hung: its worker thread and engine are
  /// abandoned (parked until destruction), the shard gets a rebuilt engine,
  /// and apply_vector throws ShardDeadlineExceeded.  0 = no watchdog.
  std::uint32_t deadline_ms = 0;
  /// Base backoff before a retry (ms); doubles with every failure of the
  /// same segment.
  std::uint32_t backoff_ms = 1;
  /// Test-only sabotage hook; not owned, may be null.
  FaultInjector* injector = nullptr;
};

}  // namespace cfs::resil
