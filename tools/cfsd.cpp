// cfsd -- the fault-simulation daemon.
//
//   cfsd --state-dir=DIR [--socket=PATH] [config flags]
//
// Serves concurrent fault-simulation campaigns over an AF_UNIX socket with
// the length-prefixed JSON protocol (src/svc/wire.h).  Crash-safe: every
// admitted session checkpoints into --state-dir, a restarted daemon
// re-admits and resumes unfinished sessions automatically, and clients
// reconnect with `cfs connect`.  SIGTERM/SIGINT drain gracefully: running
// sessions stop at their next segment end, write a final checkpoint, and
// stay resumable.
#include <csignal>
#include <cstdio>
#include <string>

#include "args.h"
#include "obs/trace.h"
#include "resil/containment.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/error.h"

namespace {

cfs::svc::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: cfsd --state-dir=DIR [--socket=PATH]\n"
      "            [--mem-budget=N] [--session-elements=N]\n"
      "            [--max-sessions=N] [--queue-depth=N]\n"
      "            [--queue-deadline-ms=N] [--checkpoint-every=N]\n"
      "            [--sample-every=N] [--retries=N] [--stall-ms=N]\n"
      "            [--inject=SPEC] [--trace=FILE]\n"
      "\n"
      "  --state-dir=DIR        session state root (required)\n"
      "  --socket=PATH          listen socket (default DIR/cfsd.sock)\n"
      "  --mem-budget=N         global element budget for admission\n"
      "  --session-elements=N   default per-session element budget\n"
      "  --max-sessions=N       concurrently running sessions\n"
      "  --queue-depth=N        bounded admission queue length\n"
      "  --queue-deadline-ms=N  max time a queued open may wait\n"
      "  --checkpoint-every=N   checkpoint stride in vectors\n"
      "  --sample-every=N       update-stream sampling stride\n"
      "  --retries=N            shard containment retries per segment\n"
      "  --stall-ms=N           per-attempt shard watchdog deadline\n"
      "  --inject=SPEC          chaos injection (see cfs sim --inject)\n"
      "  --trace=FILE           chrome://tracing file with session tracks\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfs;
  try {
    const cli::Args args(argc, argv, 1);
    args.allow_only({"state-dir", "socket", "mem-budget", "session-elements",
                     "max-sessions", "queue-depth", "queue-deadline-ms",
                     "checkpoint-every", "sample-every", "retries",
                     "stall-ms", "inject", "trace"});
    const std::string state_dir = args.get("state-dir");
    if (state_dir.empty()) return usage();

    svc::ServiceConfig cfg;
    cfg.state_dir = state_dir;
    cfg.global_elements = args.get_uint("mem-budget", cfg.global_elements);
    cfg.default_session_elements =
        args.get_uint("session-elements", cfg.default_session_elements);
    cfg.max_sessions =
        args.get_uint<unsigned>("max-sessions", cfg.max_sessions);
    cfg.queue_depth = args.get_uint<unsigned>("queue-depth", cfg.queue_depth);
    cfg.queue_deadline_ms = args.get_uint<std::uint32_t>(
        "queue-deadline-ms", cfg.queue_deadline_ms);
    cfg.checkpoint_every =
        args.get_uint("checkpoint-every", cfg.checkpoint_every);
    cfg.sample_every = args.get_uint("sample-every", cfg.sample_every);
    cfg.shard_retries = args.get_uint<unsigned>("retries", cfg.shard_retries);
    cfg.session_stall_ms =
        args.get_uint<std::uint32_t>("stall-ms", cfg.session_stall_ms);

    resil::FaultInjector injector;
    if (args.has("inject")) {
      for (const resil::InjectionSpec& spec :
           resil::FaultInjector::parse(args.get("inject"))) {
        injector.add(spec);
      }
      cfg.injector = &injector;
    }
    obs::TraceEmitter trace;
    const std::string trace_path = args.get("trace");
    if (!trace_path.empty()) {
      obs::ensure_writable(trace_path, "trace");
      cfg.trace = &trace;
    }

    const std::string sock = args.get("socket", state_dir + "/cfsd.sock");

    svc::Service service(cfg);
    svc::Server server(service, sock);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);  // slow clients must not kill the daemon

    std::printf("cfsd listening on %s (state %s, budget %zu elements, "
                "%u sessions)\n",
                sock.c_str(), state_dir.c_str(), cfg.global_elements,
                cfg.max_sessions);
    std::fflush(stdout);

    server.run();
    std::printf("cfsd draining\n");
    std::fflush(stdout);
    service.drain();
    if (!trace_path.empty()) trace.save(trace_path);
    std::printf("cfsd stopped\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "cfsd: error: %s\n", e.what());
    return 1;
  }
}
