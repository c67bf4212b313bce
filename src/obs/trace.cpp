#include "obs/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json_stats.h"
#include "util/error.h"

namespace cfs::obs {

void ensure_writable(const std::string& path, const std::string& what) {
  // Append mode: never truncates existing content (a resumed campaign's
  // timeline stream must survive the probe).  If the probe had to create
  // the file, remove it again -- emitters create their files lazily, and
  // an aborted run should not leave an empty artifact behind.
  const bool existed = std::ifstream(path).good();
  std::ofstream f(path, std::ios::app);
  if (!f) {
    throw Error("cannot open " + what + " file " + path + " for writing: " +
                std::strerror(errno));
  }
  f.close();
  if (!existed) std::remove(path.c_str());
}

void atomic_write(const std::string& path, const std::string& content,
                  const std::string& what) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw Error("cannot write " + what + " temp file " + tmp + ": " +
                std::strerror(errno));
  }
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !closed) {
    std::remove(tmp.c_str());
    throw Error("error writing " + what + " temp file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    throw Error("cannot rename " + what + " file into place at " + path +
                ": " + why);
  }
}

TraceEmitter::TraceEmitter() : t0_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceEmitter::now_us() const {
  const auto d = std::chrono::steady_clock::now() - t0_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

void TraceEmitter::name_track(std::uint32_t tid, const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(Event{'M', tid, 0, 0, name, {}});
}

void TraceEmitter::complete(std::uint32_t tid, const std::string& name,
                            std::uint64_t ts_us, std::uint64_t dur_us) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(Event{'X', tid, ts_us, dur_us, name, {}});
}

void TraceEmitter::instant(std::uint32_t tid, const std::string& name,
                           std::uint64_t ts_us) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(Event{'i', tid, ts_us, 0, name, {}});
}

void TraceEmitter::counter(
    std::uint32_t tid, const std::string& name, std::uint64_t ts_us,
    std::vector<std::pair<std::string, std::uint64_t>> series) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(Event{'C', tid, ts_us, 0, name, std::move(series)});
}

std::size_t TraceEmitter::num_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

void TraceEmitter::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Event& e : events_) {
    w.begin_object();
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(e.tid));
    if (e.ph == 'M') {
      w.key("ph");
      w.value("M");
      w.key("name");
      w.value("thread_name");
      w.key("args");
      w.begin_object();
      w.key("name");
      w.value(e.name);
      w.end_object();
    } else if (e.ph == 'C') {
      w.key("ph");
      w.value("C");
      w.key("name");
      w.value(e.name);
      w.key("ts");
      w.value(e.ts);
      w.key("args");
      w.begin_object();
      for (const auto& [series, v] : e.series) {
        w.key(series);
        w.value(v);
      }
      w.end_object();
    } else {
      w.key("ph");
      w.value(std::string(1, e.ph));
      w.key("name");
      w.value(e.name);
      w.key("ts");
      w.value(e.ts);
      if (e.ph == 'X') {
        w.key("dur");
        w.value(e.dur);
      } else {
        w.key("s");  // instant scope: thread
        w.value("t");
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void TraceEmitter::save(const std::string& path) const {
  std::ostringstream os;
  write(os);
  os << '\n';
  atomic_write(path, os.str(), "trace");
}

}  // namespace cfs::obs
