// Clocks, digests, the JSON builder and the span store (see bench.h).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

// The probe publishes its result here so the work cannot be optimized away.
volatile uint64_t probe_sink = 0;

// A miniature discrete-event loop, written here so it shares no code with
// the simulator: a binary heap of pending timestamped events, each firing
// through a type-erased callback that updates a hash map spanning tens of
// megabytes and schedules one successor.
double ProbeOnce() {
  constexpr size_t kPending = size_t{1} << 14;
  constexpr size_t kEvents = size_t{1} << 18;
  constexpr uint64_t kKeys = uint64_t{1} << 20;
  const double t0 = WallNow();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Ev {
    uint64_t at;
    uint64_t key;
    bool operator>(const Ev& o) const { return at > o.at; }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> pending;
  std::unordered_map<uint64_t, uint64_t> state;
  state.reserve(kKeys);
  uint64_t sink = 0;
  const std::function<void(const Ev&)> fire = [&](const Ev& e) {
    uint64_t& v = state[e.key];
    v += e.at;
    sink ^= v;
  };
  for (size_t i = 0; i < kPending; ++i) {
    pending.push({next() & 0xffff, next() % kKeys});
  }
  for (size_t i = 0; i < kEvents; ++i) {
    const Ev e = pending.top();
    pending.pop();
    fire(e);
    pending.push({e.at + (next() & 0xffff), next() % kKeys});
  }
  probe_sink = sink + state.size();
  return WallNow() - t0;
}

}  // namespace

double ProbeSeconds(int threads) {
  // The probe runs in a child process so its memory never shows in this
  // process's peak RSS and its allocations never shape this process's heap.
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("probe: pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("probe: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const double t0 = WallNow();
    std::vector<std::thread> workers;
    for (int i = 1; i < threads; ++i) {
      workers.emplace_back([] { ProbeOnce(); });
    }
    ProbeOnce();
    for (std::thread& w : workers) {
      w.join();
    }
    const double elapsed = WallNow() - t0;
    const bool sent = write(fds[1], &elapsed, sizeof(elapsed)) ==
                      static_cast<ssize_t>(sizeof(elapsed));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double elapsed = 0.0;
  const bool got = read(fds[0], &elapsed, sizeof(elapsed)) ==
                   static_cast<ssize_t>(sizeof(elapsed));
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!got || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("probe: child process failed");
  }
  return elapsed;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ParallelEff(const std::vector<double>& cell_s, int threads,
                   double makespan_s) {
  double sum = 0.0;
  for (const double c : cell_s) {
    sum += c;
  }
  return makespan_s > 0.0 ? sum / (threads * makespan_s) : 0.0;
}

uint64_t FnvMix(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Json& Json::Num(const std::string& key, double v) {
  kv_.emplace_back(key, Number(v));
  return *this;
}

Json& Json::Int(const std::string& key, int64_t v) {
  kv_.emplace_back(key, std::to_string(v));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& v) {
  kv_.emplace_back(key, Quote(v));
  return *this;
}

Json& Json::Bool(const std::string& key, bool v) {
  kv_.emplace_back(key, v ? "true" : "false");
  return *this;
}

Json& Json::Raw(const std::string& key, std::string json) {
  kv_.emplace_back(key, std::move(json));
  return *this;
}

Json& Json::Nums(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += i ? "," : "";
    s += Number(v[i]);
  }
  kv_.emplace_back(key, s + "]");
  return *this;
}

Json& Json::Strs(const std::string& key, const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += i ? "," : "";
    s += Quote(v[i]);
  }
  kv_.emplace_back(key, s + "]");
  return *this;
}

std::string Json::Dump() const {
  std::string s = "{";
  for (size_t i = 0; i < kv_.size(); ++i) {
    s += i ? "," : "";
    s += Quote(kv_[i].first);
    s += ':';
    s += kv_[i].second;
  }
  return s + "}";
}

uint64_t Spans::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Spans::AddWithId(uint64_t id, const std::string& name, double start_s,
                      double end_s, int64_t count, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, start_s, end_s - start_s, count});
}

uint64_t Spans::Add(const std::string& name, double start_s, double end_s,
                    int64_t count, uint64_t parent) {
  const uint64_t id = Reserve();
  AddWithId(id, name, start_s, end_s, count, parent);
  return id;
}

double Spans::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.dur_s;
    }
  }
  return total;
}

int64_t Spans::TotalCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.count;
    }
  }
  return total;
}

double Spans::NsPerItem(const std::string& name) const {
  const int64_t n = TotalCount(name);
  return n > 0 ? TotalSeconds(name) * 1e9 / static_cast<double>(n) : 0.0;
}

size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Spans::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) {
    t0 = std::min(t0, s.start_s);
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"start_us\":%.3f,\"dur_us\":%.3f,\"count\":%" PRId64 "}\n",
                 i ? "," : "", Quote(s.name).c_str(), s.id, s.parent,
                 (s.start_s - t0) * 1e6, s.dur_s * 1e6, s.count);
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 16) {
    failures.push_back(why);
  }
}

}  // namespace perfbench
