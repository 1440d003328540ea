// Measurement primitives of the repository benchmark: the per-rank counter
// deltas read around one public call, the modeled-time rule, order
// statistics, and the span recorder behind the traced run.
//
// Time model: a rank's modeled time for a section is the thread-CPU
// seconds it spent inside the section (measured) plus the section's delta
// of RankReport::comm_s, the modeled network time the rank waited for.
// Network time is modeled (alpha-beta over exact byte/message counters);
// it is never measured. Wall-clock time only places spans on the trace
// timeline and decides when a run has measured long enough.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "runtime/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {

using sa1d::RankReport;

/// What one rank spent inside one bracketed section.
struct Delta {
  double cpu_s = 0;          ///< thread CPU (measured)
  double comm_wait_s = 0;    ///< RankReport::comm_s delta (modeled, waited)
  double comm_hidden_s = 0;  ///< RankReport::overlap_s delta (modeled, hidden)
  double comp_s = 0, plan_s = 0, other_s = 0, reorder_s = 0;
  std::uint64_t bytes_inter = 0, bytes_intra = 0, msgs_inter = 0, msgs_intra = 0;
  std::uint64_t rdma_bytes = 0, rdma_msgs = 0;
  std::uint64_t peak_bytes = 0;  ///< the per-call gauge at the end (a level, not a delta)

  [[nodiscard]] double modeled_s() const { return cpu_s + comm_wait_s; }
  [[nodiscard]] double phases_s() const { return comp_s + plan_s + other_s + reorder_s; }
  [[nodiscard]] std::uint64_t net_bytes() const { return bytes_inter + bytes_intra; }
  [[nodiscard]] std::uint64_t msgs() const { return msgs_inter + msgs_intra; }
};

inline double wall_us() {
  using namespace std::chrono;
  return duration<double, std::micro>(steady_clock::now().time_since_epoch()).count();
}

/// Brackets one section on one rank: counters and clocks at construction,
/// their deltas at finish().
class Probe {
 public:
  explicit Probe(const RankReport& r)
      : before_(r), cpu0_(sa1d::CpuTimer::now_s()), wall0_(wall_us()) {}

  [[nodiscard]] Delta finish(const RankReport& r) const {
    Delta d;
    d.cpu_s = sa1d::CpuTimer::now_s() - cpu0_;
    d.comm_wait_s = r.comm_s - before_.comm_s;
    d.comm_hidden_s = r.overlap_s - before_.overlap_s;
    d.comp_s = r.comp_s - before_.comp_s;
    d.plan_s = r.plan_s - before_.plan_s;
    d.other_s = r.other_s - before_.other_s;
    d.reorder_s = r.reorder_s - before_.reorder_s;
    d.bytes_inter = r.bytes_inter - before_.bytes_inter;
    d.bytes_intra = r.bytes_intra - before_.bytes_intra;
    d.msgs_inter = r.msgs_inter - before_.msgs_inter;
    d.msgs_intra = r.msgs_intra - before_.msgs_intra;
    d.rdma_bytes = r.rdma_bytes - before_.rdma_bytes;
    d.rdma_msgs = r.rdma_msgs - before_.rdma_msgs;
    d.peak_bytes = r.peak_bytes;
    return d;
  }
  [[nodiscard]] double wall0_us() const { return wall0_; }

 private:
  RankReport before_;
  double cpu0_;
  double wall0_;
};

/// Median (mean of the middle pair for even counts); 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile q in [0, 1] with linear interpolation between order statistics.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One traced section. Spans of one simulated rank share a lane; the host
/// thread (input generation, serial references) has its own lane.
struct Span {
  std::string name;
  std::string backend;  ///< empty when the section is not tied to a backend
  int call = -1;        ///< call ordinal within the workload; -1 = set-up
  int lane = 0;
  int id = 0;
  int parent = -1;
  double ts_us = 0, dur_us = 0;
  Delta d;
};

/// In-memory span store: one vector per lane, each written only by the
/// lane's own thread, so recording needs no lock. Disabled recorders keep
/// nothing; spans are written out once, when the benchmark ends.
class Recorder {
 public:
  Recorder(int lanes, bool enabled) : lanes_(static_cast<std::size_t>(lanes)), on_(enabled) {}

  /// Records a finished section; returns its id (-1 when disabled).
  int add(int lane, std::string name, std::string backend, int call, int parent,
          const Probe& p, const Delta& d) {
    if (!on_) return -1;
    auto& v = lanes_[static_cast<std::size_t>(lane)];
    Span s;
    s.name = std::move(name);
    s.backend = std::move(backend);
    s.call = call;
    s.lane = lane;
    s.id = static_cast<int>(v.size()) * static_cast<int>(lanes_.size()) + lane;
    s.parent = parent;
    s.ts_us = p.wall0_us();
    s.dur_us = wall_us() - p.wall0_us();
    s.d = d;
    const int id = s.id;
    v.push_back(std::move(s));
    return id;
  }

  /// Reserves an id for a parent section whose extent is only known once
  /// its children ran; close() fills it in.
  int open(int lane) {
    if (!on_) return -1;
    auto& v = lanes_[static_cast<std::size_t>(lane)];
    v.emplace_back();
    v.back().lane = lane;
    v.back().id = static_cast<int>(v.size() - 1) * static_cast<int>(lanes_.size()) + lane;
    return v.back().id;
  }
  void close(int lane, int id, std::string name, std::string backend, int call, int parent,
             const Probe& p, const Delta& d) {
    if (!on_ || id < 0) return;
    auto& s = lanes_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(id) /
                                                     lanes_.size()];
    s.name = std::move(name);
    s.backend = std::move(backend);
    s.call = call;
    s.parent = parent;
    s.ts_us = p.wall0_us();
    s.dur_us = wall_us() - p.wall0_us();
    s.d = d;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& v : lanes_) n += v.size();
    return n;
  }

  /// Writes every span as a Chrome trace-event "complete" event; args carry
  /// the span's parent and its RankReport deltas. Returns false on I/O error.
  bool write_chrome(const std::string& path, const std::string& workload,
                    const std::string& meta_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n\"traceEvents\": [\n",
                 meta_json.c_str());
    bool first = true;
    const int host = static_cast<int>(lanes_.size()) - 1;
    for (const auto& lane : lanes_)
      for (const auto& s : lane) {
        const auto& d = s.d;
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, "
            "\"rank\": %d, \"backend\": \"%s\", \"call\": %d, \"cpu_ms\": %.6f, "
            "\"comm_wait_ms\": %.6f, \"comm_hidden_ms\": %.6f, \"comp_ms\": %.6f, "
            "\"plan_ms\": %.6f, \"other_ms\": %.6f, \"reorder_ms\": %.6f, "
            "\"net_bytes\": %llu, \"msgs\": %llu, \"rdma_bytes\": %llu, \"rdma_gets\": %llu, "
            "\"peak_bytes\": %llu}}",
            first ? "" : ",\n", s.name.c_str(), workload.c_str(), s.lane, s.ts_us, s.dur_us,
            s.id, s.parent, s.lane == host ? -1 : s.lane, s.backend.c_str(), s.call,
            1e3 * d.cpu_s, 1e3 * d.comm_wait_s, 1e3 * d.comm_hidden_s, 1e3 * d.comp_s,
            1e3 * d.plan_s, 1e3 * d.other_s, 1e3 * d.reorder_s,
            static_cast<unsigned long long>(d.net_bytes()),
            static_cast<unsigned long long>(d.msgs()),
            static_cast<unsigned long long>(d.rdma_bytes),
            static_cast<unsigned long long>(d.rdma_msgs),
            static_cast<unsigned long long>(d.peak_bytes));
        first = false;
      }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::vector<Span>> lanes_;
  bool on_;
};

}  // namespace perfbench
