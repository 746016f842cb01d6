// Shared pieces of the benchmark: the percentile rule, op accounting,
// the result line, host-time spans and the Chrome trace writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Samples lying strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank q-quantile of `v` (reordered in place), or nullopt when
/// fewer than ten samples lie beyond it -- a percentile that rests on
/// one or two outliers is not reported.
std::optional<double> percentile(std::vector<double>& v, double q);

/// Median of `v` (reordered in place); NaN when empty.
double median(std::vector<double> v);

/// Op accounting for one run. Every call the benchmark makes into the
/// program and checks is attempted once; a failed one names its reason.
/// A violated output check is a problem, which makes the run incorrect
/// whether or not an op is charged for it.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::string_view why, std::uint64_t n = 1);
  void problem(std::string what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return problems_.empty(); }
  const std::map<std::string, std::uint64_t, std::less<>>& failures() const {
    return failures_;
  }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> failures_;
  std::vector<std::string> problems_;
};

/// Exactly-once bookkeeping for requests in flight, keyed by request id.
/// Ids are issued in increasing order, so a ring of slots indexed by id
/// replaces a hash map. Responses may overtake each other (ops on
/// different workers), so the ring is much deeper than the window: an
/// id still open when `horizon` later ids have been issued is evicted
/// and counts as lost.
template <typename Entry>
class Inflight {
 public:
  explicit Inflight(std::size_t horizon) : slots_(ring_size(horizon)) {}

  /// Open `id`. Returns the entry of an unanswered id it evicted.
  std::optional<Entry> open(std::uint64_t id, Entry e) {
    Slot& s = slots_[id & (slots_.size() - 1)];
    std::optional<Entry> evicted;
    if (s.live) evicted = std::move(s.entry);
    else ++open_;
    s = Slot{true, id, std::move(e)};
    return evicted;
  }

  /// Close `id` and return its entry; nullopt for an id that is not
  /// open (a duplicate or unknown response).
  std::optional<Entry> close(std::uint64_t id) {
    Slot& s = slots_[id & (slots_.size() - 1)];
    if (!s.live || s.id != id) return std::nullopt;
    s.live = false;
    --open_;
    return std::move(s.entry);
  }

  std::size_t open_count() const { return open_; }

 private:
  struct Slot {
    bool live = false;
    std::uint64_t id = 0;
    Entry entry{};
  };
  static std::size_t ring_size(std::size_t horizon) {
    std::size_t n = 1;
    while (n < horizon) n <<= 1;
    return n;
  }
  std::vector<Slot> slots_;
  std::size_t open_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last line of a run: {"correct","attempted","failed","metrics"}.
std::string result_json(const Tally& tally, const std::vector<Metric>& metrics);

/// A host-time span recorded by the benchmark around a call into one
/// layer. `id` groups the spans of one request (the request id);
/// `parent` is the index of the enclosing span in the log, or -1.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the log's epoch
  double dur_us = 0.0;
  std::uint64_t id = 0;
  long parent = -1;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  /// Append a span; returns its index (a parent for later spans).
  long add(std::string name, double start_us, double end_us,
           std::uint64_t id = 0, long parent = -1);
  std::size_t size() const { return spans_.size(); }

  /// Total self time per span name: each span's duration minus the part
  /// of it that its direct children cover.
  std::map<std::string, double> self_time_us() const;

  /// Chrome trace_event JSON, the object form obs::Tracer::chrome_json()
  /// writes. `extra_events` is a comma-separated list of further events
  /// (the simulator tracer's own) appended to the array.
  std::string chrome_json(std::string_view extra_events = {}) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The event list inside an obs::Tracer::chrome_json() document, for
/// SpanLog::chrome_json's `extra_events`.
std::string_view trace_events_of(std::string_view chrome_doc);

/// CPU seconds the hypervisor has stolen from this guest, summed over
/// all CPUs (the `steal` column of /proc/stat); 0 where not reported.
double host_steal_s();

/// Host steal rate (stolen CPU-seconds per second, all CPUs) up to
/// which a timed block counts as calm: one 10 ms tick in a 0.5 s block.
inline constexpr double kMaxStealRate = 0.025;
/// Blocks kept even when fewer are calm.
inline constexpr std::size_t kMinCalmBlocks = 3;

/// Indices, in order, of the blocks to keep given each block's host
/// steal rate: those at most `max_rate`, or, when fewer than `min_keep`
/// qualify, the `min_keep` least stolen. A block the hypervisor
/// preempted measures the host, not the program: on the development VM
/// a kv_ec_large latency block's p99 grows with the steal in it.
std::vector<std::size_t> calm_blocks(const std::vector<double>& steal_rate,
                                     double max_rate = kMaxStealRate,
                                     std::size_t min_keep = kMinCalmBlocks);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
