#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
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

/// Nearest rank (1-based) of the q-quantile among n samples. The small
/// epsilon keeps q * n from rounding up past an exact integer.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> percentile(std::vector<double>& v, double q) {
  if (v.empty() || samples_beyond(v.size(), q) < 10) return std::nullopt;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Tally::fail(std::string_view why, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  auto it = failures_.find(why);
  if (it == failures_.end()) it = failures_.emplace(std::string(why), 0).first;
  it->second += n;
}

void Tally::problem(std::string what) { problems_.push_back(std::move(what)); }

std::string result_json(const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

long SpanLog::add(std::string name, double start_us, double end_us,
                  std::uint64_t id, long parent) {
  spans_.push_back(Span{std::move(name), start_us, end_us - start_us, id,
                        parent});
  return static_cast<long>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_time_us() const {
  // Children of one parent never overlap here (the benchmark records a
  // request's sub-calls sequentially), so covered time is their sum.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.dur_us;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += std::max(0.0, spans_[i].dur_us - covered[i]);
  return self;
}

std::string SpanLog::chrome_json(std::string_view extra_events) const {
  // pid 100 keeps the benchmark's host-time spans apart from the
  // simulator tracer's components (pids 0..4, sim-time).
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out += ",\n";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":100,\"tid\":0,",
                  s.start_us, s.dur_us);
    out += "{\"name\":" + json_string(s.name) + buf;
    out += "\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  if (!extra_events.empty()) {
    if (!first) out += ",\n";
    out += extra_events;
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string_view trace_events_of(std::string_view doc) {
  const auto open = doc.find('[');
  const auto close = doc.rfind(']');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close <= open)
    return {};
  std::string_view body = doc.substr(open + 1, close - open - 1);
  while (!body.empty() && (body.front() == '\n' || body.front() == ' '))
    body.remove_prefix(1);
  while (!body.empty() && (body.back() == '\n' || body.back() == ' '))
    body.remove_suffix(1);
  return body;
}

double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<std::size_t> calm_blocks(const std::vector<double>& steal_rate,
                                     double max_rate, std::size_t min_keep) {
  std::vector<std::size_t> idx(steal_rate.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal_rate[a] < steal_rate[b];
  });
  const auto calm = static_cast<std::size_t>(
      std::count_if(steal_rate.begin(), steal_rate.end(),
                    [&](double r) { return r <= max_rate; }));
  idx.resize(std::min(idx.size(), std::max(calm, min_keep)));
  std::sort(idx.begin(), idx.end());
  return idx;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
