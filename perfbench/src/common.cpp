#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ splitmix64(stream + 0x51ed));
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // 1-based rank ceil(q * n), computed so that q * n landing a hair
  // above an integer by rounding does not skip a rank.
  const double x = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(x - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

double tail_quantile(std::size_t nominal) {
  for (const double q : {0.99, 0.98, 0.95, 0.9, 0.75}) {
    if (samples_beyond(nominal, q) >= 10) return q;
  }
  return 0.5;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::int32_t Tracer::begin(const char* name, std::uint32_t op) {
  if (!on_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back(),
                        op, ""});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id, const char* tag) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  if (tag[0] != '\0') s.tag = tag;
  // Scopes nest, so the span ending is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent,
                            std::uint32_t op, const char* tag) {
  if (!on_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, op, tag});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"tag\":\"" << s.tag << "\"}\n";
  }
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = ns_to_us(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string key = spans[i].name;
    if (spans[i].tag[0] != '\0') key += std::string("[") + spans[i].tag + "]";
    auto& [dur, own] = by[key];
    dur.push_back(ns_to_us(spans[i].end_ns - spans[i].start_ns));
    own.push_back(self[i]);
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [key, v] : by) {
    out[key] = SpanSummary{v.first.size(), median(std::move(v.first)),
                           median(std::move(v.second))};
  }
  return out;
}

std::vector<double> span_durations_us(const std::vector<Span>& spans,
                                      const std::string& name,
                                      const char* tag) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    if (tag != nullptr && std::string(tag) != s.tag) continue;
    out.push_back(ns_to_us(s.end_ns - s.start_ns));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::latency(const std::string& role, const std::string& op_class,
                     const std::vector<double>& us, std::size_t nominal) {
  const double q = tail_quantile(nominal);
  roles[role] = op_class;
  metric(role + "_p50_us", median(us), "us");
  metric(role + "_tail_us", percentile(us, q), "us");
  tails[role + "_tail_us"] = TailInfo{q, us.size(), samples_beyond(us.size(), q)};
}

void Report::count(const std::string& op_class, bool ok, bool truncated) {
  ClassCounts& c = classes[op_class];
  ++c.attempted;
  if (ok) {
    ++c.succeeded;
  } else {
    ++c.failed;
  }
  if (truncated) ++c.truncated;
}

void Report::tails_from(const Report& untraced) {
  for (const auto& [name, t] : untraced.tails) {
    metric("latency." + name, untraced.metrics.at(name).value, "us");
    tails["latency." + name] = t;
  }
}

void Report::mismatch(const std::string& what) {
  ++mismatches;
  if (errors.size() < 16) errors.push_back("oracle mismatch: " + what);
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [name, c] : classes) n += c.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = mismatches;
  for (const auto& [name, c] : classes) n += c.failed;
  return n;
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

template <typename Map, typename Fn>
std::string object(const Map& m, Fn&& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += quoted(k) + ":" + value(v);
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"workload\":" << quoted(workload)
    << ",\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted() << ",\"failed\":" << failed()
    << ",\"mismatches\":" << mismatches
    << ",\"gate_checked\":" << gate_checked;
  o << ",\"metrics\":" << object(metrics, [](const Metric& m) {
    return "{\"value\":" + num(m.value) + ",\"unit\":" + quoted(m.unit) + "}";
  });
  o << ",\"classes\":" << object(classes, [](const ClassCounts& c) {
    return "{\"attempted\":" + std::to_string(c.attempted) +
           ",\"succeeded\":" + std::to_string(c.succeeded) +
           ",\"failed\":" + std::to_string(c.failed) +
           ",\"truncated\":" + std::to_string(c.truncated) + "}";
  });
  o << ",\"exact\":" << object(exact, [](double v) { return num(v); });
  o << ",\"inexact\":" << object(inexact, [](double v) { return num(v); });
  o << ",\"config\":" << object(config, [](const std::string& v) {
    return quoted(v);
  });
  o << ",\"roles\":" << object(roles, [](const std::string& v) {
    return quoted(v);
  });
  o << ",\"tails\":" << object(tails, [](const TailInfo& t) {
    return "{\"quantile\":" + num(t.quantile) +
           ",\"samples\":" + std::to_string(t.samples) +
           ",\"beyond\":" + std::to_string(t.beyond) + "}";
  });
  o << ",\"spans\":" << object(spans, [](const SpanSummary& s) {
    return "{\"count\":" + std::to_string(s.count) +
           ",\"p50_us\":" + num(s.p50_us) +
           ",\"self_p50_us\":" + num(s.self_p50_us) + "}";
  });
  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) errs += ",";
    errs += quoted(errors[i]);
  }
  o << ",\"errors\":" << errs << "]}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
