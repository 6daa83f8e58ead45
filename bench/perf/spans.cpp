#include <algorithm>
#include <cmath>
#include <utility>

#include "perf.hpp"
#include "util/json.hpp"

namespace sce::bench::perf {

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::int64_t slot)
    : tracer_(tracer) {
  if (tracer_) index_ = tracer_->open(std::move(name), slot);
}

Tracer::Scope::~Scope() {
  if (tracer_) tracer_->close(index_);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t Tracer::open(std::string name, std::int64_t slot) {
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  auto& stack = stacks_[self];
  const auto lane = lanes_.try_emplace(self, lanes_.size()).first->second;
  Span span;
  span.name = std::move(name);
  span.start_us = start;
  span.parent = stack.empty() ? -1 : static_cast<std::int64_t>(stack.back());
  span.slot = slot;
  span.lane = lane;
  spans_.push_back(std::move(span));
  stack.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_us = end;
  auto& stack = stacks_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  const std::vector<Span> all = spans();
  util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.name.substr(0, s.name.find('.')));
    w.key("ph").value("X");
    w.key("ts").value(s.start_us);
    w.key("dur").value(s.end_us - s.start_us);
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(s.lane));
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(s.parent);
    w.key("slot").value(s.slot);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace sce::bench::perf
