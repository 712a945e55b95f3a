#include "svc/workload.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace ooc::svc {

std::shared_ptr<const ZipfCdf> makeZipfCdf(const WorkloadOptions& options) {
  if (options.keySpace == 0)
    throw std::invalid_argument("workload: keySpace must be positive");
  static std::mutex mutex;
  static std::shared_ptr<const ZipfCdf> last;  // guarded by mutex
  static double lastTheta = 0.0;               // guarded by mutex
  const std::lock_guard<std::mutex> lock(mutex);
  if (last && last->size() == options.keySpace &&
      lastTheta == options.zipfTheta)
    return last;
  // Draws binary-search the CDF with a uniform double.
  auto cdf = std::make_shared<ZipfCdf>(options.keySpace);
  double sum = 0.0;
  for (std::uint32_t k = 0; k < options.keySpace; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k) + 1.0, options.zipfTheta);
    (*cdf)[k] = sum;
  }
  for (double& c : *cdf) c /= sum;
  last = cdf;
  lastTheta = options.zipfTheta;
  return cdf;
}

Workload::Workload(const WorkloadOptions& options,
                   std::shared_ptr<const ZipfCdf> zipf, ProcessId node,
                   std::size_t n, std::uint64_t seed)
    : options_(options),
      rng_(Rng(seed).split(0x776Cull + node)),
      zipfCdf_(std::move(zipf)) {
  if (n == 0) throw std::invalid_argument("workload: n must be positive");
  if (!zipfCdf_ || zipfCdf_->empty())
    throw std::invalid_argument("workload: needs the run's zipf table");
  if (options_.thinkMax < options_.thinkMin)
    throw std::invalid_argument("workload: thinkMax < thinkMin");
  // Clients are partitioned by home node; remainders go to the low ids.
  population_ = options_.clients / n +
                (node < options_.clients % n ? 1 : 0);

  const std::uint64_t cap = options_.commandsPerNode;
  if (options_.closedLoop) {
    // Initial wave: the population's first commands, spread evenly over
    // [1, startSpread] — truncated to the emission cap (with 10^6 clients
    // only the head of the wave fits, which is the point: the cap bounds
    // the schedule, the population sets the concurrency).
    const std::uint64_t wave = std::min<std::uint64_t>(population_, cap);
    const Tick spread = std::max<Tick>(1, options_.startSpread);
    for (std::uint64_t i = 0; i < wave; ++i) {
      const Tick at = 1 + (i * spread) / std::max<std::uint64_t>(wave, 1);
      ++calendar_[at];
    }
    planned_ = wave;
  } else {
    // Open loop: bucketed deterministic rate with optional bursts. The
    // whole calendar is laid out up front (bounded by the cap).
    double acc = 0.0;
    for (Tick t = 1; planned_ < cap && t < (1u << 20); ++t) {
      double rate = options_.arrivalsPerTick;
      if (options_.burstEvery > 0 &&
          t % options_.burstEvery < options_.burstLen) {
        rate *= options_.burstFactor;
      }
      acc += rate;
      while (acc >= 1.0 && planned_ < cap) {
        acc -= 1.0;
        ++calendar_[t];
        ++planned_;
      }
    }
  }
}

Tick Workload::nextArrivalTick(Tick now) const {
  const auto it = calendar_.upper_bound(now);
  return it == calendar_.end() ? 0 : it->first;
}

std::vector<Arrival> Workload::collect(Tick tick) {
  // Consume everything scheduled at or BEFORE `tick`: a crash purges the
  // node's armed arrival timer, so after a restart the next firing must
  // sweep up arrivals whose scheduled ticks passed during the downtime.
  std::vector<Arrival> arrivals;
  while (!calendar_.empty() && calendar_.begin()->first <= tick) {
    const auto it = calendar_.begin();
    for (std::uint32_t i = 0; i < it->second; ++i) {
      Arrival a;
      a.client = population_ == 0 ? 0 : rng_.below(population_);
      a.key = drawKey();
      a.due = it->first;
      ++emitted_;
      arrivals.push_back(a);
    }
    calendar_.erase(it);
  }
  return arrivals;
}

void Workload::onCommit(Tick now) {
  if (!options_.closedLoop || planned_ >= cap()) return;
  const Tick think = static_cast<Tick>(
      rng_.between(static_cast<std::int64_t>(options_.thinkMin),
                   static_cast<std::int64_t>(options_.thinkMax)));
  ++calendar_[now + std::max<Tick>(1, think)];
  ++planned_;
}

std::uint32_t Workload::drawKey() {
  const ZipfCdf& cdf = *zipfCdf_;
  const double u = rng_.uniform01();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1));
}

std::uint32_t incarnationSequence(std::uint32_t incarnation,
                                  std::uint32_t seq) {
  if (seq >= (1u << 24))
    throw std::overflow_error("svc: id sequence exhausted (2^24 per "
                              "incarnation)");
  if (incarnation > 0xFF)
    throw std::overflow_error(
        "svc: incarnation " + std::to_string(incarnation) +
        " would re-mint the ids of incarnation " +
        std::to_string(incarnation & 0xFF));
  return (incarnation << 24) | seq;
}

// --- ClientFront -------------------------------------------------------------

ClientFront::ClientFront(const WorkloadOptions& options,
                         std::shared_ptr<const ZipfCdf> zipf, ProcessId node,
                         std::size_t n, std::uint64_t seed)
    : node_(node), workload_(options, std::move(zipf), node, n, seed) {}

void ClientFront::armArrivals(Context& ctx) {
  const Tick now = ctx.now();
  const Tick next = workload_.nextArrivalTick(now);
  if (next == 0) return;
  if (arrivalTimer_ != 0) {
    if (arrivalArmedFor_ <= next) return;  // an earlier firing covers it
    ctx.cancelTimer(arrivalTimer_);
  }
  arrivalArmedFor_ = next;
  arrivalTimer_ = ctx.setTimer(next - now);
}

std::vector<Value> ClientFront::takeArrivals(Context& ctx) {
  arrivalTimer_ = 0;
  std::vector<Value> commands;
  for (const Arrival& arrival : workload_.collect(ctx.now())) {
    const Value command =
        makeCommand(node_, incarnationSequence(ctx.incarnation(), ++cmdSeq_));
    stamps_[command] = arrival.due;
    commands.push_back(command);
  }
  armArrivals(ctx);
  return commands;
}

bool ClientFront::apply(Value command, Tick now, bool feedback) {
  if (!appliedSet_.insert(command).second) {
    ++dupSuppressed_;
    return false;
  }
  applied_.push_back(command);
  if (commandNode(command) == node_) {
    const auto stamp = stamps_.find(command);
    if (stamp != stamps_.end()) {
      latencies_.push_back(now - stamp->second);
      stamps_.erase(stamp);
    }
    if (feedback) workload_.onCommit(now);
  }
  return true;
}

void ClientFront::restore(Value command) {
  if (appliedSet_.insert(command).second) applied_.push_back(command);
}

void ClientFront::reset() {
  cmdSeq_ = 0;
  arrivalTimer_ = 0;
  arrivalArmedFor_ = 0;
  stamps_.clear();
  applied_.clear();
  appliedSet_.clear();
  commitTicks_.clear();
  batchSizes_.clear();
  dupSuppressed_ = 0;
}

}  // namespace ooc::svc
