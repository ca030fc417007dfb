// Open-loop workload: Poisson request arrivals from one generator thread
// into a `svc::SchedulerService` with (cores - 1) workers.
//
// Every request is a distinct 40–200-task DAG under ba, oihsa or bbsa on
// one of four resident fabrics, except for two fixed shares: every 10th
// request is an exact repeat of a warm request (a schedule-cache hit) and
// every 50th goes to a never-seen fabric (a platform-cache miss). The
// generator polls the returned futures between sends, so each request is
// timed from the moment it was due to be sent until its result was seen.
//
// The nominal phase replays one request stream at a fixed ladder rate
// several times, each time on a freshly built and warmed service, and
// keeps each request's fastest latency: on a shared host other tenants
// only ever add time, in bursts of seconds. The ladder search then finds
// the highest rate whose p99 meets the latency limit without a growing
// backlog.
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dag/generators.hpp"
#include "harness.hpp"
#include "net/builders.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/platform.hpp"
#include "sched/validator.hpp"
#include "svc/scheduler_service.hpp"

namespace perfbench {

namespace es = edgesched;

namespace {

using SchedulePtr = es::svc::SchedulerService::SchedulePtr;
using FabricPtr = std::shared_ptr<const es::net::Topology>;

constexpr std::size_t kWarmRequests = 32;
constexpr std::size_t kRepeatPeriod = 10;  ///< request i % 10 == 5 repeats
constexpr std::size_t kColdPeriod = 50;    ///< request i % 50 == 0 is cold
constexpr double kLadderBaseRps = 100.0;
constexpr int kRungsPerOctave = 12;
constexpr int kNominalRung = 24;  ///< 400 requests/s
constexpr int kTopRung = 72;      ///< 6400 requests/s
constexpr int kCoarseStep = 4;
constexpr double kLatencyLimitS = 0.05;
constexpr std::size_t kStepRequests = 1000;
constexpr int kReplays = 6;
constexpr double kNominalShare = 0.7;  ///< of --seconds, over all replays
constexpr int kSetupRepsPerReplay = 3;
constexpr int kPlatformReps = 5;
const char* const kAlgorithms[] = {"ba", "oihsa", "bbsa"};

double rung_rate(int rung) {
  return kLadderBaseRps * std::exp2(static_cast<double>(rung) / kRungsPerOctave);
}

struct Request {
  std::shared_ptr<const es::dag::TaskGraph> graph;
  FabricPtr fabric;
  const char* algorithm = "";
  bool repeat = false;
  bool cold = false;
  SchedulePtr expected;  ///< a repeat's warm schedule, served from the cache
};

struct Outcome {
  double due = 0.0;   ///< seconds from the step start
  double sent = 0.0;
  double done = 0.0;
  double submit_s = 0.0;
  SchedulePtr schedule;
  std::string error;

  [[nodiscard]] double latency() const { return done - due; }
};

struct Step {
  double rate = 0.0;
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  std::size_t sent = 0;
  std::size_t backlog_end = 0;
  std::size_t backlog_max = 0;
  double wall = 0.0;
  bool aborted = false;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < sent; ++i) {
      out.push_back(outcomes[i].latency());
    }
    return out;
  }
  [[nodiscard]] bool keeps_up() const {
    const double drain_bound = std::max(4.0, rate * kLatencyLimitS);
    return !aborted && quantile(latencies(), 0.99) <= kLatencyLimitS &&
           static_cast<double>(backlog_end) <= drain_bound;
  }
};

class ServiceStream {
 public:
  ServiceStream(const Options& options, Report& report)
      : options_(options),
        report_(report),
        workers_(std::max(2U, std::thread::hardware_concurrency()) - 1) {}

  void run() {
    build_resident_fabrics();
    measure_platform_build();
    if (!options_.trace) {
      const bool nominal_keeps_up = run_nominal();
      const int max_rung = ladder_search(nominal_keeps_up);
      report_.add("max_rate_rps", rung_rate(max_rung), "1/s",
                  "ladder rung " + std::to_string(max_rung) + ", p99 <= " +
                      std::to_string(kLatencyLimitS * 1e3) + " ms");
      report_.add("tasks_per_s", tasks_completed_ / busy_wall_, "tasks/s",
                  "over " + std::to_string(busy_wall_) + " s of steps");
      report_.add("exec_slowdown", 1.0, "ratio", "geomean of 0 executions");
      check_cache_accounting(*service_);
      report_setup();
      return;
    }
    // Traced run: the same requests, untraced then traced, each on its
    // own freshly primed and warmed service.
    set_up(kSetupRepsPerReplay);
    warm_up(*service_);
    const auto nominal_count = static_cast<std::size_t>(
        std::max<double>(static_cast<double>(kStepRequests),
                         rung_rate(kNominalRung) * options_.seconds / 2.0));
    const double untraced_p50 = median(
        run_step(*service_, kNominalRung, 0, nominal_count, 0).latencies());
    check_cache_accounting(*service_);
    service_.reset();
    auto traced_service = make_primed_service();
    warm_up(*traced_service);
    const auto schedule_stats_before = traced_service->cache().stats();
    const auto platform_stats_before = traced_service->platform_cache().stats();
    const Counters before = Counters::capture();
    es::obs::Tracer::instance().clear();
    Step traced;
    {
      const ScopedAggregateTrace trace;
      traced = run_step(*traced_service, kNominalRung, 0, nominal_count, 0);
    }
    report_layers(untraced_p50, traced, Counters::capture() - before,
                  SpanTotals::capture());
    const auto hit_ratio = [&](const char* name, const es::svc::CacheStats& a,
                               const es::svc::CacheStats& b) {
      const auto hits = static_cast<double>(b.hits - a.hits);
      report_.ratio(name, hits,
                    hits + static_cast<double>(b.misses - a.misses));
    };
    hit_ratio("svc.schedule_cache_hit_ratio", schedule_stats_before,
              traced_service->cache().stats());
    hit_ratio("svc.platform_cache_hit_ratio", platform_stats_before,
              traced_service->platform_cache().stats());
    report_.add("sched.schedule_ms_p50",
                1e3 * traced_service->metrics()
                          .histogram("svc_schedule_seconds")
                          .quantile(0.5),
                "ms", "svc_schedule_seconds histogram");
    check_cache_accounting(*traced_service);
    report_setup();
  }

 private:
  void build_resident_fabrics() {
    es::Rng rng(mix_seed(options_.seed, 0));
    const es::net::SpeedConfig homogeneous;
    es::net::RandomWanParams wan;
    wan.num_processors = 128;
    wan.speeds = homogeneous;
    resident_ = {
        std::make_shared<const es::net::Topology>(
            es::net::fat_tree(16, 16, homogeneous, rng)),
        std::make_shared<const es::net::Topology>(
            es::net::torus2d(8, 8, homogeneous, rng)),
        std::make_shared<const es::net::Topology>(
            es::net::random_wan(wan, rng)),
        std::make_shared<const es::net::Topology>(
            es::net::hypercube(6, homogeneous, rng))};
    for (const FabricPtr& fabric : resident_) {
      note_fabric(*fabric);
    }
    es::Rng prime_rng(mix_seed(options_.seed, 4));
    es::dag::LayeredDagParams params;
    params.num_tasks = 40;
    prime_graph_ = std::make_shared<const es::dag::TaskGraph>(
        es::dag::random_layered(params, prime_rng));
  }

  // Records a fabric's fingerprint; a never-seen fabric must not collide
  // with any fabric sent before, or the platform cache would hit.
  void note_fabric(const es::net::Topology& fabric) {
    if (!fingerprints_.insert(fabric.fingerprint()).second) {
      report_.fail("two generated fabrics share a fingerprint");
    }
  }

  // A never-seen fabric: a 128-processor fat tree with heterogeneous
  // speeds drawn from its own stream, so its fingerprint is new.
  FabricPtr cold_fabric(std::size_t index) {
    if (index < cold_.size()) {
      return cold_[index];
    }
    es::Rng rng(mix_seed(options_.seed, 11, index));
    es::net::SpeedConfig speeds;
    speeds.heterogeneous = true;
    cold_.push_back(std::make_shared<const es::net::Topology>(
        es::net::fat_tree(16, 8, speeds, rng)));
    note_fabric(*cold_.back());
    return cold_.back();
  }

  Request fresh_request(std::uint64_t stream, std::size_t index,
                        FabricPtr fabric) {
    es::Rng rng(mix_seed(options_.seed, stream, index));
    es::dag::LayeredDagParams params;
    params.num_tasks = static_cast<std::size_t>(rng.uniform_int(40, 200));
    Request request;
    request.graph = std::make_shared<const es::dag::TaskGraph>(
        es::dag::random_layered(params, rng));
    request.algorithm = kAlgorithms[rng.index(3)];
    request.fabric =
        fabric != nullptr ? std::move(fabric) : resident_[rng.index(4)];
    return request;
  }

  Request request_at(std::size_t i) {
    if (i % kRepeatPeriod == kRepeatPeriod / 2) {
      const std::size_t w = (i / kRepeatPeriod) % warm_.size();
      Request request = warm_[w];
      request.repeat = true;
      request.expected = warm_schedules_[w];
      return request;
    }
    if (i % kColdPeriod == 0) {
      Request request = fresh_request(10, i, cold_fabric(i / kColdPeriod));
      request.cold = true;
      return request;
    }
    return fresh_request(10, i, nullptr);
  }

  std::unique_ptr<es::svc::SchedulerService> make_primed_service() {
    es::svc::ServiceConfig config;
    config.threads = workers_;
    auto service = std::make_unique<es::svc::SchedulerService>(config);
    for (const char* algorithm : kAlgorithms) {
      (void)service->scheduler_for(algorithm);
    }
    for (const FabricPtr& fabric : resident_) {
      (void)service->submit(prime_graph_, fabric, "ba").get();
    }
    return service;
  }

  // The program's own set-up before the first request: building the
  // service, resolving the three schedulers and the first request on
  // each resident fabric, which builds its platform context. The last
  // rep's service is kept.
  void set_up(int reps) {
    for (int r = 0; r < reps; ++r) {
      service_.reset();
      const auto t0 = Clock::now();
      service_ = make_primed_service();
      setup_seconds_.push_back(seconds_between(t0, Clock::now()));
    }
  }

  void report_setup() {
    report_.add("setup_s", median(setup_seconds_), "s",
                "median of " + std::to_string(setup_seconds_.size()) +
                    " reps, " + std::to_string(workers_) + " workers");
  }

  void measure_platform_build() {
    double build_ms = 0.0;
    for (const FabricPtr& fabric : resident_) {
      build_ms += 1e3 * median(time_reps(kPlatformReps, [&] {
                    const es::sched::PlatformContext context(fabric);
                    (void)context.fingerprint();
                  }));
    }
    report_.add("net.platform_build_ms",
                build_ms / static_cast<double>(resident_.size()), "ms",
                "mean over 4 resident fabrics of the median of " +
                    std::to_string(kPlatformReps) + " builds");
  }

  // Sends the warm requests every repeat copies and waits for them, so
  // each repeat finds its schedule cached.
  void warm_up(es::svc::SchedulerService& service) {
    if (warm_.empty()) {
      for (std::size_t w = 0; w < kWarmRequests; ++w) {
        warm_.push_back(fresh_request(12, w, nullptr));
      }
    }
    std::vector<std::future<SchedulePtr>> futures;
    for (const Request& request : warm_) {
      futures.push_back(
          service.submit(request.graph, request.fabric, request.algorithm));
    }
    warm_schedules_.clear();
    for (auto& future : futures) {
      warm_schedules_.push_back(future.get());
    }
    cold_sent_ = 0;
    repeats_sent_ = 0;
  }

  /// Sends `count` requests starting at stream index `first` at the rate
  /// of ladder rung `rung`, then drains. `arrivals` selects the Poisson
  /// stream.
  Step run_step(es::svc::SchedulerService& service, int rung,
                std::size_t first, std::size_t count, std::uint64_t arrivals) {
    Step step;
    step.rate = rung_rate(rung);
    step.requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      step.requests.push_back(request_at(first + i));
      const Request& r = step.requests.back();
      const auto t0 = Clock::now();
      (void)r.graph->fingerprint();
      (void)r.fabric->fingerprint();
      fingerprint_s_.push_back(seconds_between(t0, Clock::now()));
    }
    step.outcomes.resize(count);
    es::Rng arrival_rng(mix_seed(options_.seed, 13, arrivals));
    double offset = 0.0;
    for (Outcome& o : step.outcomes) {
      offset += -std::log(1.0 - arrival_rng.uniform_real(0.0, 1.0)) / step.rate;
      o.due = offset;
    }

    const std::size_t cap = static_cast<std::size_t>(
        std::max(64.0, 4.0 * step.rate * kLatencyLimitS));
    std::vector<std::pair<std::size_t, std::future<SchedulePtr>>> pending;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
    const auto poll = [&] {
      const double now = elapsed();
      for (std::size_t k = 0; k < pending.size();) {
        if (pending[k].second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        finish(step.outcomes[pending[k].first], pending[k].second, now);
        pending[k] = std::move(pending.back());
        pending.pop_back();
      }
    };

    for (std::size_t i = 0; i < count; ++i) {
      Outcome& o = step.outcomes[i];
      for (;;) {
        poll();
        const double wait = o.due - elapsed();
        if (wait <= 0.0) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait, 100e-6)));
      }
      if (pending.size() > cap) {
        step.aborted = true;  // the backlog grows without bound
        break;
      }
      const Request& r = step.requests[i];
      o.sent = elapsed();
      ++step.sent;
      report_.attempt();
      cold_sent_ += r.cold ? 1 : 0;
      repeats_sent_ += r.repeat ? 1 : 0;
      try {
        const auto t0 = Clock::now();
        std::future<SchedulePtr> future =
            service.submit(r.graph, r.fabric, r.algorithm);
        o.submit_s = seconds_between(t0, Clock::now());
        if (future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(o, future, elapsed());
        } else {
          pending.emplace_back(i, std::move(future));
        }
      } catch (const std::exception& e) {
        o.error = e.what();
        o.done = elapsed();
      }
      step.backlog_max = std::max(step.backlog_max, pending.size());
    }
    step.backlog_end = pending.size();
    while (!pending.empty()) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    step.wall = elapsed();
    verify(step);
    return step;
  }

  static void finish(Outcome& o, std::future<SchedulePtr>& future,
                     double now) {
    o.done = now;
    try {
      o.schedule = future.get();
    } catch (const std::exception& e) {
      o.error = e.what();
    }
  }

  // Outside the timed region: every returned schedule goes through the
  // validator, and every repeat must return its warm request's schedule.
  void verify(Step& step) {
    for (std::size_t i = 0; i < step.sent; ++i) {
      Outcome& o = step.outcomes[i];
      const Request& r = step.requests[i];
      if (o.error.empty() && o.schedule == nullptr) {
        o.error = "null schedule";
      }
      if (o.error.empty() && r.repeat && o.schedule != r.expected) {
        o.error = "a repeat was not served from the schedule cache";
      }
      if (o.error.empty()) {
        const auto violations =
            es::sched::validate(*r.graph, *r.fabric, *o.schedule);
        if (!violations.empty()) {
          o.error = "invalid schedule: " + violations.front();
        }
      }
      if (!o.error.empty()) {
        report_.failed_op(o.error);
        continue;
      }
      tasks_completed_ += static_cast<double>(r.graph->num_tasks());
    }
    busy_wall_ += step.wall;
  }

  int ladder_search(bool nominal_keeps_up) {
    int pass = kNominalRung;
    int fail = -1;
    if (nominal_keeps_up) {
      for (int rung = kNominalRung + kCoarseStep; rung <= kTopRung;
           rung += kCoarseStep) {
        if (!try_rung(rung)) {
          fail = rung;
          break;
        }
        pass = rung;
      }
      if (fail < 0) {
        return pass;
      }
    } else {
      fail = kNominalRung;
      pass = -1;
      for (int rung = kNominalRung - kCoarseStep; rung >= 0;
           rung -= kCoarseStep) {
        if (try_rung(rung)) {
          pass = rung;
          break;
        }
        fail = rung;
      }
      if (pass < 0) {
        report_.fail("no ladder rate meets the latency limit");
        return 0;
      }
    }
    while (fail - pass > 1) {
      const int mid = (pass + fail) / 2;
      (try_rung(mid) ? pass : fail) = mid;
    }
    return pass;
  }

  bool try_rung(int rung) {
    const Step step = run_step(*service_, rung, next_index_, kStepRequests,
                               static_cast<std::uint64_t>(rung) + 1);
    next_index_ += kStepRequests;
    std::vector<double> latencies = step.latencies();
    report_.note("ladder rate " + std::to_string(step.rate) + " req/s: p99 " +
                 std::to_string(1e3 * quantile(latencies, 0.99)) +
                 " ms, backlog_end " + std::to_string(step.backlog_end) +
                 (step.aborted ? ", aborted" : "") +
                 (step.keeps_up() ? ", keeps up" : ", falls behind"));
    return step.keeps_up();
  }

  /// Runs the nominal replays and reports their latency and quality;
  /// returns whether some replay kept up. Every complete replay must
  /// return the same makespans.
  bool run_nominal() {
    const auto count = static_cast<std::size_t>(std::max<double>(
        static_cast<double>(kStepRequests),
        rung_rate(kNominalRung) * options_.seconds * kNominalShare /
            kReplays));
    std::vector<double> best(count, std::numeric_limits<double>::infinity());
    std::string first_digest;
    bool keeps_up = false;
    for (int r = 0; r < kReplays; ++r) {
      set_up(kSetupRepsPerReplay);
      warm_up(*service_);
      const Step step = run_step(*service_, kNominalRung, 0, count, 0);
      check_cache_accounting(*service_);
      const std::vector<double> latencies = step.latencies();
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        best[i] = std::min(best[i], latencies[i]);
      }
      keeps_up = keeps_up || step.keeps_up();
      report_.note("nominal replay " + std::to_string(r) + ": p50 " +
                   std::to_string(1e3 * median(latencies)) + " ms, p99 " +
                   std::to_string(1e3 * quantile(latencies, 0.99)) + " ms" +
                   (step.keeps_up() ? "" : ", falls behind"));
      // A replay cut short by a growing backlog sent fewer requests.
      const std::string digest = report_quality(step, r == 0);
      if (step.sent < count) {
        continue;
      }
      if (first_digest.empty()) {
        first_digest = digest;
      } else if (digest != first_digest) {
        report_.fail("a nominal replay's makespans differ from the first");
      }
    }
    best.erase(std::remove(best.begin(), best.end(),
                           std::numeric_limits<double>::infinity()),
               best.end());
    const std::string samples =
        "n=" + std::to_string(best.size()) + " at " +
        std::to_string(rung_rate(kNominalRung)) +
        " req/s, each request's fastest of " + std::to_string(kReplays) +
        " replays";
    report_.add("latency_p50_ms", 1e3 * median(best), "ms", samples);
    report_.add("latency_p99_ms", 1e3 * quantile(best, 0.99), "ms", samples);
    return keeps_up;
  }

  /// The makespan digest of a nominal replay; the first replay also
  /// reports it and the quality metric.
  std::string report_quality(const Step& step, bool first) {
    std::vector<double> ratios;
    Digest digest;
    for (std::size_t i = 0; i < step.sent; ++i) {
      const Outcome& o = step.outcomes[i];
      const Request& r = step.requests[i];
      if (o.schedule == nullptr) {
        digest.add(-1.0);
        continue;
      }
      digest.add(o.schedule->makespan());
      if (first && !r.repeat) {
        ratios.push_back(o.schedule->makespan() /
                         es::sched::makespan_lower_bound(*r.graph, *r.fabric));
      }
    }
    next_index_ = step.requests.size();
    if (first) {
      report_.note("makespan_digest " + digest.hex() + " over " +
                   std::to_string(step.sent) + " nominal requests");
      report_.add("makespan_over_lb", geomean(ratios), "ratio",
                  "geomean of " + std::to_string(ratios.size()));
    }
    return digest.hex();
  }

  // Platform-cache misses must equal the distinct fabrics sent (four
  // resident plus one per cold request) and schedule-cache hits the
  // repeats sent.
  void check_cache_accounting(es::svc::SchedulerService& service) {
    const auto platform = service.platform_cache().stats();
    const auto schedule = service.cache().stats();
    const std::size_t fabrics = resident_.size() + cold_sent_;
    const std::size_t repeats = repeats_sent_;
    report_.note("platform cache misses " + std::to_string(platform.misses) +
                 " for " + std::to_string(fabrics) +
                 " distinct fabrics; schedule cache hits " +
                 std::to_string(schedule.hits) + " for " +
                 std::to_string(repeats) + " repeats");
    if (platform.misses != fabrics) {
      report_.fail("platform cache misses != distinct fabrics sent");
    }
    if (schedule.hits != repeats) {
      report_.fail("schedule cache hits != repeats sent");
    }
  }

  void report_layers(double untraced_p50, const Step& traced,
                     const Counters& delta, const SpanTotals& spans) {
    const auto ops = static_cast<double>(traced.sent);
    report_engine_layers(report_, delta, spans, ops);
    std::vector<double> submit_us;
    std::vector<double> late_ms;
    double computed_latency = 0.0;
    for (std::size_t i = 0; i < traced.sent; ++i) {
      const Outcome& o = traced.outcomes[i];
      submit_us.push_back(1e6 * o.submit_s);
      late_ms.push_back(1e3 * (o.sent - o.due));
      if (!traced.requests[i].repeat) {
        computed_latency += o.latency();
      }
    }
    const std::string n = "n=" + std::to_string(traced.sent);
    report_.add("svc.submit_us_p50", median(submit_us), "us", n);
    report_.add("svc.submit_us_p99", quantile(submit_us, 0.99), "us", n);
    const double job_s = spans.seconds("svc/job");
    const auto jobs = static_cast<double>(spans.count("svc/job"));
    report_.add("svc.job_ms", jobs > 0 ? 1e3 * job_s / jobs : 0.0, "ms",
                "mean of " + std::to_string(spans.count("svc/job")) + " jobs");
    report_.add("svc.queue_wait_ms",
                jobs > 0 ? 1e3 * (computed_latency - job_s) / jobs : 0.0, "ms",
                "mean request latency minus svc/job span");
    report_.add("svc.self_s", (job_s - spans.seconds("*/schedule")) / ops, "s",
                "per request");
    report_.add("svc.backlog_max", static_cast<double>(traced.backlog_max),
                "count", "outstanding requests");
    report_.add("load.late_ms_p99", quantile(late_ms, 0.99), "ms", n);
    report_.add("dag.fingerprint_us", 1e6 * median(fingerprint_s_), "us",
                "graph + topology per request");
    report_.add("obs.trace_overhead_frac",
                median(traced.latencies()) / untraced_p50 - 1.0, "frac",
                "median request latency, same requests and arrivals");
    report_.ratio("exec.events_per_task", 0.0, 0.0);
    report_.add("exec.faults_injected", 0.0, "count", "no execution");
    report_.add("exec.retries", 0.0, "count", "no execution");
    report_.add("exec.reschedules", 0.0, "count", "no execution");
  }

  const Options& options_;
  Report& report_;
  std::size_t workers_;
  std::vector<FabricPtr> resident_;
  std::vector<FabricPtr> cold_;
  std::set<std::uint64_t> fingerprints_;
  std::shared_ptr<const es::dag::TaskGraph> prime_graph_;
  std::vector<Request> warm_;
  std::vector<SchedulePtr> warm_schedules_;  ///< of the current service
  std::unique_ptr<es::svc::SchedulerService> service_;
  std::vector<double> setup_seconds_;
  std::size_t cold_sent_ = 0;     ///< to the current service
  std::size_t repeats_sent_ = 0;  ///< to the current service
  std::vector<double> fingerprint_s_;
  std::size_t next_index_ = 0;
  double tasks_completed_ = 0.0;
  double busy_wall_ = 0.0;
};

}  // namespace

void run_service_stream(const Options& options, Report& report) {
  ServiceStream(options, report).run();
}

}  // namespace perfbench
