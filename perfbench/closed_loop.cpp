// Closed-loop workloads on one thread: fattree_frontier and torus_replan.
//
// One operation is one generated DAG scheduled under both algorithms of
// the workload through the one-shot `Scheduler::schedule(graph,
// topology)` entry the CLI uses; torus_replan then replays each schedule
// with `exec::execute`, as the CLI `run` path does. Operations span both
// algorithms because their times differ: a median over single schedules
// would fall between the two clusters. The benchmark makes whole passes
// over a fixed pool of DAGs drawn from the seed; the first pass is
// validated and fingerprinted, later passes must reproduce it exactly.
//
// The end-to-end times take each schedule's fastest pass. On a shared
// host other tenants only ever add time, and they do so in bursts of
// seconds, so the fastest of several passes is the operation's own cost.
// Set-up is repeated before every pass, so its median spans the run.
#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "exec/executor.hpp"
#include "harness.hpp"
#include "net/builders.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"

namespace perfbench {

namespace es = edgesched;

namespace {

constexpr int kSetupRepsPerPass = 25;
constexpr int kPlatformReps = 5;
constexpr int kMinPasses = 3;

struct ClosedLoopConfig {
  std::vector<std::string> algorithms;
  std::size_t pool = 1;   ///< DAGs per pass
  std::size_t tasks = 1;  ///< tasks per DAG
  bool execute = false;   ///< replay every schedule under faults
  std::function<es::net::Topology()> build_fabric;
};

/// What the first pass over the pool produced, per (DAG, algorithm).
struct Expected {
  double makespan = 0.0;
  double achieved = 0.0;
};

struct PhaseResult {
  std::vector<double> op_seconds;
  /// [DAG][algorithm]: the fastest pass's schedule (and execution) time;
  /// empty when the phase keeps no bests.
  std::vector<std::vector<double>> best_seconds;
  int passes = 0;
  std::vector<double> schedule_seconds;
  std::vector<double> execute_seconds;
  double tasks_scheduled = 0.0;
  double tasks_executed = 0.0;

  [[nodiscard]] double measured() const {
    double total = 0.0;
    for (double s : op_seconds) {
      total += s;
    }
    return total;
  }

  /// Per DAG, the sum over algorithms of their fastest times.
  [[nodiscard]] std::vector<double> best_op_seconds() const {
    std::vector<double> out;
    for (const std::vector<double>& per_algorithm : best_seconds) {
      double total = 0.0;
      for (double s : per_algorithm) {
        total += s;
      }
      out.push_back(total);
    }
    return out;
  }
};

class ClosedLoop {
 public:
  ClosedLoop(const Options& options, ClosedLoopConfig config, Report& report)
      : options_(options), config_(std::move(config)), report_(report) {}

  void run() {
    set_up(kSetupRepsPerPass);
    measure_platform_build();
    generate_pool();
    if (!options_.trace) {
      const PhaseResult phase = run_phase(options_.seconds, kMinPasses);
      report_setup();
      report_end_to_end(phase);
      return;
    }
    // Traced run: one validating pass, then every operation twice in a
    // row, untraced and traced, so drift of the machine hits both alike.
    // Counters are read around the traced operations only.
    (void)run_phase(0.0, 1);
    es::obs::Tracer::instance().clear();
    PhaseResult untraced;
    PhaseResult traced;
    Counters delta;
    for (std::size_t op = 0;
         op < config_.pool || untraced.measured() < options_.seconds / 2.0;
         ++op) {
      const std::size_t d = op % config_.pool;
      untraced.op_seconds.push_back(run_op(d, untraced));
      const Counters before = Counters::capture();
      {
        const ScopedAggregateTrace trace;
        traced.op_seconds.push_back(run_op(d, traced));
      }
      delta += Counters::capture() - before;
    }
    report_setup();
    report_layers(untraced, traced, delta, SpanTotals::capture());
  }

 private:
  // The program's own set-up before the first schedule, as the CLI does
  // it: building the fabric with a net builder and resolving the
  // algorithms through the registry. The fabric is rebuilt identically.
  void set_up(int reps) {
    const std::vector<double> times = time_reps(reps, [&] {
      fabric_ = config_.build_fabric();
      schedulers_.clear();
      for (const std::string& name : config_.algorithms) {
        schedulers_.push_back(es::sched::make_scheduler(name));
      }
    });
    setup_seconds_.insert(setup_seconds_.end(), times.begin(), times.end());
  }

  void report_setup() {
    report_.add("setup_s", median(setup_seconds_), "s",
                "median of " + std::to_string(setup_seconds_.size()) +
                    " reps, " + std::to_string(kSetupRepsPerPass) +
                    " before each pass");
  }

  void measure_platform_build() {
    const std::vector<double> builds = time_reps(kPlatformReps, [&] {
      const es::sched::PlatformContext context(fabric_);
      (void)context.fingerprint();
    });
    report_.add("net.platform_build_ms", 1e3 * median(builds), "ms",
                "median of " + std::to_string(kPlatformReps) + " builds");
  }

  void generate_pool() {
    std::vector<double> fingerprint_s;
    for (std::size_t d = 0; d < config_.pool; ++d) {
      es::Rng rng(mix_seed(options_.seed, 1, d));
      es::dag::LayeredDagParams params;
      params.num_tasks = config_.tasks;
      graphs_.push_back(es::dag::random_layered(params, rng));
      const auto t0 = Clock::now();
      (void)graphs_.back().fingerprint();
      (void)fabric_.fingerprint();
      fingerprint_s.push_back(seconds_between(t0, Clock::now()));
      lower_bounds_.push_back(
          es::sched::makespan_lower_bound(graphs_.back(), fabric_));
    }
    report_.add("dag.fingerprint_us", 1e6 * median(fingerprint_s), "us",
                "median over " + std::to_string(config_.pool) + " DAGs");
  }

  // The fault plan and runtime model of one replay: a few faults per run,
  // rates scaled to the predicted makespan, about 30 % permanent.
  es::exec::ExecutionOptions exec_options(std::size_t d, std::size_t a,
                                          double makespan) const {
    const es::net::Topology& fabric = fabric_;
    es::exec::ExecutionOptions options;
    options.model.duration_spread = 0.2;
    options.model.seed = mix_seed(options_.seed, 2, d * 16 + a);
    options.policy = es::exec::RecoveryPolicy::kReschedule;
    es::exec::HazardConfig hazard;
    hazard.horizon = 2.0 * makespan;
    hazard.processor_rate =
        1.0 / (static_cast<double>(fabric.num_processors()) * makespan);
    hazard.link_rate =
        1.0 / (static_cast<double>(fabric.num_links()) * makespan);
    hazard.permanent_fraction = 0.3;
    hazard.mean_repair = 0.05 * makespan;
    hazard.seed = mix_seed(options_.seed, 3, d * 16 + a);
    options.faults = es::exec::FaultPlan::sampled(fabric, hazard);
    return options;
  }

  /// Runs whole passes over the pool, each after a round of set-up, until
  /// at least `min_passes` passes and `budget` measured seconds are done.
  PhaseResult run_phase(double budget, int min_passes) {
    PhaseResult phase;
    phase.best_seconds.assign(
        config_.pool,
        std::vector<double>(config_.algorithms.size(),
                            std::numeric_limits<double>::infinity()));
    while (phase.passes < min_passes || phase.measured() < budget) {
      if (phase.passes > 0) {
        set_up(kSetupRepsPerPass);
      }
      for (std::size_t d = 0; d < config_.pool; ++d) {
        phase.op_seconds.push_back(run_op(d, phase));
      }
      ++phase.passes;
    }
    return phase;
  }

  double run_op(std::size_t d, PhaseResult& phase) {
    const es::dag::TaskGraph& graph = graphs_[d];
    const es::net::Topology& fabric = fabric_;
    const bool first_pass = expected_.size() < config_.pool;
    if (first_pass) {
      expected_.emplace_back(config_.algorithms.size());
    }
    report_.attempt();
    double op_seconds = 0.0;
    std::string failure;
    for (std::size_t a = 0; a < schedulers_.size(); ++a) {
      Expected& expected = expected_[d][a];
      double algorithm_seconds = 0.0;
      try {
        const auto t0 = Clock::now();
        const es::sched::Schedule schedule =
            schedulers_[a]->schedule(graph, fabric);
        const double sched_s = seconds_between(t0, Clock::now());
        phase.schedule_seconds.push_back(sched_s);
        algorithm_seconds += sched_s;
        phase.tasks_scheduled += static_cast<double>(graph.num_tasks());
        if (first_pass) {
          check_first_schedule(d, a, schedule, failure);
        } else if (schedule.makespan() != expected.makespan) {
          failure = "makespan differs from the first pass";
        }
        if (config_.execute) {
          algorithm_seconds +=
              execute(d, a, schedule, first_pass, phase, failure);
        }
      } catch (const std::exception& e) {
        failure = e.what();
      }
      op_seconds += algorithm_seconds;
      if (!phase.best_seconds.empty()) {
        double& best = phase.best_seconds[d][a];
        best = std::min(best, algorithm_seconds);
      }
    }
    if (!failure.empty()) {
      report_.failed_op(failure);
    }
    return op_seconds;
  }

  /// Replays one schedule under faults; returns the execution time.
  double execute(std::size_t d, std::size_t a,
                 const es::sched::Schedule& schedule, bool first_pass,
                 PhaseResult& phase, std::string& failure) {
    const es::dag::TaskGraph& graph = graphs_[d];
    Expected& expected = expected_[d][a];
    const es::exec::ExecutionOptions options =
        exec_options(d, a, schedule.makespan());
    const auto t0 = Clock::now();
    const es::exec::ExecutionReport run =
        es::exec::execute(graph, fabric_, schedule, options);
    const double exec_s = seconds_between(t0, Clock::now());
    phase.execute_seconds.push_back(exec_s);
    phase.tasks_executed += static_cast<double>(graph.num_tasks());
    if (!run.completed) {
      failure = "execution did not complete: " + run.failure;
    } else if (first_pass) {
      record_first_execution(expected, run);
    } else if (run.achieved_makespan != expected.achieved) {
      failure = "achieved makespan differs from the first pass";
    }
    return exec_s;
  }

  void check_first_schedule(std::size_t d, std::size_t a,
                            const es::sched::Schedule& schedule,
                            std::string& failure) {
    const std::vector<std::string> violations =
        es::sched::validate(graphs_[d], fabric_, schedule);
    if (!violations.empty()) {
      failure = "invalid schedule: " + violations.front();
    }
    expected_[d][a].makespan = schedule.makespan();
    makespan_digest_.add(schedule.makespan());
    makespan_ratios_.push_back(schedule.makespan() / lower_bounds_[d]);
  }

  void record_first_execution(Expected& expected,
                              const es::exec::ExecutionReport& run) {
    expected.achieved = run.achieved_makespan;
    makespan_digest_.add(run.achieved_makespan);
    slowdowns_.push_back(run.slowdown);
    faults_ += run.faults_injected;
    retries_ += run.retries;
    reschedules_ += run.reschedules;
  }

  void report_first_pass() {
    report_.note("makespan_digest " + makespan_digest_.hex() + " over " +
                 std::to_string(makespan_ratios_.size()) + " schedules of " +
                 std::to_string(config_.pool) + " DAGs");
    report_.add("makespan_over_lb", geomean(makespan_ratios_), "ratio",
                "geomean of " + std::to_string(makespan_ratios_.size()));
    report_.add("exec_slowdown", geomean(slowdowns_), "ratio",
                "geomean of " + std::to_string(slowdowns_.size()) +
                    " executions");
    report_.add("exec.faults_injected", faults_, "count", "first pass");
    report_.add("exec.retries", retries_, "count", "first pass");
    report_.add("exec.reschedules", reschedules_, "count", "first pass");
  }

  // An operation's time sums its schedules' fastest of `passes` passes;
  // throughput is one pass's scheduled tasks over the sum of those times.
  void report_end_to_end(const PhaseResult& phase) {
    const std::vector<double> best = phase.best_op_seconds();
    double best_pass = 0.0;
    for (double s : best) {
      best_pass += s;
    }
    const std::string samples =
        "n=" + std::to_string(config_.pool) + " DAGs, fastest of " +
        std::to_string(phase.passes) + " passes";
    report_.add("tasks_per_s",
                phase.tasks_scheduled / phase.passes / best_pass, "tasks/s",
                "over " + std::to_string(best_pass) + " s, " + samples + "; " +
                    std::to_string(phase.measured()) + " s measured");
    report_.add("latency_p50_ms", 1e3 * median(best), "ms", samples);
    report_.add("latency_p99_ms", 1e3 * quantile(best, 0.99), "ms", samples);
    std::string best_ms = "fastest op ms per DAG:";
    for (double s : best) {
      best_ms += " " + std::to_string(1e3 * s);
    }
    report_.note(best_ms);
    report_first_pass();
  }

  void report_layers(const PhaseResult& untraced, const PhaseResult& traced,
                     const Counters& delta, const SpanTotals& spans) {
    const auto ops = static_cast<double>(traced.op_seconds.size());
    report_engine_layers(report_, delta, spans, ops);
    report_.add("sched.schedule_ms_p50", 1e3 * median(traced.schedule_seconds),
                "ms", "n=" + std::to_string(traced.schedule_seconds.size()));
    report_.add("obs.trace_overhead_frac",
                traced.measured() / untraced.measured() - 1.0, "frac",
                "over " + std::to_string(traced.op_seconds.size()) + " ops");
    report_.ratio("exec.events_per_task", delta["exec_events_total"],
                  traced.tasks_executed);
    if (config_.execute) {
      report_.add("exec.execute_ms_p50", 1e3 * median(traced.execute_seconds),
                  "ms", "n=" + std::to_string(traced.execute_seconds.size()));
      report_.add("exec.self_s",
                  (spans.seconds("exec/execute") - spans.seconds("exec/epoch") -
                   spans.seconds("exec/replan")) /
                      ops,
                  "s", "per op");
    }
    // This workload never goes through the service.
    report_.ratio("svc.schedule_cache_hit_ratio", 0.0, 0.0);
    report_.ratio("svc.platform_cache_hit_ratio", 0.0, 0.0);
    report_.add("svc.backlog_max", 0.0, "count", "no service");
    report_first_pass();
  }

  const Options& options_;
  ClosedLoopConfig config_;
  Report& report_;
  es::net::Topology fabric_;
  std::vector<std::unique_ptr<es::sched::Scheduler>> schedulers_;
  std::vector<double> setup_seconds_;
  std::vector<es::dag::TaskGraph> graphs_;
  std::vector<double> lower_bounds_;
  std::vector<std::vector<Expected>> expected_;
  std::vector<double> makespan_ratios_;
  std::vector<double> slowdowns_;
  Digest makespan_digest_;
  double faults_ = 0.0;
  double retries_ = 0.0;
  double reschedules_ = 0.0;
};

}  // namespace

void run_fattree_frontier(const Options& options, Report& report) {
  const auto fabric = [] {
    es::Rng rng(0);
    return es::net::fat_tree(16, 16, {}, rng);
  };
  ClosedLoop(options, {{"oihsa", "bbsa"}, 3, 10000, false, fabric}, report)
      .run();
}

void run_torus_replan(const Options& options, Report& report) {
  const auto fabric = [] {
    es::Rng rng(0);
    return es::net::torus2d(8, 8, {}, rng);
  };
  ClosedLoop(options, {{"oihsa", "bbsa"}, 12, 1000, true, fabric}, report)
      .run();
}

}  // namespace perfbench
