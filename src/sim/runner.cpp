#include "sim/runner.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sched/platform.hpp"
#include "sched/validator.hpp"
#include "svc/thread_pool.hpp"
#include "util/env.hpp"

namespace edgesched::sim {

InstanceResult run_instance(
    const Instance& instance,
    const std::vector<std::unique_ptr<sched::Scheduler>>& schedulers,
    bool validate_schedules) {
  InstanceResult result;
  result.makespans.reserve(schedulers.size());
  // One platform snapshot per instance: every sweep scheduler reuses the
  // same route table and derived reductions instead of re-deriving them
  // (byte-identical to the per-call path; see sched/platform.hpp).
  const sched::PlatformContext platform(instance.topology);
  for (const auto& scheduler : schedulers) {
    const sched::Schedule schedule =
        scheduler->schedule(instance.graph, platform);
    if (validate_schedules) {
      sched::validate_or_throw(instance.graph, instance.topology, schedule);
    }
    result.makespans.push_back(schedule.makespan());
  }
  return result;
}

double improvement_pct(double baseline, double candidate) {
  if (baseline <= 0.0) {
    return 0.0;
  }
  return 100.0 * (baseline - candidate) / baseline;
}

std::size_t default_sweep_threads() {
  const std::int64_t env = env_int("EDGESCHED_THREADS", 0);
  if (env > 0) {
    return static_cast<std::size_t>(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

/// One pre-planned instance: everything a worker needs, including the
/// exact RNG seed the serial loop would have used at this position.
struct SweepJob {
  std::size_t point_index = 0;
  const ExperimentConfig* config = nullptr;
  std::size_t procs = 0;
  double ccr = 0.0;
  std::uint64_t rng_seed = 0;
};

InstanceResult run_job(const SweepJob& job, bool validate_schedules) {
  obs::Span span("sim/instance", "sim", job.point_index);
  obs::hot_counters().sweep_instances.increment();
  Rng rng(job.rng_seed);  // == root.fork() at this loop position
  const Instance instance =
      make_instance(*job.config, job.procs, job.ccr, rng);
  // The sweep algorithms (BA baseline + the paper's two), fresh per job:
  // they hold only an immutable spec, so workers share no mutable state.
  return run_instance(instance, sched::all_schedulers(), validate_schedules);
}

/// Executes all jobs (serially for effective thread count 1, otherwise on
/// a pool), then folds the per-instance makespans into the sweep points
/// in job order — the serial accumulation order — so the resulting
/// statistics are byte-identical for every thread count.
std::vector<SweepPoint> execute_jobs(std::vector<SweepPoint> points,
                                     const std::vector<SweepJob>& jobs,
                                     bool validate_schedules,
                                     const ProgressFn& progress,
                                     std::size_t threads) {
  const std::size_t total = jobs.size();
  std::vector<InstanceResult> results(total);

  if (threads == 0) {
    threads = default_sweep_threads();
  }
  threads = std::min(threads, std::max<std::size_t>(total, 1));

  if (threads <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      results[i] = run_job(jobs[i], validate_schedules);
      if (progress) {
        progress(i + 1, total);
      }
    }
  } else {
    svc::ThreadPool pool(threads);
    std::mutex progress_mutex;
    std::size_t completed = 0;
    std::vector<std::future<void>> futures;
    futures.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      futures.push_back(pool.submit([&, i]() {
        results[i] = run_job(jobs[i], validate_schedules);
        // Serialise progress accounting and the callback itself: the
        // callback may be invoked from any worker, never concurrently.
        const std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed;
        if (progress) {
          progress(completed, total);
        }
      }));
    }
    for (auto& future : futures) {
      future.get();  // re-throws the first worker failure
    }
  }

  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint& point = points[jobs[i].point_index];
    const double ba = results[i].makespans[0];
    point.ba_makespan.add(ba);
    point.oihsa_improvement_pct.add(
        improvement_pct(ba, results[i].makespans[1]));
    point.bbsa_improvement_pct.add(
        improvement_pct(ba, results[i].makespans[2]));
  }
  return points;
}

/// Shared sweep core: for every (x-point, secondary value, repetition)
/// triple, draw an instance and accumulate the improvements at the
/// x-point. `x_is_ccr` selects which figure family is produced.
std::vector<SweepPoint> sweep(const ExperimentConfig& config, bool x_is_ccr,
                              bool validate_schedules,
                              const ProgressFn& progress,
                              std::size_t threads) {
  const std::size_t x_count =
      x_is_ccr ? config.ccr_values.size() : config.processor_counts.size();
  const std::size_t y_count =
      x_is_ccr ? config.processor_counts.size() : config.ccr_values.size();
  std::vector<SweepPoint> points(x_count);

  std::vector<SweepJob> jobs;
  jobs.reserve(x_count * y_count * config.repetitions);
  Rng root(config.seed);
  for (std::size_t xi = 0; xi < x_count; ++xi) {
    points[xi].x = x_is_ccr
                       ? config.ccr_values[xi]
                       : static_cast<double>(config.processor_counts[xi]);
    for (std::size_t yi = 0; yi < y_count; ++yi) {
      const double ccr =
          x_is_ccr ? config.ccr_values[xi] : config.ccr_values[yi];
      const std::size_t procs = x_is_ccr ? config.processor_counts[yi]
                                         : config.processor_counts[xi];
      for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        // root.next() is precisely the seed root.fork() would construct
        // an Rng from at this point of the serial loop.
        jobs.push_back(SweepJob{xi, &config, procs, ccr, root.next()});
      }
    }
  }
  return execute_jobs(std::move(points), jobs, validate_schedules, progress,
                      threads);
}

}  // namespace

std::vector<SweepPoint> sweep_ccr(const ExperimentConfig& config,
                                  bool validate_schedules,
                                  const ProgressFn& progress,
                                  std::size_t threads) {
  return sweep(config, /*x_is_ccr=*/true, validate_schedules, progress,
               threads);
}

std::vector<SweepPoint> sweep_processors(const ExperimentConfig& config,
                                         bool validate_schedules,
                                         const ProgressFn& progress,
                                         std::size_t threads) {
  return sweep(config, /*x_is_ccr=*/false, validate_schedules, progress,
               threads);
}

std::vector<SweepPoint> sweep_task_counts(
    const ExperimentConfig& config,
    const std::vector<std::size_t>& task_counts, bool validate_schedules,
    const ProgressFn& progress, std::size_t threads) {
  throw_if(task_counts.empty(), "sweep_task_counts: no task counts");

  std::vector<SweepPoint> points(task_counts.size());
  // Pinned per-point configs live here so job pointers stay valid for the
  // whole execution.
  std::vector<ExperimentConfig> pinned(task_counts.size(), config);
  std::vector<SweepJob> jobs;
  jobs.reserve(task_counts.size() * config.ccr_values.size() *
               config.processor_counts.size() * config.repetitions);
  Rng root(config.seed);
  for (std::size_t xi = 0; xi < task_counts.size(); ++xi) {
    points[xi].x = static_cast<double>(task_counts[xi]);
    pinned[xi].tasks_min = task_counts[xi];
    pinned[xi].tasks_max = task_counts[xi];
    for (double ccr : config.ccr_values) {
      for (std::size_t procs : config.processor_counts) {
        for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
          jobs.push_back(SweepJob{xi, &pinned[xi], procs, ccr, root.next()});
        }
      }
    }
  }
  return execute_jobs(std::move(points), jobs, validate_schedules, progress,
                      threads);
}

}  // namespace edgesched::sim
