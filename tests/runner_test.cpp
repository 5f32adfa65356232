// Tests for the parallel experiment-execution subsystem (src/runner).
//
// The two load-bearing guarantees:
//   1. determinism — batch output (results, sink order, CSV bytes) is
//      identical for 1 and N worker threads;
//   2. crash isolation — a throwing job is retried as configured and then
//      surfaces as a JobFailure record, never taking sibling jobs down.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/executor.hpp"
#include "runner/grid.hpp"
#include "runner/progress.hpp"
#include "runner/sink.hpp"
#include "runner/thread_pool.hpp"

namespace {

using namespace sensrep;
using core::Algorithm;

runner::ParameterGrid small_grid() {
  runner::ParameterGrid grid;
  grid.algorithms = {Algorithm::kCentralized, Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;  // short horizon keeps the test fast
  return grid;
}

/// Trivial jobs for executor-mechanics tests (no real simulation).
std::vector<runner::Job> fake_jobs(std::size_t n) {
  std::vector<runner::Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].index = i;
    jobs[i].label = "fake-" + std::to_string(i);
    jobs[i].config.seed = i + 1;
  }
  return jobs;
}

/// RunFn whose result is a pure function of the job (seed echoed back).
core::ExperimentResult echo_seed(const runner::Job& job) {
  core::ExperimentResult r;
  r.seed = job.config.seed;
  return r;
}

TEST(ParameterGridTest, ExpandsAlgorithmMajorWithDenseIndices) {
  runner::ParameterGrid grid;
  grid.algorithms = {Algorithm::kCentralized, Algorithm::kFixedDistributed};
  grid.robot_counts = {4, 9};
  grid.first_seed = 7;
  grid.seeds = 3;
  ASSERT_EQ(grid.size(), 12u);

  const auto jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);

  // Triple-nested-loop order: algorithm-major, then robots, then seed.
  EXPECT_EQ(jobs[0].config.algorithm, Algorithm::kCentralized);
  EXPECT_EQ(jobs[0].config.robots, 4u);
  EXPECT_EQ(jobs[0].config.seed, 7u);
  EXPECT_EQ(jobs[2].config.seed, 9u);
  EXPECT_EQ(jobs[3].config.robots, 9u);
  EXPECT_EQ(jobs[6].config.algorithm, Algorithm::kFixedDistributed);
  EXPECT_EQ(jobs[11].config.seed, 9u);
  EXPECT_EQ(jobs[0].label, "centralized r=4 seed=7");
}

TEST(ParameterGridTest, BaseConfigPropagatesToEveryCell) {
  auto grid = small_grid();
  grid.base.dynamic_fringe = 35.0;
  for (const auto& job : grid.expand()) {
    EXPECT_DOUBLE_EQ(job.config.sim_duration, 800.0);
    EXPECT_DOUBLE_EQ(job.config.dynamic_fringe, 35.0);
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadRequestStillGetsAWorker) {
  runner::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ExecutorTest, ResultsAreIndexAlignedRegardlessOfCompletionOrder) {
  const auto jobs = fake_jobs(16);
  runner::ExecutorOptions options;
  options.jobs = 4;
  runner::Executor exec(options);
  // Early indices sleep longest, so completion order inverts grid order.
  const auto batch = exec.run(jobs, [&jobs](const runner::Job& job) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * (jobs.size() - job.index)));
    return echo_seed(job);
  });
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.results.size(), 16u);
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    ASSERT_TRUE(batch.results[i].has_value());
    EXPECT_EQ(batch.results[i]->seed, i + 1);
  }
}

TEST(ExecutorTest, SinkSeesAscendingIndicesUnderContention) {
  const auto jobs = fake_jobs(24);
  runner::VectorSink sink;
  runner::ExecutorOptions options;
  options.jobs = 8;
  runner::Executor exec(options);
  const auto batch = exec.run(
      jobs,
      [&jobs](const runner::Job& job) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((jobs.size() - job.index) % 7));
        return echo_seed(job);
      },
      &sink);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(sink.entries().size(), 24u);
  for (std::size_t i = 0; i < sink.entries().size(); ++i) {
    EXPECT_EQ(sink.entries()[i].index, i) << "sink saw out-of-order emission";
  }
}

TEST(ExecutorTest, ThrowingJobIsRetriedThenRecordedWithoutLosingSiblings) {
  const auto jobs = fake_jobs(8);
  std::atomic<int> attempts_on_bad{0};
  std::atomic<int> total_calls{0};
  runner::ExecutorOptions options;
  options.jobs = 4;
  options.retries = 2;  // 3 attempts total
  runner::Executor exec(options);
  const auto batch = exec.run(jobs, [&](const runner::Job& job) {
    total_calls.fetch_add(1);
    if (job.index == 3) {
      attempts_on_bad.fetch_add(1);
      throw std::runtime_error("injected fault");
    }
    return echo_seed(job);
  });

  EXPECT_EQ(attempts_on_bad.load(), 3);
  EXPECT_EQ(total_calls.load(), 7 + 3);
  ASSERT_EQ(batch.failures.size(), 1u);
  EXPECT_EQ(batch.failures[0].index, 3u);
  EXPECT_EQ(batch.failures[0].label, "fake-3");
  EXPECT_EQ(batch.failures[0].attempts, 3u);
  EXPECT_EQ(batch.failures[0].error, "injected fault");
  EXPECT_FALSE(batch.results[3].has_value());
  EXPECT_EQ(batch.completed(), 7u);
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    if (i != 3) {
      EXPECT_TRUE(batch.results[i].has_value()) << "sibling " << i << " lost";
    }
  }
}

TEST(ExecutorTest, TransientFaultSucceedsWithinRetryBudget) {
  const auto jobs = fake_jobs(4);
  std::atomic<int> calls_on_flaky{0};
  runner::ExecutorOptions options;
  options.jobs = 2;
  options.retries = 1;
  runner::Executor exec(options);
  const auto batch = exec.run(jobs, [&](const runner::Job& job) {
    if (job.index == 2 && calls_on_flaky.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    return echo_seed(job);
  });
  EXPECT_TRUE(batch.ok());
  EXPECT_EQ(calls_on_flaky.load(), 2);
  ASSERT_TRUE(batch.results[2].has_value());
  EXPECT_EQ(batch.results[2]->seed, 3u);
}

TEST(ExecutorTest, FailedJobsAreSkippedBySinkButOrderIsKept) {
  const auto jobs = fake_jobs(6);
  runner::VectorSink sink;
  runner::ExecutorOptions options;
  options.jobs = 3;
  runner::Executor exec(options);
  const auto batch = exec.run(
      jobs,
      [](const runner::Job& job) {
        if (job.index % 2 == 1) throw std::runtime_error("odd jobs fail");
        return echo_seed(job);
      },
      &sink);
  EXPECT_EQ(batch.failures.size(), 3u);
  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(sink.entries()[0].index, 0u);
  EXPECT_EQ(sink.entries()[1].index, 2u);
  EXPECT_EQ(sink.entries()[2].index, 4u);
  // Failure records also come out in ascending index order.
  EXPECT_EQ(batch.failures[0].index, 1u);
  EXPECT_EQ(batch.failures[1].index, 3u);
  EXPECT_EQ(batch.failures[2].index, 5u);
}

TEST(ExecutorTest, ProgressMeterCountsEveryOutcome) {
  const auto jobs = fake_jobs(10);
  runner::ProgressMeter progress(jobs.size());  // silent
  runner::ExecutorOptions options;
  options.jobs = 4;
  options.progress = &progress;
  runner::Executor exec(options);
  const auto batch = exec.run(jobs, [](const runner::Job& job) {
    if (job.index == 5) throw std::runtime_error("boom");  // failures tick too
    return echo_seed(job);
  });
  EXPECT_EQ(batch.completed(), 9u);
  EXPECT_EQ(progress.completed(), 10u);
  EXPECT_NE(progress.render().find("10/10"), std::string::npos);
}

// The headline guarantee: real simulations produce byte-identical CSV and
// identical results for 1 and 4 workers.
TEST(ExecutorDeterminismTest, CsvIsByteIdenticalAcrossWorkerCounts) {
  const auto grid = small_grid();

  const auto run_with = [&grid](std::size_t workers) {
    std::ostringstream out;
    runner::CsvSink sink(out);
    runner::ExecutorOptions options;
    options.jobs = workers;
    runner::Executor exec(options);
    const auto batch = exec.run(grid, &sink);
    EXPECT_TRUE(batch.ok());
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// Same guarantee with the full fault/repair machinery running: deaths,
// MTTR resurrections, and the rejoin traffic must replay identically no
// matter how jobs are spread across workers.
TEST(ExecutorDeterminismTest, CsvIsByteIdenticalWithRobotFaultsAndRepairs) {
  auto grid = small_grid();
  grid.base.robot_faults.mtbf = 1200.0;  // several deaths inside the horizon
  grid.base.robot_faults.mttr = 300.0;   // and several resurrections

  const auto run_with = [&grid](std::size_t workers) {
    std::ostringstream out;
    runner::CsvSink sink(out);
    runner::ExecutorOptions options;
    options.jobs = workers;
    runner::Executor exec(options);
    const auto batch = exec.run(grid, &sink);
    EXPECT_TRUE(batch.ok());
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ExecutorDeterminismTest, ResultsMatchDirectSimulationRuns) {
  const auto grid = small_grid();
  const auto jobs = grid.expand();

  runner::ExecutorOptions options;
  options.jobs = 4;
  runner::Executor exec(options);
  const auto batch = exec.run(grid);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.results.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    core::Simulation sim(jobs[i].config);
    sim.run();
    const auto expected = sim.result();
    const auto& got = *batch.results[i];
    EXPECT_EQ(got.seed, expected.seed);
    EXPECT_EQ(got.failures, expected.failures);
    EXPECT_EQ(got.repaired, expected.repaired);
    EXPECT_DOUBLE_EQ(got.avg_travel_per_repair, expected.avg_travel_per_repair);
    EXPECT_DOUBLE_EQ(got.avg_repair_latency, expected.avg_repair_latency);
  }
}

TEST(RunReplicatedTest, ParallelMatchesSerialAggregation) {
  core::SimulationConfig cfg;
  cfg.algorithm = Algorithm::kDynamicDistributed;
  cfg.robots = 4;
  cfg.sim_duration = 800.0;
  cfg.seed = 3;

  const auto serial = core::run_replicated(cfg, 3);
  runner::ExecutorOptions options;
  options.jobs = 3;
  const auto parallel = runner::run_replicated(cfg, 3, options);

  ASSERT_EQ(serial.seeds, parallel.seeds);
  EXPECT_DOUBLE_EQ(serial.travel_per_repair.mean, parallel.travel_per_repair.mean);
  EXPECT_DOUBLE_EQ(serial.repair_latency.mean, parallel.repair_latency.mean);
  EXPECT_DOUBLE_EQ(serial.failures.mean, parallel.failures.mean);
  EXPECT_EQ(serial.summary(), parallel.summary());
}

}  // namespace
