// sensrep_sweep — regenerates the paper's full evaluation grid as one CSV:
// every algorithm x robot-count x seed, all figure metrics per row. The
// figure benches print the curated tables; this tool produces the raw data
// a plotting pipeline (gnuplot/matplotlib) consumes, and emits a gnuplot
// script for the three figures alongside.
//
// Runs are independent, so the grid executes on the runner subsystem: one
// single-threaded simulation per worker thread, results aggregated in grid
// order — the CSV is byte-identical for --jobs=1 and --jobs=N.
//
//   sensrep_sweep [--out=sweep.csv] [--seeds=N] [--duration=S] [--quick]
//                 [--jobs=N] [--retries=N]
//
//   --out=PATH       CSV destination (default sweep.csv)
//   --seeds=N        replications per cell (default 3)
//   --duration=S     simulated seconds per run (default 64000)
//   --quick          shorthand for an 8000 s horizon; an explicit
//                    --duration=S always wins over it
//   --jobs=N         worker threads (default: hardware concurrency)
//   --retries=N      extra attempts per failed run (default 0)
//   --gnuplot=PATH   also write a gnuplot script plotting figs 2-4 from the CSV
//   --loss=P         per-reception Bernoulli loss probability for every cell
//   --chaos-burst=pEnter,pExit,lossBad[,lossGood]  Gilbert-Elliott bursty
//                    loss in every cell (E18 grid)
//   --chaos-dup=P[,extraDelay]   duplicate delivered receptions
//   --chaos-jitter=P,maxExtra    reorder-inducing extra delay
//   --chaos-partition=t0,t1[,x0,y0,x1,y1]  jam window (rect zone or global)
//   --check-invariants  run every cell under the chaos::InvariantChecker
//                    oracle; a violation fails that cell (fail-fast throw
//                    surfaces as a job failure, siblings keep running)
//   --reliable-reports  acked failure reports with retransmission (pairs
//                    with --loss for the E11 robustness grid)
//   --robot-mtbf=S   mean time between robot failures ("inf" disables, the
//                    default); enables the fault-tolerance subsystem in
//                    every cell of the grid (E13)
//   --robot-mttr=S   mean time to repair failed robots ("inf" disables, the
//                    default); with --robot-mtbf this turns the fleet into a
//                    steady-state availability model (E14)
//   --profile        profile hot paths across the whole grid, add a per-job
//                    wall_s CSV column, and print the slowest jobs. Opt-in
//                    because wall clocks break byte-identical CSV comparisons
//   --log-level=off|debug|info|warn|error   global logger threshold
//                    (default warn)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "chaos/invariant_checker.hpp"
#include "core/simulation.hpp"
#include "obs/profiler.hpp"
#include "runner/executor.hpp"
#include "service/signal.hpp"
#include "tools/args.hpp"
#include "trace/log.hpp"

namespace {

using namespace sensrep;

void write_gnuplot(const std::string& path, const std::string& csv) {
  std::ofstream out(path);
  out << "# gnuplot script regenerating the paper's figures from " << csv << "\n"
      << "set datafile separator ','\n"
      << "set key top left\n"
      << "set xlabel 'number of maintenance robots'\n"
      << "set terminal pngcairo size 800,600\n\n"
      << "set output 'fig2_motion.png'\n"
      << "set ylabel 'avg traveling distance per failure (m)'\n"
      << "set yrange [0:*]\n"
      << "plot for [a in 'centralized fixed dynamic'] '" << csv
      << "' using 2:(strcol(1) eq a ? $8 : 1/0) smooth unique with linespoints title a\n\n"
      << "set output 'fig3_hops.png'\n"
      << "set ylabel 'avg hops per failure'\n"
      << "plot for [a in 'centralized fixed dynamic'] '" << csv
      << "' using 2:(strcol(1) eq a ? $9 : 1/0) smooth unique with linespoints "
         "title a.' report', '"
      << csv
      << "' using 2:(strcol(1) eq 'centralized' ? $10 : 1/0) smooth unique with "
         "linespoints title 'centralized request'\n\n"
      << "set output 'fig4_updates.png'\n"
      << "set ylabel 'location-update transmissions per failure'\n"
      << "plot for [a in 'centralized fixed dynamic'] '" << csv
      << "' using 2:(strcol(1) eq a ? $11 : 1/0) smooth unique with linespoints title a\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::Args args(argc, argv);
    const std::string out_path = args.get_string("out", "sweep.csv");
    const auto seeds = args.get_u64("seeds", 3);
    // --quick is only a default: an explicit --duration=S beats it.
    const bool quick = args.has("quick");
    const double duration = args.get_double("duration", quick ? 8000.0 : 64000.0);
    const auto jobs = args.get_u64("jobs", 0);  // 0 = hardware concurrency
    const auto retries = args.get_u64("retries", 0);
    const std::string gnuplot_path = args.get_string("gnuplot", "");
    const double inf = std::numeric_limits<double>::infinity();
    const double loss = args.get_double_in("loss", 0.0, 0.0, 1.0);
    chaos::ChaosConfig chaos_cfg;
    tools::apply_chaos_flags(args, chaos_cfg);
    const bool check_invariants = args.has("check-invariants");
    const bool reliable_reports = args.has("reliable-reports");
    const double robot_mtbf = args.get_double_in("robot-mtbf", inf, 1.0, inf);
    const double robot_mttr = args.get_double_in("robot-mttr", inf, 1.0, inf);
    const bool profile = args.has("profile");
    const auto log_level = args.get_string("log-level", "");
    if (!log_level.empty()) {
      trace::Logger::global().set_threshold(tools::parse_log_level(log_level));
    }
    args.reject_unknown();

    if (profile) {
      obs::Profiler::reset();
      obs::Profiler::enable(true);
    }

    runner::ParameterGrid grid;
    grid.seeds = seeds;
    grid.base.sim_duration = duration;
    grid.base.radio.loss_probability = loss;
    grid.base.radio.chaos = chaos_cfg;
    grid.base.field.reliable_reports = reliable_reports;
    grid.base.robot_faults.mtbf = robot_mtbf;
    grid.base.robot_faults.mttr = robot_mttr;

    std::ofstream out(out_path);
    runner::CsvSink csv(out, /*wall_time=*/profile);
    runner::ProgressMeter progress(grid.size(), &std::cerr);
    runner::ExecutorOptions options;
    options.jobs = jobs;
    options.retries = retries;
    options.progress = &progress;
    // Ctrl-C stops in-flight simulations mid-run; finished rows are already
    // streamed to the CSV in grid order, so the partial file stays usable.
    service::install_signal_handlers();
    options.cancelled = [] { return service::shutdown_requested(); };
    runner::Executor executor(options);

    runner::BatchResult batch;
    if (check_invariants) {
      // Custom RunFn: every cell carries a fail-fast invariant oracle. A
      // violation throws from the worker and surfaces as that cell's
      // JobFailure record; sibling cells keep running.
      const auto oracle_run = [](const runner::Job& job) {
        job.config.validate();
        core::Simulation sim(job.config);
        chaos::InvariantChecker checker(sim);  // defaults: fail_fast
        sim.simulator().set_interrupt([] { return service::shutdown_requested(); });
        sim.run();
        if (sim.simulator().interrupted()) throw std::runtime_error("cancelled");
        checker.check_final();
        return sim.result();
      };
      batch = executor.run(grid.expand(), oracle_run, &csv);
    } else {
      batch = executor.run(grid, &csv);
    }
    progress.finish();

    const bool interrupted = service::shutdown_requested();
    std::cout << "wrote " << batch.completed() << " rows to " << out_path << " ("
              << executor.worker_count() << " worker thread(s)"
              << (interrupted ? ", interrupted" : "") << ")\n";
    for (const auto& f : batch.failures) {
      if (interrupted && f.error == "cancelled") continue;  // expected, not noise
      std::cerr << "sensrep_sweep: [" << f.label << "] failed after " << f.attempts
                << " attempt(s): " << f.error << "\n";
    }
    if (interrupted) return 130;
    if (!gnuplot_path.empty()) {
      write_gnuplot(gnuplot_path, out_path);
      std::cout << "wrote " << gnuplot_path << "\n";
    }
    if (profile) {
      obs::Profiler::enable(false);
      const auto jobs_list = grid.expand();
      std::printf("slowest jobs (%.1f s of simulation wall time total):\n",
                  batch.total_wall_seconds());
      for (const std::size_t idx : batch.slowest(5)) {
        std::printf("  %8.2f s  %s\n", batch.stats[idx].wall_seconds,
                    jobs_list[idx].label.c_str());
      }
      std::cout << obs::Profiler::report();
    }
    return batch.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "sensrep_sweep: " << e.what() << "\n";
    return 2;
  }
}
