//===- bench/fig6_baseline.cpp - Paper Figure 6: baseline timings ------------===//
//
// Part of libsting. See DESIGN.md section 3 for the experiment index.
//
// Reproduces every row of the paper's Figure 6 ("Baseline timings",
// section 5). The paper's numbers come from an 8-processor SGI MIPS R3000
// (1992) with a single LIFO queue; absolute values on a modern x86-64 core
// are far smaller — what must reproduce is the *shape*: the cost ordering
// and the relative claims (synchronous context switch cheapest, stealing
// well below fork+value, tuple-space ops the most expensive).
//
// Each benchmark carries a `paper_us` counter with the paper's value in
// microseconds for side-by-side reading; EXPERIMENTS.md records the
// comparison.
//
//===----------------------------------------------------------------------===//

#include "ObsHarness.h"
#include "sting/Sting.h"

#include <benchmark/benchmark.h>

using namespace sting;
using TC = ThreadController;

namespace {

/// Single-VP machine mirroring the paper's single-queue measurement setup.
VmConfig baselineConfig() {
  VmConfig Config;
  Config.NumVps = 1;
  Config.NumPps = 1;
  Config.Policy = makeLocalLifoPolicy(); // "a single LIFO queue"
  return Config;
}

AnyValue nullThunk() { return AnyValue(); }

/// Runs the benchmark loop inside a sting thread of a fresh machine.
template <typename Fn>
void onMachine(benchmark::State &State, Fn &&Body, VmConfig Config) {
  auto &Obs = sting::bench::ObsHarness::instance();
  Obs.configure(Config);
  VirtualMachine Vm(std::move(Config));
  Vm.run([&]() -> AnyValue {
    Body(State, Vm);
    return AnyValue();
  });
  Obs.capture("fig6", Vm);
}

//===----------------------------------------------------------------------===//
// Row 1: Thread Creation — "the cost to create a thread not placed in the
// genealogy tree, and which has no dynamic state". Paper: 8.9 us.
//===----------------------------------------------------------------------===//

void BM_ThreadCreation(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        SpawnOptions Opts;
        Opts.NoGenealogy = true;
        for (auto _ : State) {
          ThreadRef T = TC::createThread(nullThunk, Opts);
          benchmark::DoNotOptimize(T);
        }
      },
      baselineConfig());
  State.counters["paper_us"] = 8.9;
}
BENCHMARK(BM_ThreadCreation);

//===----------------------------------------------------------------------===//
// Row 2: Thread Fork and Value — "create a thread that evaluates the null
// procedure and returns". Paper: 44.9 us.
//===----------------------------------------------------------------------===//

void BM_ThreadForkAndValue(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        SpawnOptions Opts;
        Opts.NoGenealogy = true;
        Opts.Stealable = false; // measure the full schedule/dispatch path
        for (auto _ : State) {
          ThreadRef T = TC::forkThread(nullThunk, Opts);
          TC::threadValue(*T);
        }
      },
      baselineConfig());
  State.counters["paper_us"] = 44.9;
}
BENCHMARK(BM_ThreadForkAndValue);

//===----------------------------------------------------------------------===//
// Row 3: Scheduling a Thread — "the cost of inserting a thread into the
// ready queue of the current VP". Paper: 18.9 us.
//===----------------------------------------------------------------------===//

void BM_SchedulingAThread(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        SpawnOptions Opts;
        Opts.NoGenealogy = true;
        // The bench thread never yields, so queued threads pile up behind
        // it and only the enqueue path is measured.
        std::vector<ThreadRef> Queued;
        Queued.reserve(1 << 20);
        for (auto _ : State) {
          ThreadRef T = TC::createThread(nullThunk, Opts);
          TC::threadRun(*T);
          Queued.push_back(std::move(T));
        }
        // Timing has stopped once the loop exits; drain the backlog so the
        // machine shuts down cleanly.
        for (auto &T : Queued)
          TC::threadTerminate(*T); // claimed without ever running
        Queued.clear();
      },
      baselineConfig());
  State.counters["paper_us"] = 18.9;
}
// Fixed iteration count: the backlog this benchmark accumulates must stay
// small enough not to distort the measurement with memory effects.
BENCHMARK(BM_SchedulingAThread)->Iterations(100000);

//===----------------------------------------------------------------------===//
// Row 4: Synchronous Context Switch — "a yield-processor call in which the
// calling thread is resumed immediately". Paper: 3.77 us.
//===----------------------------------------------------------------------===//

void BM_SynchronousContextSwitch(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        for (auto _ : State)
          TC::yieldProcessor();
      },
      baselineConfig());
  State.counters["paper_us"] = 3.77;
}
BENCHMARK(BM_SynchronousContextSwitch);

//===----------------------------------------------------------------------===//
// Row 5: Stealing — touch of a delayed null thread, evaluated on the
// toucher's TCB. (The paper's figure excludes scheduling cost, so the
// stolen thread is created delayed and never enqueued; the measurement
// includes the creation from row 1.) Paper: 7.7 us.
//===----------------------------------------------------------------------===//

void BM_Stealing(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &Vm) {
        SpawnOptions Opts;
        Opts.NoGenealogy = true;
        for (auto _ : State) {
          ThreadRef T = TC::createThread(nullThunk, Opts);
          TC::threadWait(*T); // delayed + stealable -> inline steal
        }
        State.counters["steals"] =
            static_cast<double>(Vm.aggregateStats().StealsSucceeded);
      },
      baselineConfig());
  State.counters["paper_us"] = 7.7;
}
BENCHMARK(BM_Stealing);

//===----------------------------------------------------------------------===//
// Row 6: Thread Block and Resume — "the cost to block and resume a null
// thread". Paper: 27.9 us. A partner thread on the same VP blocks itself;
// each iteration resumes it and yields so it can block again.
//===----------------------------------------------------------------------===//

void BM_ThreadBlockAndResume(benchmark::State &State) {
  // FIFO here: the benchmark alternates two threads on one VP, and under
  // LIFO a yielding thread re-dispatches itself ahead of its partner.
  VmConfig Config = baselineConfig();
  Config.Policy = makeLocalFifoPolicy();
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        std::atomic<bool> Stop{false};
        ThreadRef Partner = TC::forkThread([&]() -> AnyValue {
          while (!Stop.load(std::memory_order_relaxed))
            TC::threadBlock("bench");
          return AnyValue();
        });
        // Let the partner reach its first block.
        while (!Partner->isUserBlocked())
          TC::yieldProcessor();
        for (auto _ : State) {
          TC::threadRun(*Partner); // resume
          TC::yieldProcessor();    // run it; it blocks again
        }
        Stop.store(true);
        while (!Partner->isDetermined()) {
          TC::threadRun(*Partner);
          TC::yieldProcessor();
        }
      },
      std::move(Config));
  State.counters["paper_us"] = 27.9;
}
BENCHMARK(BM_ThreadBlockAndResume);

//===----------------------------------------------------------------------===//
// Row 7: Tuple Space — "create a tuple-space, insert and then remove a
// singleton tuple". Paper: 170 us.
//===----------------------------------------------------------------------===//

void BM_TupleSpace(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        for (auto _ : State) {
          TupleSpaceRef Ts = TupleSpace::create();
          Ts->put(makeTuple(1));
          Match M = Ts->take(makeTuple(formal(0)));
          benchmark::DoNotOptimize(M);
        }
      },
      baselineConfig());
  State.counters["paper_us"] = 170.0;
}
BENCHMARK(BM_TupleSpace);

//===----------------------------------------------------------------------===//
// Row 8: Speculative Fork (2 threads) — "compute two null threads
// speculatively". Paper: 68.9 us.
//===----------------------------------------------------------------------===//

void BM_SpeculativeFork2(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        SpawnOptions Opts;
        Opts.Stealable = false;
        for (auto _ : State) {
          std::vector<ThreadRef> Group;
          Group.push_back(TC::forkThread(nullThunk, Opts));
          Group.push_back(TC::forkThread(nullThunk, Opts));
          ThreadRef Winner = waitForOne(Group);
          benchmark::DoNotOptimize(Winner);
        }
      },
      baselineConfig());
  State.counters["paper_us"] = 68.9;
}
BENCHMARK(BM_SpeculativeFork2);

//===----------------------------------------------------------------------===//
// Row 9: Barrier Synchronization (2 threads) — "build a barrier
// synchronization point on two threads both computing the null
// procedure". Paper: 144.8 us.
//===----------------------------------------------------------------------===//

void BM_BarrierSynchronization2(benchmark::State &State) {
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        SpawnOptions Opts;
        Opts.Stealable = false;
        for (auto _ : State) {
          std::vector<ThreadRef> Group;
          Group.push_back(TC::forkThread(nullThunk, Opts));
          Group.push_back(TC::forkThread(nullThunk, Opts));
          waitForAll(Group);
        }
      },
      baselineConfig());
  State.counters["paper_us"] = 144.8;
}
BENCHMARK(BM_BarrierSynchronization2);

//===----------------------------------------------------------------------===//
// Extra row (not in the paper's figure): contended tuple-space traffic.
// A pool of parked takers services a putter in a put/ack ping-pong across
// two VPs, so every operation runs the registered-waiter handoff path
// (DESIGN.md §12) rather than the empty-space fast path BM_TupleSpace
// measures. The wakeups_per_put counter is the ablation hook: direct
// handoff holds it at ~1.0 regardless of the pool size, while a wake-all
// scheme scales it with the number of parked waiters.
//===----------------------------------------------------------------------===//

void BM_TupleContended(benchmark::State &State) {
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  onMachine(
      State,
      [](benchmark::State &State, VirtualMachine &) {
        TupleSpaceRef Ts = TupleSpace::create();
        constexpr int Takers = 4;
        std::vector<ThreadRef> Pool;
        for (int I = 0; I != Takers; ++I)
          Pool.push_back(TC::forkThread([Ts]() -> AnyValue {
            for (;;) {
              Match M = Ts->take(makeTuple("job", formal(0)));
              if (M.binding(0).asFixnum() < 0)
                return AnyValue();
              Ts->put(makeTuple("ack", M.binding(0).asFixnum()));
            }
          }));
        // Only start timing once the whole pool is parked on "job": the
        // measurement is the contended path, not pool spin-up.
        while (Ts->stats().Blocks.load(std::memory_order_acquire) <
               static_cast<std::uint64_t>(Takers))
          TC::yieldProcessor();
        long I = 0;
        for (auto _ : State) {
          Ts->put(makeTuple("job", I++));
          Match A = Ts->take(makeTuple("ack", formal(0)));
          benchmark::DoNotOptimize(A);
        }
        for (int K = 0; K != Takers; ++K)
          Ts->put(makeTuple("job", -1));
        for (auto &T : Pool)
          TC::threadWait(*T);
        auto Puts = Ts->stats().Puts.load();
        State.counters["wakeups_per_put"] =
            Puts ? static_cast<double>(Ts->stats().Wakeups.load()) /
                       static_cast<double>(Puts)
                 : 0.0;
        State.counters["handoffs"] =
            static_cast<double>(Ts->stats().Handoffs.load());
      },
      std::move(Config));
}
BENCHMARK(BM_TupleContended);

} // namespace

STING_BENCH_MAIN();
