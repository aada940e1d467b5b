//===- bench/ablation_stealing.cpp - Stealing vs scheduling order ------------===//
//
// Part of libsting. See DESIGN.md section 3 for the experiment index.
//
// Materializes section 4.1.1's qualitative claims on the Fig. 3 futures
// workload (a dependency chain where future i touches future i-2):
//
//   * under LIFO scheduling "stealing will occur much more frequently ...
//     the process call graph will unfold more effectively";
//   * under a preemptible FIFO scheduler "stealing operations will be
//     minimal";
//   * disabling stealing forces every touch of an undetermined future to
//     block and context-switch.
//
// The `steals` and `blocks`-oriented counters tell the story; wall time
// shows the locality payoff.
//
// BM_ForkComputeTouch guards the other side of local placement (DESIGN.md
// sections 5 and 8.5): a future its forker does not touch for a while must
// still start on an idle VP. Each round forks a future of `work_us` of
// spinning, spins as long itself, then touches the future; on 4 VPs over 2
// PPs a round takes about work_us when the future runs on the other PP and
// twice that when it runs serially. `offvp` is the share of futures that
// started away from their forker's VP.
//
//===----------------------------------------------------------------------===//

#include "ObsHarness.h"
#include "sting/Sting.h"
#include "support/Clock.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

using namespace sting;
using TC = ThreadController;

namespace {

struct Node {
  int Prime;
  std::shared_ptr<Node> Rest;
};
using PList = std::shared_ptr<Node>;

/// The Fig. 3 chain: one future per odd candidate, each touching the
/// previous future's list.
long primesChain(int Limit, bool Stealable) {
  SpawnOptions Opts;
  Opts.Stealable = Stealable;
  Future<PList> Primes = Future<PList>::spawn(
      [] { return std::make_shared<Node>(Node{2, nullptr}); }, Opts);
  for (int N = 3; N <= Limit; N += 2) {
    Future<PList> Prev = Primes;
    Primes = Future<PList>::spawn(
        [N, Prev] {
          PList Known = Prev.touch();
          for (Node *J = Known.get(); J; J = J->Rest.get())
            if (J->Prime * J->Prime <= N && N % J->Prime == 0)
              return Known;
          return std::make_shared<Node>(Node{N, Known});
        },
        Opts);
  }
  // Block on the final future *without* stealing it, so the ready queue's
  // order decides which thread runs first (touching here would steal the
  // whole chain regardless of policy and mask the contrast).
  Thread *Last = &Primes.thread();
  ThreadController::blockOnGroup(1, std::span<Thread *const>(&Last, 1));

  long Count = 0;
  for (PList P = Primes.touch(); P; P = P->Rest)
    ++Count;
  return Count;
}

enum class Variant { Lifo, Fifo, FifoNoSteal };

void BM_PrimesChain(benchmark::State &State) {
  const auto Which = static_cast<Variant>(State.range(0));
  const int Limit = static_cast<int>(State.range(1));

  std::uint64_t Steals = 0;
  std::uint64_t Dispatches = 0;
  long Count = 0;
  for (auto _ : State) {
    State.PauseTiming();
    VmConfig Config;
    Config.NumVps = 1;
    Config.NumPps = 1;
    Config.Policy = Which == Variant::Lifo ? makeLocalLifoPolicy()
                                           : makeLocalFifoPolicy();
    Config.StackSize = 4 * 1024 * 1024;
    sting::bench::ObsHarness::instance().configure(Config);
    VirtualMachine Vm(Config);
    State.ResumeTiming();

    AnyValue R = Vm.run([&]() -> AnyValue {
      return AnyValue(
          primesChain(Limit, Which != Variant::FifoNoSteal));
    });
    Count = R.as<long>();

    State.PauseTiming();
    Steals += Vm.aggregateStats().StealsSucceeded;
    for (const auto &Vp : Vm.vps())
      Dispatches += Vp->stats().Dispatches;
    sting::bench::ObsHarness::instance().capture("primes_chain", Vm);
    State.ResumeTiming();
  }
  State.counters["steals"] =
      benchmark::Counter(static_cast<double>(Steals),
                         benchmark::Counter::kAvgIterations);
  State.counters["dispatches"] =
      benchmark::Counter(static_cast<double>(Dispatches),
                         benchmark::Counter::kAvgIterations);
  State.counters["primes"] = static_cast<double>(Count);
}

/// Busy-waits \p Us microseconds without a controller call.
void spinFor(std::uint64_t Us) {
  const std::uint64_t End = nowNanos() + Us * 1000;
  while (nowNanos() < End) {
  }
}

void BM_ForkComputeTouch(benchmark::State &State) {
  constexpr int Rounds = 100;
  const auto WorkUs = static_cast<std::uint64_t>(State.range(0));
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 2;
  sting::bench::ObsHarness::instance().configure(Config);
  VirtualMachine Vm(Config);

  std::atomic<std::uint64_t> OffVp{0};
  for (auto _ : State) {
    Vm.run([&]() -> AnyValue {
      VirtualProcessor *Home = currentVp();
      for (int R = 0; R != Rounds; ++R) {
        Future<int> F = Future<int>::spawn([&] {
          if (currentVp() != Home)
            OffVp.fetch_add(1, std::memory_order_relaxed);
          spinFor(WorkUs);
          return 1;
        });
        spinFor(WorkUs);
        F.touch();
      }
      return AnyValue();
    });
  }
  sting::bench::ObsHarness::instance().capture("fork_compute_touch", Vm);
  State.counters["offvp"] = static_cast<double>(OffVp.load()) /
                            static_cast<double>(State.iterations() * Rounds);
}

} // namespace

// Variant x Limit sweep. pi(2000) = 303, pi(6000) = 783.
BENCHMARK(BM_PrimesChain)
    ->ArgNames({"variant", "limit"})
    ->Args({static_cast<int>(Variant::Lifo), 2000})
    ->Args({static_cast<int>(Variant::Fifo), 2000})
    ->Args({static_cast<int>(Variant::FifoNoSteal), 2000})
    ->Args({static_cast<int>(Variant::Lifo), 6000})
    ->Args({static_cast<int>(Variant::Fifo), 6000})
    ->Args({static_cast<int>(Variant::FifoNoSteal), 6000})
    ->Unit(benchmark::kMillisecond);

// Future grain sweep: fine (touched before an idle VP may take it) to
// coarse (worth starting elsewhere).
BENCHMARK(BM_ForkComputeTouch)
    ->ArgName("work_us")
    ->Arg(100)
    ->Arg(2000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

STING_BENCH_MAIN();
