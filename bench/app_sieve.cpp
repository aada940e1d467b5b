//===- bench/app_sieve.cpp - Sieve coordination regimes (paper 3.1.1) --------===//
//
// Part of libsting. See DESIGN.md section 3 for the experiment index.
//
// Throughput of the section 3.1.1 stream sieve under its three
// coordination regimes (eager fork, demand-scheduled, round-robin
// placement), over a range of limits. The paper uses the program to show
// one definition spanning paradigms; the bench quantifies what each regime
// costs on this substrate.
//
//===----------------------------------------------------------------------===//

#include "ObsHarness.h"
#include "sting/Sting.h"

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

using namespace sting;
using TC = ThreadController;

namespace {

/// Wraps the next stage's thunk in a regime-specific spawn. Lazy regimes
/// return a thread that has not been scheduled; the stage demands it when
/// its own input runs dry.
struct FilterOp {
  std::function<ThreadRef(Thread::Thunk)> Spawn;
  bool DemandDownstream = false;
};

constexpr int EndMarker = -1;

/// Waits for \p Stage without stealing it, so a stage ends only after
/// its downstream one and the sieve returns only after every stage has
/// ended: a machine torn down under live stages drops their frames
/// without unwinding them.
void joinStage(Thread &Stage) {
  Thread *T = &Stage;
  TC::blockOnGroup(1, std::span<Thread *const>(&T, 1));
}

void filterStage(int Prime, std::shared_ptr<Stream<int>> Input,
                 const FilterOp &Op, std::shared_ptr<Stream<int>> Primes) {
  auto NextOut = std::make_shared<Stream<int>>();
  auto Pos = Input->begin();
  ThreadRef Next;
  int Seen = 0;
  for (;;) {
    int N = Input->next(Pos);
    if (N == EndMarker)
      break;
    // A controller safe point: consumes a pending preemption, if any.
    if ((++Seen & 15) == 0)
      TC::checkpoint();
    if (N % Prime == 0)
      continue;
    if (!Next) {
      Primes->attach(N);
      const FilterOp OpCopy = Op;
      Next = Op.Spawn([NextPrime = N, NextOut, OpCopy, Primes]() -> AnyValue {
        filterStage(NextPrime, NextOut, OpCopy, Primes);
        return AnyValue();
      });
    }
    NextOut->attach(N);
  }
  if (Next) {
    NextOut->attach(EndMarker);
    if (Op.DemandDownstream) {
      // Demand the delayed stage. thread-run first so a steal refused by
      // the stack bound still leaves the stage runnable, then touch it —
      // usually inlining the whole downstream chain onto this TCB (the
      // paper's thunk stealing, Fig. 4).
      TC::threadRun(*Next);
      TC::threadWait(*Next);
    } else {
      joinStage(*Next);
    }
  } else {
    Primes->attach(EndMarker);
  }
}

int sieve(const FilterOp &Op, int Limit) {
  auto Input = std::make_shared<Stream<int>>();
  auto Primes = std::make_shared<Stream<int>>();
  Primes->attach(2);
  ThreadRef First = Op.Spawn([Input, Op, Primes]() -> AnyValue {
    filterStage(2, Input, Op, Primes);
    return AnyValue();
  });
  if (Op.DemandDownstream)
    TC::threadRun(*First); // the producer below is the demand
  for (int N = 3; N <= Limit; ++N)
    Input->attach(N);
  Input->attach(EndMarker);
  int Count = 0;
  auto Pos = Primes->begin();
  while (Primes->next(Pos) != EndMarker)
    ++Count;
  joinStage(*First);
  return Count;
}

enum class Regime { Eager, Demand, Throttled, Lazy };

const char *regimeName(Regime R) {
  switch (R) {
  case Regime::Eager:
    return "eager";
  case Regime::Demand:
    return "demand";
  case Regime::Throttled:
    return "throttled";
  case Regime::Lazy:
    return "lazy";
  }
  return "?";
}

void BM_Sieve(benchmark::State &State) {
  const auto Which = static_cast<Regime>(State.range(0));
  const int Limit = static_cast<int>(State.range(1));
  auto &Obs = sting::bench::ObsHarness::instance();

  int Count = 0;
  for (auto _ : State) {
    State.PauseTiming();
    VmConfig Config;
    Config.NumVps = 4;
    Config.NumPps = 1;
    Config.EnablePreemption = true;
    Obs.configure(Config);
    VirtualMachine Vm(Config);
    State.ResumeTiming();

    AnyValue R = Vm.run([&]() -> AnyValue {
      FilterOp Op;
      switch (Which) {
      case Regime::Eager:
        Op.Spawn = [](Thread::Thunk Code) {
          return TC::forkThread(std::move(Code));
        };
        break;
      case Regime::Demand:
        Op.Spawn = [](Thread::Thunk Code) {
          ThreadRef T = TC::createThread(std::move(Code));
          TC::threadRun(*T);
          return T;
        };
        break;
      case Regime::Throttled:
        Op.Spawn = [](Thread::Thunk Code) {
          SpawnOptions Opts;
          Opts.Vp = &currentVp()->rightVp();
          return TC::forkThread(std::move(Code), Opts);
        };
        break;
      case Regime::Lazy:
        // Stages stay delayed until the upstream stage demands them; the
        // touch steals the stage's thunk (paper 4.1.1).
        Op.Spawn = [](Thread::Thunk Code) {
          return TC::createThread(std::move(Code));
        };
        Op.DemandDownstream = true;
        break;
      }
      return AnyValue(sieve(Op, Limit));
    });
    Count = R.as<int>();

    State.PauseTiming();
    Obs.capture(std::string("sieve/") + regimeName(Which), Vm);
    State.ResumeTiming();
  }
  State.counters["primes"] = Count;
  State.SetLabel(regimeName(Which));
}

} // namespace

BENCHMARK(BM_Sieve)
    ->ArgNames({"regime", "limit"})
    ->Args({static_cast<int>(Regime::Eager), 500})
    ->Args({static_cast<int>(Regime::Demand), 500})
    ->Args({static_cast<int>(Regime::Throttled), 500})
    ->Args({static_cast<int>(Regime::Lazy), 500})
    ->Args({static_cast<int>(Regime::Eager), 2000})
    ->Args({static_cast<int>(Regime::Demand), 2000})
    ->Args({static_cast<int>(Regime::Throttled), 2000})
    ->Args({static_cast<int>(Regime::Lazy), 2000})
    ->Unit(benchmark::kMillisecond);

STING_BENCH_MAIN();
